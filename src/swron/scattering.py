"""Scattering on graphs with periodic half-line tails.

A tailed graph is a finite core (possibly empty) together with N
half-infinite tails, each carrying a constant real symmetric lattice
operator; attach blocks couple core vertices to tail sites and cross
links couple tail sites directly.  At a fixed spectral value lambda the
behaviour at infinity on each tail is governed by the Bloch modes of its
lattice operator: eigenvectors (mu, w) of the transfer map, extended as
psi(n) = mu^n w.

Mode bookkeeping per tail (2kl eigenvalues of the transfer map):

* s conjugate pairs on the unit circle away from +-1 (open channels),
* p quadruples (mu, conj mu, 1/mu, 1/conj mu) off the circle and axis,
* q real pairs (mu, 1/mu) off the circle,

so 2s + 4p + 2q = 2kl away from critical points.  An open-channel mode
is outgoing when its current tau = Im(conj(x)^T SW x) is positive; its
conjugate is the matching incoming mode, normalized so that the bilinear
pair form of (in, out) equals i.

The space of genuine solutions, coordinatized by window values just past
the junction on each tail, has dimension N*k*l and is Lagrangian for the
direct sum of the tail pair forms; expressing it over the
incoming/outgoing channel coefficients after discarding the decaying part
yields the scattering matrix, which is unitary and symmetric.

The reduction is exact and depth-free: Bloch modes solve the tail
recurrence identically, and every attachment or cross link sits at a
site n < k_j, so on tail j only the equations at sites n < K_j = k_j
carry information (the ones that see the end of the half-line or a
coupling), and only those rows are assembled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .complex_core import DomainError
from .line_lattice import (
    LineOperator,
    line_operator_from_json,
    line_operator_to_json,
    swronskian_form,
    transfer_map,
)
from .operators import _close_symmetric, _matrix_to_json

__all__ = [
    "Tail",
    "TailedGraph",
    "MonodromyClassification",
    "CriticalPoint",
    "Mode",
    "AsymptoticSubspace",
    "ScatteringResult",
    "BoundState",
    "BandScan",
    "classify_monodromy",
    "find_critical_points",
    "wave_basis",
    "tail_modes",
    "asymptotic_subspace",
    "scattering_matrix",
    "regular_discrete_spectrum",
    "band_scan",
    "tailed_graph_to_json",
    "tailed_graph_from_json",
]

UNIMODULAR_TOL = 1e-9
PAIRING_TOL = 1e-8
CRITICAL_GAP = 1e-6
KERNEL_REL_TOL = 1e-9
A_LAMBDA = 1j  # fixed value of the in/out pair form


# -- monodromy classification --------------------------------------------------


@dataclass
class MonodromyClassification:
    """Eigenvalue bookkeeping of one transfer map."""

    lam: complex
    kl: int
    s: int
    p: int
    q: int
    eigenvalues: np.ndarray
    critical: bool
    critical_reason: str | None
    pairing_defect: float

    @property
    def identity_holds(self) -> bool:
        return 2 * self.s + 4 * self.p + 2 * self.q == 2 * self.kl

    def counts(self) -> tuple[int, int, int]:
        return (self.s, self.p, self.q)


def classify_monodromy(
    matrix_or_transfer, lam=None, *, kl: int | None = None
) -> MonodromyClassification:
    """Count channel pairs / quadruples / real pairs of a transfer map.

    A point is critical when eigenvalues collide (gap below
    ``CRITICAL_GAP``), when one sits at +-1, or when the pair structure
    cannot be matched within ``PAIRING_TOL``; the (s, p, q) identity is
    not trusted there.
    """
    if hasattr(matrix_or_transfer, "matrix"):
        if lam is None:
            lam = matrix_or_transfer.lam
        matrix = matrix_or_transfer.matrix
    else:
        matrix = np.asarray(matrix_or_transfer)
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        raise DomainError("transfer matrix must be square of even size")
    kl = matrix.shape[0] // 2 if kl is None else kl
    return _classify(np.linalg.eigvals(matrix.astype(complex)), lam, kl)


def _classify(mus: np.ndarray, lam, kl: int) -> MonodromyClassification:
    """(s, p, q) counts and critical flag of the eigenvalues ``mus`` of
    one transfer map."""
    critical_reason = None
    # eigenvalue collision (includes +-1 doublets and band-edge mergers)
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            if abs(mus[i] - mus[j]) < CRITICAL_GAP:
                critical_reason = "eigenvalue-collision"
    for mu in mus:
        if abs(mu - 1) < CRITICAL_GAP or abs(mu + 1) < CRITICAL_GAP:
            critical_reason = critical_reason or "unit-eigenvalue"

    # symmetry of the multiset under conjugation and inversion
    def closest(target: complex) -> float:
        scale = max(1.0, abs(target))
        return min(abs(m - target) for m in mus) / scale

    pairing_defect = 0.0
    for mu in mus:
        pairing_defect = max(pairing_defect, closest(np.conj(mu)))
        if mu != 0:
            pairing_defect = max(pairing_defect, closest(1.0 / mu))
    if pairing_defect > PAIRING_TOL:
        critical_reason = critical_reason or "pairing-defect"

    s = p = q = 0
    for mu in mus:
        unimod = abs(abs(mu) - 1.0) <= UNIMODULAR_TOL
        realish = abs(mu.imag) <= UNIMODULAR_TOL * max(1.0, abs(mu))
        if unimod and not realish and mu.imag > 0:
            s += 1
        elif not unimod and realish and abs(mu) > 1:
            q += 1
        elif not unimod and not realish and abs(mu) > 1 and mu.imag > 0:
            p += 1
    clf = MonodromyClassification(
        lam=complex(lam) if lam is not None else complex("nan"),
        kl=kl,
        s=s,
        p=p,
        q=q,
        eigenvalues=mus,
        critical=critical_reason is not None,
        critical_reason=critical_reason,
        pairing_defect=float(pairing_defect),
    )
    if critical_reason is None and not clf.identity_holds:
        clf.critical = True
        clf.critical_reason = "identity-failure"
    return clf


def _classify_at(op: LineOperator, lam: float) -> MonodromyClassification:
    return classify_monodromy(transfer_map(op, lam, 0), lam, kl=op.k * op.l)


@dataclass
class CriticalPoint:
    lam: float
    before: tuple[int, int, int]
    after: tuple[int, int, int]
    path: int | None
    spectrum_neutral: bool

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "before": list(self.before),
            "after": list(self.after),
            "path": self.path,
            "spectrum_neutral": self.spectrum_neutral,
        }


_PATHS = {
    # delta (ds, dp, dq) up to overall sign -> (path number, neutral flag)
    (0, 1, -2): (1, True),
    (-2, 1, 0): (2, False),
    (-1, 0, 1): (3, False),
}


def _path_of(before, after):
    delta = tuple(a - b for a, b in zip(after, before))
    if delta in _PATHS:
        return _PATHS[delta]
    neg = tuple(-d for d in delta)
    if neg in _PATHS:
        return _PATHS[neg]
    return None, False


def find_critical_points(
    op: LineOperator, lo: float, hi: float, samples: int = 101, *, tol: float = 1e-8
) -> list[CriticalPoint]:
    """Bisect classification changes of a constant operator over [lo, hi].

    Grid points where (s, p, q) differs between consecutive non-critical
    samples are refined by bisection down to ``tol``; the elementary path
    type is read off the counts on both sides.
    """
    if samples < 2:
        raise DomainError("need at least two grid samples")
    grid = np.linspace(lo, hi, samples)
    cls = [_classify_at(op, x) for x in grid]
    out: list[CriticalPoint] = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        ca, cb = cls[i], cls[i + 1]
        left_counts = ca.counts()
        right_counts = cb.counts()
        if left_counts == right_counts:
            continue  # includes isolated flagged samples: no structural change
        la, lb = float(a), float(b)
        while lb - la > tol:
            mid = 0.5 * (la + lb)
            cm = _classify_at(op, mid)
            if not cm.critical and cm.counts() == left_counts:
                la = mid
            else:
                lb = mid
        path, neutral = _path_of(left_counts, right_counts)
        out.append(
            CriticalPoint(
                lam=0.5 * (la + lb),
                before=left_counts,
                after=right_counts,
                path=path,
                spectrum_neutral=neutral,
            )
        )
    return out


def _tail_critical_points(graph, lo: float, hi: float, samples: int) -> list[CriticalPoint]:
    """find_critical_points of every tail, concatenated in tail order;
    tails with identical operators (same k, l and blocks) share one scan."""
    scans: dict[str, list[CriticalPoint]] = {}
    out: list[CriticalPoint] = []
    for tail in graph.tails:
        key = json.dumps(line_operator_to_json(tail.op), sort_keys=True)
        if key not in scans:
            scans[key] = find_critical_points(tail.op, lo, hi, samples)
        out += scans[key]
    return out


# -- Bloch modes ---------------------------------------------------------------


@dataclass
class Mode:
    """One Bloch solution mu^n w of a tail operator at fixed lambda.

    The fiber vector w has unit norm and its largest entry real and
    positive; this phase convention fixes the channel phases of a
    multi-channel S.  ``anchor`` rescales the stored vector so site values
    stay bounded on [0, anchor]: value(n) = w * mu**(n - anchor).  Channel
    modes carry the tail's phase reference and current normalization in
    ``w`` already (factor mu**origin / sqrt(current)).
    """

    mu: complex
    w: np.ndarray
    kind: str  # 'in' | 'out' | 'decay' | 'grow'
    anchor: int = 0
    channel: int | None = None

    def value(self, n: int) -> np.ndarray:
        return self.w * (self.mu ** (n - self.anchor))

    def values(self, lo: int, hi: int) -> np.ndarray:
        """(l, hi-lo+1) array of site values."""
        powers = self.mu ** (np.arange(lo, hi + 1) - self.anchor)
        return np.outer(self.w, powers)


def _fiber_vector(mu: complex, vec: np.ndarray, l: int) -> np.ndarray:
    """Fiber vector w of a transfer-map eigenvector, whose window blocks
    are mu^p w for p = -k+1..k: the largest block (p = k when |mu| >= 1,
    else p = -k+1) at unit norm, its largest entry real and positive."""
    w = vec[-l:] if abs(mu) >= 1 else vec[:l]
    w = w * np.conj(w[np.argmax(np.abs(w))])
    return w / np.linalg.norm(w)


def _window_coords(mode: Mode, m: int, k: int) -> np.ndarray:
    return mode.values(m - k + 1, m + k).T.reshape(-1)


def tail_modes(
    op: LineOperator,
    lam: float,
    *,
    origin: int = 0,
    anchor: int = 0,
) -> tuple[MonodromyClassification, list[Mode]]:
    """Classify the tail at lambda and build its full mode list.

    One eigendecomposition of the transfer map gives both: its eigenvalues
    are classified, and each eigenvector yields its mode's fiber vector.
    Channel (unimodular) modes are normalized so the bilinear pair form
    of (incoming, outgoing) is exactly i; the incoming fiber vector is
    the exact conjugate of the outgoing one.  Growing modes are anchored
    at site ``anchor``, so their site values stay at most 1 up to there.
    """
    if not op.constant:
        raise DomainError("tail operators must be constant")
    k, l = op.k, op.l
    mus, vecs = np.linalg.eig(transfer_map(op, lam, 0).matrix.astype(complex))
    clf = _classify(mus, lam, k * l)
    m_pair = k - 1
    sw = swronskian_form(op, 0).matrix
    modes: list[Mode] = []
    channel = 0
    order = sorted(
        range(len(mus)),
        key=lambda i: (round(float(np.angle(mus[i])), 12), abs(mus[i])),
    )
    for i in order:
        mu = complex(mus[i])
        unimod = abs(abs(mu) - 1.0) <= UNIMODULAR_TOL
        if unimod and mu.imag <= 0 and abs(mu.imag) > UNIMODULAR_TOL:
            continue  # conjugate partner handled with its mate
        w = _fiber_vector(mu, vecs[:, i], l)
        if unimod:
            x = _window_coords(Mode(mu, w, "out"), m_pair, k)
            tau = float(np.imag(np.conj(x) @ sw @ x))
            if abs(tau) < 1e-12:
                clf.critical = True
                clf.critical_reason = clf.critical_reason or "zero-current-channel"
                continue
            if tau < 0:
                mu, w, tau = np.conj(mu), np.conj(w), -tau
            w_out = w * (mu ** origin) / math.sqrt(tau)
            modes.append(Mode(mu, w_out, "out", channel=channel))
            modes.append(Mode(np.conj(mu), np.conj(w_out), "in", channel=channel))
            channel += 1
        elif abs(mu) < 1.0:
            modes.append(Mode(mu, w, "decay"))
        else:
            modes.append(Mode(mu, w, "grow", anchor=anchor))
    return clf, modes


def wave_basis(op: LineOperator, lam: float, *, origin: int = 0):
    """In/out channel modes only; error when the point carries none."""
    clf, modes = tail_modes(op, lam, origin=origin)
    channels = [m for m in modes if m.kind in ("in", "out")]
    if clf.critical:
        raise DomainError(
            f"lambda={lam} is critical ({clf.critical_reason}); no wave basis"
        )
    if not channels:
        raise DomainError(f"no open channels at lambda={lam}")
    return clf, channels


# -- tailed graphs -------------------------------------------------------------


# The modal reduction needs the tail equation at every site n >= k_j to be
# the free recurrence, which each Bloch mode solves exactly; an attachment
# or cross link there breaks it.
_DEEP_COUPLING_HINT = 'declare the site as a core vertex or a "decay" row'


@dataclass
class Tail:
    """Half-line attachment: constant operator, couplings, phase origin."""

    op: LineOperator
    attach: dict = field(default_factory=dict)  # (core label, site) -> (dim_v, l)
    origin: int = 0

    def junction_depth(self) -> int:
        return max((n for (_, n) in self.attach), default=-1) + 1


class TailedGraph:
    """Finite core plus periodic tails plus optional tail-tail links.

    Parameters
    ----------
    core_dims : dict label -> fiber dimension (may be empty).
    core_blocks : dict (u, v) -> matrix; symmetry closure is checked.
    tails : list of Tail.
    cross_links : list of ((j1, n1), (j2, n2), matrix) direct couplings
        between tail sites, matrix shaped (l_j1, l_j2).
    """

    def __init__(self, core_dims, core_blocks, tails, cross_links=()):
        def coupling(m, shape: tuple[int, int], what: str) -> np.ndarray:
            arr = np.asarray(m, dtype=float)
            if arr.shape == () and shape == (1, 1):
                arr = arr.reshape(1, 1)
            if arr.shape != shape:
                raise DomainError(f"{what} has shape {arr.shape}")
            return arr

        if isinstance(core_dims, dict):
            self.core_dims = {int(v): int(d) for v, d in core_dims.items()}
        else:
            self.core_dims = {int(v): 1 for v in core_dims}
        self.core_order = sorted(self.core_dims)
        self.core_offset = {}
        off = 0
        for v in self.core_order:
            self.core_offset[v] = off
            off += self.core_dims[v]
        self.core_size = off

        self.core_blocks = {}
        for (u, v), m in core_blocks.items():
            u, v = int(u), int(v)
            for x in (u, v):
                if x not in self.core_dims:
                    raise DomainError(f"core block uses unknown vertex {x}")
            self.core_blocks[(u, v)] = coupling(
                m, (self.core_dims[u], self.core_dims[v]), f"core block ({u}, {v})"
            )
        _close_symmetric(self.core_blocks, lambda uv: uv[::-1])

        self.tails = list(tails)
        for j, tail in enumerate(self.tails):
            if not tail.op.constant:
                raise DomainError(f"tail {j} operator is not constant")
            if not tail.op.is_real():
                raise DomainError(f"tail {j} operator is not real")
            if tail.op.k < 1:
                raise DomainError(f"tail {j} needs order k >= 1")
            lead = tail.op.block(0, tail.op.k)
            if abs(np.linalg.det(lead)) == 0.0:
                raise DomainError(f"tail {j} leading block is singular")
            fixed = {}
            for (v, n), m in tail.attach.items():
                v, n = int(v), int(n)
                if v not in self.core_dims:
                    raise DomainError(f"tail {j} attaches to unknown vertex {v}")
                if not 0 <= n < tail.op.k:
                    raise DomainError(
                        f"tail {j} attach site {n} is outside 0..{tail.op.k - 1}; "
                        + _DEEP_COUPLING_HINT
                    )
                fixed[(v, n)] = coupling(
                    m, (self.core_dims[v], tail.op.l), f"tail {j} attach block at ({v}, {n})"
                )
            tail.attach = fixed

        self.cross_links = []
        for (j1, n1), (j2, n2), m in cross_links:
            j1, n1, j2, n2 = int(j1), int(n1), int(j2), int(n2)
            if (j1, n1) == (j2, n2):
                raise DomainError("cross link joins a site to itself")
            for j, n in ((j1, n1), (j2, n2)):
                if not 0 <= j < len(self.tails):
                    raise DomainError(f"cross link uses unknown tail {j}")
                k = self.tails[j].op.k
                if not 0 <= n < k:
                    raise DomainError(
                        f"cross link site {n} of tail {j} is outside 0..{k - 1}; "
                        + _DEEP_COUPLING_HINT
                    )
            shape = (self.tails[j1].op.l, self.tails[j2].op.l)
            self.cross_links.append(
                ((j1, n1), (j2, n2), coupling(m, shape, "cross link block"))
            )

    @property
    def n_tails(self) -> int:
        return len(self.tails)

    def expected_dim(self) -> int:
        return sum(t.op.k * t.op.l for t in self.tails)

    def junction_depth(self, j: int) -> int:
        depth = self.tails[j].junction_depth()
        for (a, n1), (b, n2), _ in self.cross_links:
            if a == j:
                depth = max(depth, n1 + 1)
            if b == j:
                depth = max(depth, n2 + 1)
        return depth

    def tail_rows(self, depth: int | None = None) -> list[int]:
        """Rows assembled per tail: K_j = k_j, raised to ``depth`` when
        given.  Couplings sit at sites n < k_j, so every tail equation at
        a site n >= k_j involves only free tail sites, where each Bloch
        mode solves it exactly."""
        return [max(t.op.k, depth or 0) for t in self.tails]

    def default_depth(self) -> int:
        """max_j k_j, the row count of the deepest tail in the exact
        reduction."""
        return max(self.tail_rows(), default=0)

    def core_matrix(self) -> np.ndarray:
        mat = np.zeros((self.core_size, self.core_size))
        for (u, v), m in self.core_blocks.items():
            r, c = self.core_offset[u], self.core_offset[v]
            mat[r : r + self.core_dims[u], c : c + self.core_dims[v]] = m
        return mat


# -- global solve ----------------------------------------------------------------


def _graph_modes(graph: TailedGraph, lam: float, rows: list[int]):
    """tail_modes of every tail, growing modes anchored at the top site
    that its assembled rows reach."""
    return [
        tail_modes(t.op, lam, origin=t.origin, anchor=r + t.op.k - 1)
        for t, r in zip(graph.tails, rows)
    ]


def _assemble(graph: TailedGraph, lam: float, rows: list[int], modes: list[list[Mode]]):
    """Equations over (core values, modal coefficients): every core row,
    and the first ``rows[j]`` site equations of tail j.  Returns the
    matrix and the first modal column of each tail."""
    nc = graph.core_size
    mode_offset = []
    row_offset = []
    n_cols, n_rows = nc, nc
    for tail, mset, nrows in zip(graph.tails, modes, rows):
        mode_offset.append(n_cols)
        row_offset.append(n_rows)
        n_cols += len(mset)
        n_rows += nrows * tail.op.l
    a = np.zeros((n_rows, n_cols), dtype=complex)
    a[:nc, :nc] = graph.core_matrix() - lam * np.eye(nc)

    # site values: values[j][n] is (l, modes) with one column per mode of tail j
    values = []
    for tail, mset, nrows in zip(graph.tails, modes, rows):
        top = nrows + tail.op.k - 1
        if mset:
            values.append(np.stack([m.values(0, top).T for m in mset], axis=2))
        else:
            values.append(np.zeros((top + 1, tail.op.l, 0)))

    def tail_rows(j: int, n: int) -> slice:
        lj = graph.tails[j].op.l
        return slice(row_offset[j] + n * lj, row_offset[j] + (n + 1) * lj)

    def mode_cols(j: int) -> slice:
        return slice(mode_offset[j], mode_offset[j] + len(modes[j]))

    for j, (tail, nrows) in enumerate(zip(graph.tails, rows)):
        op, vals = tail.op, values[j]
        acc = -lam * vals[:nrows]
        for s in range(-op.k, op.k + 1):
            lo = max(0, -s)  # the half-line has no sites below 0
            acc[lo:] += op.block(0, s) @ vals[lo + s : nrows + s]
        rs = slice(row_offset[j], row_offset[j] + nrows * op.l)
        a[rs, mode_cols(j)] = acc.reshape(nrows * op.l, len(modes[j]))
        for (v, n), m in tail.attach.items():
            c = slice(graph.core_offset[v], graph.core_offset[v] + graph.core_dims[v])
            a[c, mode_cols(j)] += m @ vals[n]
            a[tail_rows(j, n), c] += m.T

    for (j1, n1), (j2, n2), m in graph.cross_links:
        a[tail_rows(j1, n1), mode_cols(j2)] += m @ values[j2][n2]
        a[tail_rows(j2, n2), mode_cols(j1)] += m.T @ values[j1][n1]
    return a, mode_offset


def _kernel_basis(a: np.ndarray, rel_tol: float = KERNEL_REL_TOL):
    if a.size == 0:
        return np.eye(a.shape[1]), np.zeros(0)
    _, sing, vt = np.linalg.svd(a, full_matrices=True)
    cut = rel_tol * (sing[0] if len(sing) and sing[0] > 0 else 1.0)
    rank = int(np.sum(sing > cut))
    return vt[rank:].conj().T, sing


@dataclass
class AsymptoticSubspace:
    """Kernel of the junction problem in modal coordinates; ``depth`` is
    the largest number of rows assembled on one tail."""

    lam: float
    depth: int
    dim: int
    expected_dim: int
    core_values: np.ndarray
    modal: list[np.ndarray]
    windows: list[np.ndarray]
    classifications: list[MonodromyClassification]
    modes: list[list[Mode]]
    lagrangian_residual: float
    singular_values: np.ndarray
    flags: set

    @property
    def ok(self) -> bool:
        return self.dim == self.expected_dim and not self.flags


def asymptotic_subspace(
    graph: TailedGraph, lam: float, depth: int | None = None
) -> AsymptoticSubspace:
    """Solve the junction system over modal unknowns and report the
    solution space with its per-tail window data and Lagrangian defect.

    Tail j contributes its K_j informative rows (see
    :meth:`TailedGraph.tail_rows`); an explicit ``depth`` only raises
    that count, which leaves the kernel unchanged up to round-off.
    """
    lam = float(lam)
    rows = graph.tail_rows(depth)
    pairs = _graph_modes(graph, lam, rows)
    clfs = [c for c, _ in pairs]
    modes = [m for _, m in pairs]
    flags = set()
    if any(c.critical for c in clfs):
        flags.add("critical")

    matrix, mode_offset = _assemble(graph, lam, rows, modes)
    kernel, sing = _kernel_basis(matrix)
    dim = kernel.shape[1]
    expected = graph.expected_dim()
    if dim != expected:
        flags.add("kernel-dim-mismatch")

    nc = graph.core_size
    core_values = kernel[:nc, :]
    modal = []
    windows = []
    for j, tail in enumerate(graph.tails):
        k = tail.op.k
        sl = slice(mode_offset[j], mode_offset[j] + len(modes[j]))
        coef = kernel[sl, :]
        modal.append(coef)
        m_pair = graph.junction_depth(j) + k - 1
        if modes[j]:
            vmat = np.stack(
                [_window_coords(m, m_pair, k) for m in modes[j]], axis=1
            )
            windows.append(vmat @ coef)
        else:
            windows.append(np.zeros((2 * k * tail.op.l, dim)))

    # normalize by asymptotic window norm, then measure the pair form
    norms = np.sqrt(sum(np.sum(np.abs(w) ** 2, axis=0) for w in windows))
    safe = np.where(norms > 1e-12, norms, 1.0)
    if np.any(norms <= 1e-12):
        flags.add("window-degenerate")
    pairing = np.zeros((dim, dim), dtype=complex)
    for j, tail in enumerate(graph.tails):
        sw = swronskian_form(tail.op, 0).matrix
        wj = windows[j] / safe
        pairing += wj.T @ sw @ wj
    residual = float(np.max(np.abs(pairing))) if dim else 0.0

    return AsymptoticSubspace(
        lam=lam,
        depth=max(rows, default=0),
        dim=dim,
        expected_dim=expected,
        core_values=core_values,
        modal=modal,
        windows=windows,
        classifications=clfs,
        modes=modes,
        lagrangian_residual=residual,
        singular_values=sing,
        flags=flags,
    )


@dataclass
class ScatteringResult:
    """S-matrix output with its defects and bookkeeping."""

    lam: float
    channels: list[tuple[int, int]]
    s_matrix: np.ndarray | None
    unitarity_residual: float | None
    symmetry_residual: float | None
    pairing_defect: float | None
    subspace: AsymptoticSubspace
    flags: set

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "channels": [list(c) for c in self.channels],
            "s_matrix": None if self.s_matrix is None else _matrix_to_json(self.s_matrix),
            "unitarity_residual": self.unitarity_residual,
            "symmetry_residual": self.symmetry_residual,
            "pairing_defect": self.pairing_defect,
            "lagrangian_residual": self.subspace.lagrangian_residual,
            "subspace_dim": self.subspace.dim,
            "expected_dim": self.subspace.expected_dim,
            "classification": [
                {"s": c.s, "p": c.p, "q": c.q, "critical": c.critical}
                for c in self.subspace.classifications
            ],
            "flags": sorted(self.flags),
            "a_lambda": [0.0, 1.0],
        }


def scattering_matrix(
    graph: TailedGraph, lam: float, depth: int | None = None
) -> ScatteringResult:
    """Channel map from incoming unit amplitudes to outgoing amplitudes
    after quotienting by the decaying directions.

    Critical or singular points withhold the matrix and set flags rather
    than returning unreliable numbers.
    """
    sub = asymptotic_subspace(graph, lam, depth)
    flags = set(sub.flags)
    channels: list[tuple[int, int]] = []
    for j, mset in enumerate(sub.modes):
        nch = sum(1 for m in mset if m.kind == "out")
        channels += [(j, i) for i in range(nch)]
    nch = len(channels)
    if nch == 0:
        flags.add("no-channels")
        return ScatteringResult(lam, [], None, None, None, None, sub, flags)
    if "critical" in flags or "kernel-dim-mismatch" in flags:
        return ScatteringResult(lam, channels, None, None, None, None, sub, flags)

    def rows_of(kind: str) -> np.ndarray:
        out = []
        for j, mset in enumerate(sub.modes):
            for r, mode in enumerate(mset):
                if mode.kind == kind:
                    out.append(sub.modal[j][r, :])
        return np.array(out) if out else np.zeros((0, sub.dim))

    grow = rows_of("grow")
    bounded_kernel, _ = _kernel_basis(grow, rel_tol=1e-10)
    if bounded_kernel.shape[1] != nch:
        flags.add("singular")
        return ScatteringResult(lam, channels, None, None, None, None, sub, flags)

    c_in = rows_of("in") @ bounded_kernel
    c_out = rows_of("out") @ bounded_kernel
    if np.linalg.cond(c_in) > 1e10:
        flags.add("singular")
        return ScatteringResult(lam, channels, None, None, None, None, sub, flags)
    s = c_out @ np.linalg.inv(c_in)

    unit = float(np.max(np.abs(s @ s.conj().T - np.eye(nch))))
    symm = float(np.max(np.abs(s - s.T)))

    # diagnostic: the in/out pair normalization across channels
    defect = 0.0
    for j, tail in enumerate(graph.tails):
        sw = swronskian_form(tail.op, 0).matrix
        k = tail.op.k
        m_pair = graph.junction_depth(j) + k - 1
        outs = [m for m in sub.modes[j] if m.kind == "out"]
        ins = [m for m in sub.modes[j] if m.kind == "in"]
        for a, mi in enumerate(ins):
            xi = _window_coords(mi, m_pair, k)
            for b, mo in enumerate(outs):
                xo = _window_coords(mo, m_pair, k)
                want = A_LAMBDA if a == b else 0.0
                defect = max(defect, abs(xi @ sw @ xo - want))
    return ScatteringResult(
        lam=lam,
        channels=channels,
        s_matrix=s,
        unitarity_residual=unit,
        symmetry_residual=symm,
        pairing_defect=float(defect),
        subspace=sub,
        flags=flags,
    )


# -- discrete spectrum -----------------------------------------------------------


@dataclass
class BoundState:
    lam: float
    sigma_min: float
    core_values: np.ndarray
    modal: list[np.ndarray]
    uncertain: bool
    singular: bool = False


def _decay_system(graph: TailedGraph, lam: float, rows: list[int]):
    modes = [
        [m for m in mset if m.kind == "decay"]
        for _, mset in _graph_modes(graph, lam, rows)
    ]
    matrix, mode_offset = _assemble(graph, lam, rows, modes)
    return matrix, mode_offset, modes


def _sigma_min(graph: TailedGraph, lam: float, rows: list[int]) -> float:
    matrix, _, _ = _decay_system(graph, lam, rows)
    if matrix.shape[1] == 0:
        return math.inf
    sing = np.linalg.svd(matrix, compute_uv=False)
    scale = sing[0] if sing[0] > 0 else 1.0
    return float(sing[-1] / scale) if len(sing) >= matrix.shape[1] else 0.0


def _golden_refine(f, a: float, b: float, tol: float = 1e-11) -> float:
    """Golden-section minimizer of a unimodal scalar function on [a, b]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def regular_discrete_spectrum(
    graph: TailedGraph,
    lo: float,
    hi: float,
    samples: int = 201,
    *,
    depth: int | None = None,
    detect_tol: float = 1e-8,
) -> list[BoundState]:
    """Scan for decaying-solution eigenvalues in [lo, hi].

    The restricted system keeps only core values and decaying modal
    coefficients; eigenvalues appear as near-zero relative smallest
    singular values at grid minima, refined by golden-section descent.
    States within one grid step of a tail critical point (band
    threshold) are flagged uncertain.  Singular eigenfunctions that
    vanish on every tail are detected from the core alone and reported
    with ``singular=True``, never merged into the regular list.
    """
    if samples < 3:
        raise DomainError("need at least three grid samples")
    rows = graph.tail_rows(depth)
    grid = np.linspace(lo, hi, samples)
    step = (hi - lo) / (samples - 1)
    vals = np.array([_sigma_min(graph, x, rows) for x in grid])
    criticals = [cp.lam for cp in _tail_critical_points(graph, lo, hi, samples)]

    out: list[BoundState] = []
    for i in range(1, samples - 1):
        if not (vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]):
            continue
        if not np.isfinite(vals[i]) or vals[i] > 1e-2:
            continue
        lam_star = _golden_refine(
            lambda x: _sigma_min(graph, x, rows), grid[i - 1], grid[i + 1]
        )
        sig = _sigma_min(graph, lam_star, rows)
        if sig > detect_tol:
            continue
        matrix, mode_offset, modes = _decay_system(graph, lam_star, rows)
        kernel, _ = _kernel_basis(matrix, rel_tol=max(1e-9, 2 * sig))
        if kernel.shape[1] == 0:
            # rank tolerance missed the minimum; take the last right vector
            _, _, vt = np.linalg.svd(matrix)
            kernel = vt[-1:].conj().T
        out.append(
            BoundState(
                lam=float(lam_star),
                sigma_min=float(sig),
                core_values=kernel[: graph.core_size, 0],
                modal=[
                    kernel[off : off + len(mset), 0]
                    for off, mset in zip(mode_offset, modes)
                ],
                uncertain=any(abs(lam_star - c) < step for c in criticals),
            )
        )

    # singular eigenfunctions: zero on all tails, supported on the core
    if graph.core_size:
        cmat = graph.core_matrix()
        evals, evecs = np.linalg.eigh(cmat)
        scale = max(1.0, float(np.max(np.abs(cmat))))
        for lam_e, vec in zip(evals, evecs.T):
            if not (lo <= lam_e <= hi):
                continue
            defect = 0.0
            for j, tail in enumerate(graph.tails):
                for (v, n), m in tail.attach.items():
                    r = graph.core_offset[v]
                    dv = graph.core_dims[v]
                    defect = max(
                        defect, float(np.max(np.abs(m.T @ vec[r : r + dv])))
                    )
            if defect <= 1e-10 * scale:
                out.append(
                    BoundState(
                        lam=float(lam_e),
                        sigma_min=0.0,
                        core_values=vec,
                        modal=[
                            np.zeros(0, dtype=complex) for _ in graph.tails
                        ],
                        uncertain=False,
                        singular=True,
                    )
                )
    out.sort(key=lambda st: st.lam)
    return out


# -- band scans -------------------------------------------------------------------


@dataclass
class ScanRow:
    lam: float
    counts: list[tuple[int, int, int]]
    critical: bool
    singular: bool
    result: ScatteringResult


@dataclass
class BandScan:
    graph: TailedGraph
    rows: list[ScanRow]
    criticals: list[CriticalPoint]
    depth: int

    def open_intervals(self) -> list[tuple[float, float]]:
        """Maximal grid intervals carrying at least one open channel."""
        spans = []
        start = None
        prev = None
        for row in self.rows:
            has = any(c[0] > 0 for c in row.counts) and not row.critical
            if has and start is None:
                start = row.lam
            if not has and start is not None:
                spans.append((start, prev))
                start = None
            prev = row.lam
        if start is not None:
            spans.append((start, prev))
        return spans

    def to_csv(self, path: str) -> None:
        import csv as _csv

        labels = []
        for row in self.rows:
            for (j1, i1) in row.result.channels:
                lab = f"{j1}c{i1}"
                if lab not in labels:
                    labels.append(lab)
        header = ["lambda", "s", "p", "q", "critical_flag", "singular_flag"]
        for a in labels:
            for b in labels:
                header += [f"S_re[{a}->{b}]", f"S_im[{a}->{b}]"]
        header += ["unitarity_residual", "symmetry_residual"]
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(header)
            for row in self.rows:
                def fmt_counts(ix):
                    vals = [c[ix] for c in row.counts]
                    return vals[0] if len(set(vals)) == 1 else "|".join(map(str, vals))

                rec = [
                    repr(row.lam),
                    fmt_counts(0),
                    fmt_counts(1),
                    fmt_counts(2),
                    int(row.critical),
                    int(row.singular),
                ]
                smap = {}
                if row.result.s_matrix is not None:
                    chan = [f"{j}c{i}" for j, i in row.result.channels]
                    for r, ra in enumerate(chan):
                        for c, cb in enumerate(chan):
                            smap[(cb, ra)] = row.result.s_matrix[r, c]
                for a in labels:
                    for b in labels:
                        x = smap.get((a, b))
                        rec += (
                            ["", ""]
                            if x is None
                            else [repr(float(np.real(x))), repr(float(np.imag(x)))]
                        )
                rec += [
                    "" if row.result.unitarity_residual is None
                    else repr(row.result.unitarity_residual),
                    "" if row.result.symmetry_residual is None
                    else repr(row.result.symmetry_residual),
                ]
                writer.writerow(rec)

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "rows": [r.result.to_json_dict() for r in self.rows],
            "critical_points": [cp.to_json_dict() for cp in self.criticals],
            "open_intervals": [list(iv) for iv in self.open_intervals()],
        }


def band_scan(
    graph: TailedGraph,
    lo: float,
    hi: float,
    samples: int = 101,
    *,
    depth: int | None = None,
) -> BandScan:
    """Classification plus scattering data on a regular grid.

    The recorded depth is ``depth`` when given, else the default
    max_j K_j of the exact reduction.
    """
    rows = []
    for lam in np.linspace(lo, hi, samples):
        res = scattering_matrix(graph, lam, depth)
        clfs = res.subspace.classifications
        rows.append(
            ScanRow(
                lam=float(lam),
                counts=[c.counts() for c in clfs],
                critical=any(c.critical for c in clfs),
                singular="singular" in res.flags or "kernel-dim-mismatch" in res.flags,
                result=res,
            )
        )
    return BandScan(
        graph=graph,
        rows=rows,
        criticals=_tail_critical_points(graph, lo, hi, samples),
        depth=graph.default_depth() if depth is None else depth,
    )


# -- serialization ------------------------------------------------------------------


def tailed_graph_to_json(graph: TailedGraph) -> dict:
    return {
        "core": {
            "vertices": [
                {"label": v, "dim": graph.core_dims[v]} for v in graph.core_order
            ],
            "blocks": [
                {"from": v, "to": u, "matrix": _matrix_to_json(m)}
                for (u, v), m in sorted(graph.core_blocks.items())
            ],
        },
        "tails": [
            {
                "operator": line_operator_to_json(t.op),
                "attach": [
                    {"vertex": v, "site": n, "matrix": _matrix_to_json(m)}
                    for (v, n), m in sorted(t.attach.items())
                ],
                "origin": t.origin,
            }
            for t in graph.tails
        ],
        "cross_links": [
            {"from": [j1, n1], "to": [j2, n2], "matrix": _matrix_to_json(m)}
            for (j1, n1), (j2, n2), m in graph.cross_links
        ],
    }


def tailed_graph_from_json(data: dict) -> TailedGraph:
    """Load a tailed graph; per-tail near-junction coefficient overrides
    ("decay" tables) are absorbed into the core so every stored tail is
    exactly periodic from site 0.

    Tail entries may carry "quotient"/"shift" covering provenance; it is
    validated for shape but only the asymptotic operator enters the
    dynamics.
    """
    core = data.get("core", {})
    core_dims = {}
    for v in core.get("vertices", []):
        if isinstance(v, dict):
            core_dims[int(v["label"])] = int(v.get("dim", 1))
        else:
            core_dims[int(v)] = 1
    core_blocks = {}
    for item in core.get("blocks", []):
        core_blocks[(int(item["to"]), int(item["from"]))] = np.asarray(
            item["matrix"], dtype=float
        )

    next_label = max(core_dims, default=-1) + 1
    tails = []
    shifts = []
    extra_blocks = {}
    for jt, item in enumerate(data.get("tails", [])):
        opdata = item.get("operator") or item.get("asymptotic_operator")
        if opdata is None:
            raise DomainError(f"tail {jt} lacks an operator table")
        op = line_operator_from_json(opdata)
        shift = item.get("shift", 1)
        if shift not in (1, None):
            raise DomainError(f"tail {jt} shift must be 1 (one period per step)")
        quotient = item.get("quotient")
        if quotient is not None and not isinstance(quotient, (dict, list)):
            raise DomainError(f"tail {jt} quotient metadata must be a table")
        attach = {
            (int(a["vertex"]), int(a["site"])): np.asarray(a["matrix"], dtype=float)
            for a in item.get("attach", [])
        }
        origin = int(item.get("origin", 0))

        overrides = {
            int(d["site"]): {
                int(s): np.asarray(m, dtype=float) for s, m in d["blocks"].items()
            }
            for d in item.get("decay", [])
        }
        cut = max(overrides, default=-1) + 1
        if cut:
            # absorb sites [0, cut) into the core as fresh vertices
            site_label = {}
            for n in range(cut):
                site_label[n] = next_label
                core_dims[next_label] = op.l
                next_label += 1

            def coeff(n: int, s: int) -> np.ndarray:
                if n in overrides and s in overrides[n]:
                    return overrides[n][s]
                tgt = n + s
                if tgt in overrides and -s in overrides[tgt]:
                    return overrides[tgt][-s].T
                return op.block(n, s)

            new_attach = {}
            for n in range(cut):
                for s in range(-op.k, op.k + 1):
                    m = n + s
                    if m < 0 or np.all(coeff(n, s) == 0):
                        continue
                    if m < cut:
                        extra_blocks[(site_label[n], site_label[m])] = coeff(n, s)
                    else:
                        new_attach[(site_label[n], m - cut)] = coeff(n, s)
            for (v, n), m in attach.items():
                if n < cut:
                    extra_blocks[(v, site_label[n])] = m
                    extra_blocks[(site_label[n], v)] = m.T
                else:
                    new_attach[(v, n - cut)] = m
            attach = new_attach
            origin += cut
            shifts.append(cut)
        else:
            shifts.append(0)
        tails.append(Tail(op=op, attach=attach, origin=origin))

    core_blocks.update(extra_blocks)
    cross = []
    for item in data.get("cross_links", []):
        (j1, n1), (j2, n2) = item["from"], item["to"]
        n1 -= shifts[j1]
        n2 -= shifts[j2]
        if n1 < 0 or n2 < 0:
            raise DomainError(
                "cross link lands inside an absorbed decay region; "
                "declare it as a core block instead"
            )
        cross.append(((int(j1), int(n1)), (int(j2), int(n2)),
                      np.asarray(item["matrix"], dtype=float)))
    return TailedGraph(core_dims, core_blocks, tails, cross)


def load_tailed_graph(path: str) -> TailedGraph:
    with open(path) as fh:
        return tailed_graph_from_json(json.load(fh))


def save_tailed_graph(graph: TailedGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tailed_graph_to_json(graph), fh, indent=1, sort_keys=True)
        fh.write("\n")
