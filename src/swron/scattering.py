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

The space of genuine solutions, coordinatized by the values on window
sites 0..2k_j-1 of each tail, has dimension N*k*l and is Lagrangian for
the direct sum of the tail pair forms; expressing it over the
incoming/outgoing channel coefficients after discarding the decaying part
yields the scattering matrix, which is unitary and symmetric.

The reduction is exact and depth-free: Bloch modes solve the tail
recurrence identically, and every attachment or cross link sits at a
site n < k_j, so on tail j only the equations at sites n < K_j = k_j
carry information (the ones that see the end of the half-line or a
coupling), and only those rows are assembled.  They reach the sites
0..2k_j-1, the one window each tail is read on: the pair form of two
solutions of the free recurrence is the same at every base, so the
Lagrangian residual and the in/out pairing defect read there are those
of any window further out.

Bound states are counted by inertia.  Where every tail is gapped, the
decaying-mode columns of tail j in the junction rows, multiplied on the
right by Y_lo^-1 (Y_lo: those modes' values on sites 0..k_j-1), give the
exact reduction of L - lambda onto the core and those sites, A = H_J -
lambda + sum_j C_j Y_hi Y_lo^-1, real symmetric with dA/dlambda <= -I.  By Sylvester's law of inertia and the
Haynsworth additivity of the Schur complement, the number nu of negative
eigenvalues of A rises by one at each bound state, with multiplicity, and
falls by one at each pole of Y_hi Y_lo^-1, a gap state of a half-tail alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby

import numpy as np

from .complex_core import DomainError, _read_json, _write_csv, _write_json
from .line_lattice import (
    LineOperator,
    _transfer_stack,
    line_operator_from_json,
    line_operator_to_json,
    swronskian_form,
)
from .operators import (
    KERNEL_REL_TOL,
    _as_block,
    _close_symmetric,
    _matrix_from_json,
    _matrix_to_json,
    _null_spaces,
)

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
A_LAMBDA = 1j  # fixed value of the in/out pair form


# -- monodromy classification --------------------------------------------------


@dataclass
class MonodromyClassification:
    """Eigenvalue bookkeeping of one transfer map.  Margins of the critical
    decision: ``min_gap`` is the smallest distance between two eigenvalues,
    ``unit_gap`` the smallest |mu -+ 1|; either below ``CRITICAL_GAP`` flags."""

    lam: complex
    kl: int
    s: int
    p: int
    q: int
    eigenvalues: np.ndarray
    critical: bool
    critical_reason: str | None
    pairing_defect: float
    min_gap: float
    unit_gap: float

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
    mus = np.linalg.eigvals(matrix.astype(complex))
    return _classify(mus[None], [complex("nan") if lam is None else lam], kl)[0]


def _classify(mus: np.ndarray, lams, kl: int) -> list[MonodromyClassification]:
    """(s, p, q) counts, critical flags and margins of the eigenvalue rows
    ``mus`` (S, 2kl), one row per transfer map of a lambda grid."""
    n = mus.shape[1]
    size = np.abs(mus)
    # each eigenvalue, its conjugate and its inverse (0 for mu = 0, which then
    # finds itself) against every eigenvalue of its row
    targets = np.concatenate((mus, mus.conj(), 1.0 / np.where(size > 0, mus, np.inf)), axis=1)
    dist = np.abs(targets[:, :, None] - mus[:, None, :])
    diag = np.arange(n)
    dist[:, diag, diag] = np.inf
    nearest = dist.min(axis=2)
    min_gap = nearest[:, :n].min(axis=1).tolist()
    # symmetry of each row under conjugation and inversion
    pairing = (nearest[:, n:] / np.maximum(1.0, np.abs(targets[:, n:]))).max(axis=1).tolist()
    unit_gap = np.minimum(np.abs(mus - 1), np.abs(mus + 1)).min(axis=1).tolist()
    unimod = np.abs(size - 1.0) <= UNIMODULAR_TOL
    realish = np.abs(mus.imag) <= UNIMODULAR_TOL * np.maximum(1.0, size)
    upper, outer = mus.imag > 0, ~unimod & (size > 1)
    s, p, q = np.array(
        [unimod & ~realish & upper, outer & ~realish & upper, outer & realish]
    ).sum(axis=2).tolist()
    out = []
    for i, lam in enumerate(lams):
        reason = None
        if min_gap[i] < CRITICAL_GAP:  # includes +-1 doublets and band-edge mergers
            reason = "eigenvalue-collision"
        elif unit_gap[i] < CRITICAL_GAP:
            reason = "unit-eigenvalue"
        elif pairing[i] > PAIRING_TOL:
            reason = "pairing-defect"
        elif s[i] + 2 * p[i] + q[i] != kl:
            reason = "identity-failure"
        out.append(MonodromyClassification(
            lam=complex(lam), kl=kl, s=s[i], p=p[i], q=q[i], eigenvalues=mus[i],
            critical=reason is not None, critical_reason=reason,
            pairing_defect=pairing[i], min_gap=min_gap[i], unit_gap=unit_gap[i],
        ))
    return out


def _classify_grid(op: LineOperator, lams) -> list[MonodromyClassification]:
    """classify_monodromy of the transfer map at every lambda of ``lams``:
    one eigvals call on the transfer stack."""
    mus = np.linalg.eigvals(_transfer_stack(op, lams)).astype(complex)
    return _classify(mus, lams, op.k * op.l)


def _grid(lo: float, hi: float, samples: int, least: int) -> np.ndarray:
    """The regular grid of a lambda scan, after checking its arguments."""
    if samples < least:
        raise DomainError(f"need at least {'two' if least == 2 else 'three'} grid samples")
    if not lo < hi:
        raise DomainError(f"a lambda grid needs lo < hi, got lo={lo} and hi={hi}")
    return np.linspace(lo, hi, samples)


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
    return _PATHS.get(delta) or _PATHS.get(tuple(-d for d in delta), (None, False))


def find_critical_points(
    op: LineOperator, lo: float, hi: float, samples: int = 101
) -> list[CriticalPoint]:
    """Where the channel counts (s, p, q) of a constant real operator change
    in [lo, hi], with the counts on each side and the path type.  The
    points come from the symbol, once per operator (``_symbol_criticals``),
    so they do not depend on ``samples``, which is checked as a grid size."""
    _grid(lo, hi, samples, 2)
    return [cp for cp in _symbol_criticals(op) if lo <= cp.lam <= hi]


def _tail_critical_points(graph, lo: float, hi: float) -> list[CriticalPoint]:
    """find_critical_points of every tail in order, one set per tail key."""
    first = {key: tail.op for key, tail in reversed(list(zip(graph._tail_keys, graph.tails)))}
    return [cp for key in graph._tail_keys for cp in _symbol_criticals(first[key])
            if lo <= cp.lam <= hi]


def _symbol_criticals(op: LineOperator) -> list[CriticalPoint]:
    """Every critical point of a constant real operator.  Counts change where
    two Bloch multipliers meet on the unit circle or the real axis: at a
    turn of an eigenvalue branch of the symbol S(mu) = sum_s B_s mu^s along
    * mu = e^(i theta), theta in [0, pi], where S is Hermitian with slopes
      v^H dS/dtheta v (Hellmann-Feynman), both ends included;
    * real mu = +-e^u, u in [log floor, 0] (S(1/mu) = S(mu)^T): the real
      eigenvalues nu / mu^k of mu^k S(mu), with slopes y^T mu dS/dmu x over
      left and right eigenvectors; below ``floor`` B_-k dominates.
    A branch keeps its rank among the real eigenvalues between folds, where
    a pair leaves the real axis; folds are bisected so both sides are
    sampled.  Slope sign changes are refined by ``_branch_turns``, and a
    candidate is kept where the counts at lambda -+ delta differ.  delta
    and the merge width are 1e-10 (max|B_s| + |lambda|).  The set is cached
    on the operator."""
    if op._criticals is not None:
        return op._criticals
    if not op.constant:
        raise DomainError("critical points need a constant operator")
    if not op.is_real():
        raise DomainError("critical points need real blocks: the symbol of a complex "
                          "operator is not Hermitian")
    _transfer_stack(op, [])  # checks the order and the leading block
    k, shifts = op.k, np.arange(-op.k, op.k + 1)
    blocks = np.array([op.block(0, s) for s in shifts], dtype=float)

    def circle(theta, _):
        phase = np.exp(1j * theta[:, None] * shifts)
        lam, vec = np.linalg.eigh(np.einsum("ts,sij->tij", phase, blocks))
        ds = np.einsum("ts,sij->tij", 1j * shifts * phase, blocks)
        return lam, np.einsum("tji,tjk,tki->ti", vec.conj(), ds, vec).real

    def axis(u, sign):
        mu = (sign * np.exp(u))[:, None]
        nu, vec = np.linalg.eig(np.einsum("ts,sij->tij", mu ** (shifts + k), blocks))
        ds = np.einsum("ts,sij->tij", shifts * mu ** (shifts + k), blocks)
        slope = np.einsum("tij,tjk,tki->ti", np.linalg.inv(vec), ds, vec).real / mu**k
        lam = np.where(nu.imag == 0, nu.real / mu**k, np.nan)
        order = np.argsort(lam, axis=1)  # real eigenvalues ascending, then NaN
        return np.take_along_axis(lam, order, 1), np.take_along_axis(slope, order, 1)

    # a turn needs |mu| above about sigma_min(B_-k) / sum_j (1 + j/k) |B_(j-k)|
    weight = np.sqrt(np.sum(blocks[1:] ** 2, axis=(1, 2))) * (1 + np.arange(1, 2 * k + 1) / k)
    floor = np.linalg.svd(blocks[0], compute_uv=False)[-1] / (4 * np.sum(weight))
    ends = 0.5 - 0.5 * np.cos(np.linspace(0, np.pi, 64))  # samples on [0, 1], dense at the ends
    found, sides = [], np.repeat([1.0, -1.0], len(ends))
    for curve, x, sign in ((circle, np.pi * ends, sides[: len(ends)]),
                           (axis, np.log(floor) * np.r_[ends, ends], sides)):
        lam, slope = curve(x, sign)
        real = np.sum(~np.isnan(lam), axis=1)
        p = np.flatnonzero(sign[:-1] == sign[1:])
        q, f = p + 1, p[real[p] != real[p + 1]]
        a, b = x[f], x[f + 1]
        while np.any(np.abs(b - a) > 3e-5):
            mid = 0.5 * (a + b)
            left = np.sum(~np.isnan(curve(mid, sign[f])[0]), axis=1) == real[f]
            a, b = np.where(left, mid, a), np.where(left, b, mid)
        if len(f):  # each fold step splits in two, at the sides of its fold
            more, new = curve(np.r_[a, b], sign[np.r_[f, f]]), len(x) + np.arange(len(f))
            p, q = np.r_[p, f, new + len(f)], np.r_[q, new, f + 1]
            x, sign = np.r_[x, a, b], np.r_[sign, sign[f], sign[f]]
            lam, slope = np.vstack((lam, more[0])), np.vstack((slope, more[1]))
            real = np.sum(~np.isnan(lam), axis=1)
        found.append(lam[(x == 0) | (x == np.pi)].ravel() if curve is circle else [])
        slope[(x == 0) | (x == np.pi)] = 0.0  # theta = 0, pi and mu = +-1: found above
        j, i = np.nonzero((real[p] == real[q])[:, None] & (slope[p] * slope[q] < 0))
        found.append(_branch_turns(curve, x[p[j]], x[q[j]], slope[p[j], i], slope[q[j], i],
                                   lam[p[j], i], sign[p[j]], i, real[p[j]]))
    cands = np.sort(np.concatenate(found))
    delta = 1e-10 * (np.max(np.abs(blocks)) + np.abs(cands))
    keep = np.r_[True, np.diff(cands) > delta[1:]] & ~np.isnan(cands)  # one per point
    cands, delta = cands[keep].tolist(), delta[keep]
    cls = _classify_grid(op, np.r_[cands - delta, cands + delta])
    counts = [(lam, c.counts(), d.counts()) for lam, c, d in zip(cands, cls, cls[len(cands):])]
    op._criticals = [CriticalPoint(lam, b, a, *_path_of(b, a)) for lam, b, a in counts if b != a]
    return op._criticals


def _branch_turns(curve, a, b, fa, fb, lam, sign, rank, real, width=1e-6):
    """The value at the turn inside [a, b] of each branch of ``curve``: the
    real eigenvalue of rank ``rank`` among ``real``, whose slope changes sign
    from fa to fb.  Batched Illinois steps on the slope stop where a step
    lands within ``width`` of the zero of the secant through it and the step
    before, taking the value there plus the area under the secant (exact to
    O(width^3)), or where a step finds another number of real eigenvalues."""
    ga, gb, moved = fa.copy(), fb.copy(), np.zeros(len(a))
    px, pf, live = np.full(len(a), np.nan), np.full(len(a), np.nan), np.ones(len(a), dtype=bool)
    for _ in range(60):
        if not (at := np.flatnonzero(live)).size:
            break
        x = (a[at] * gb[at] - b[at] * ga[at]) / (gb[at] - ga[at])
        lams, slopes = curve(x, sign[at])
        lx, fx = lams[np.arange(len(at)), rank[at]], slopes[np.arange(len(at)), rank[at]]
        ok = np.sum(~np.isnan(lams), axis=1) == real[at]
        lam[at[ok]], live[at[~ok]] = lx[ok], False
        at, x, lx, fx = at[ok], x[ok], lx[ok], fx[ok]
        turn = x - fx * (x - px[at]) / np.where(fx == pf[at], np.inf, fx - pf[at])  # flat: x
        done = np.abs(turn - x) <= width
        lam[at[done]], live[at[done]] = (lx + 0.5 * fx * (turn - x))[done], False
        px[at], pf[at], up = x, fx, np.sign(fx) == np.sign(fa[at])  # x replaces a, else b
        ia, ib = at[up], at[~up]
        gb[ia[moved[ia] > 0]] *= 0.5  # the same end moved twice: Illinois halving
        ga[ib[moved[ib] < 0]] *= 0.5
        a[ia], fa[ia], ga[ia], moved[ia] = x[up], fx[up], fx[up], 1
        b[ib], fb[ib], gb[ib], moved[ib] = x[~up], fx[~up], fx[~up], -1
    return lam


# -- Bloch modes ---------------------------------------------------------------


@dataclass
class Mode:
    """One Bloch solution mu^n w of a tail operator at fixed lambda.

    The fiber vector w has unit norm and its largest entry real and
    positive; this phase convention fixes the channel phases of a
    multi-channel S.  ``anchor`` rescales the stored vector so site values
    stay bounded on the window 0..2k-1: value(n) = w * mu**(n - anchor),
    with anchor 0 for decaying and channel modes and 2k - 1 for growing
    ones.  Channel modes carry the tail's phase reference and current
    normalization in ``w`` already (factor mu**origin / sqrt(current)).
    """

    mu: complex
    w: np.ndarray
    kind: str  # 'in' | 'out' | 'decay' | 'grow'
    anchor: int = 0

    def value(self, n: int) -> np.ndarray:
        return self.w * (self.mu ** (n - self.anchor))


def _site_values(modes: list[list[Mode]], k: int, l: int) -> np.ndarray:
    """(S, 2k, l, n) values on the window sites 0..2k-1 of S lists of n modes."""
    if not modes[0]:
        return np.zeros((len(modes), 2 * k, l, 0))
    mus = np.array([[m.mu for m in mset] for mset in modes])
    anchors = np.array([[m.anchor for m in mset] for mset in modes])
    fibers = np.array([[m.w for m in mset] for mset in modes]).transpose(0, 2, 1)
    powers = mus[:, None, :] ** (np.arange(2 * k)[:, None] - anchors[:, None, :])
    return fibers[:, None] * powers[:, :, None, :]


def _tail_grid(op: LineOperator, lams, origins, decay_only=False):
    """tail_modes at every lambda of ``lams`` and every phase origin of
    ``origins`` from one eig of the transfer stack: the classifications
    (None when ``decay_only``) and, per origin, the mode list of each lambda
    (its decaying modes only when ``decay_only``).  The eigenvector of mu
    has window blocks mu^p w, p = -k+1..k; ``w`` is read from the largest
    (p = k when |mu| >= 1, else p = -k+1)."""
    if not op.constant:
        raise DomainError("tail operators must be constant")
    k, l = op.k, op.l
    mus, vecs = np.linalg.eig(_transfer_stack(op, lams).astype(complex))
    clfs = None if decay_only else _classify(mus, lams, k * l)
    size = np.abs(mus)
    unimod = np.abs(size - 1.0) <= UNIMODULAR_TOL
    w = np.where((size >= 1)[:, None, :], vecs[:, -l:, :], vecs[:, :l, :])
    w = w * np.take_along_axis(w, np.abs(w).argmax(axis=1)[:, None, :], axis=1).conj()
    w = (w / np.sqrt(np.sum(w.real**2 + w.imag**2, axis=1, keepdims=True))).transpose(0, 2, 1)
    if not decay_only:
        # current Im(conj(x) SW x) of each unimodular mode's window x at m_pair = k - 1
        sw = swronskian_form(op, 0).matrix
        rise = np.where(unimod, mus, 0.0)[:, :, None] ** np.arange(2 * k)
        x = (rise[:, :, :, None] * w[:, :, None, :]).reshape(len(mus), 2 * k * l, 2 * k * l)
        tau = np.sum((x.conj() @ sw) * x, axis=2).imag.tolist()
        no_current = 1e-12 * float(np.max(np.abs(sw)))
    angles, sizes, rows = np.angle(mus).tolist(), size.tolist(), mus.tolist()
    orders = [sorted(range(len(r)), key=lambda j: (round(a[j], 12), z[j]))
              for r, a, z in zip(rows, angles, sizes)]
    grids = {origin: [] for origin in origins}
    for origin, grid in grids.items():
        for i, (row, order) in enumerate(zip(rows, orders)):
            modes: list[Mode] = []
            for j in order:
                mu = row[j]
                if not unimod[i, j]:
                    if sizes[i][j] < 1.0:
                        modes.append(Mode(mu, w[i, j], "decay"))
                    elif not decay_only:
                        modes.append(Mode(mu, w[i, j], "grow", anchor=2 * k - 1))
                elif decay_only or (mu.imag <= 0 and abs(mu.imag) > UNIMODULAR_TOL):
                    continue  # conjugate partner handled with its mate
                elif abs(tau[i][j]) < no_current:
                    clfs[i].critical = True
                    clfs[i].critical_reason = clfs[i].critical_reason or "zero-current-channel"
                else:
                    t, wj = tau[i][j], w[i, j]
                    if t < 0:
                        mu, wj, t = np.conj(mu), np.conj(wj), -t
                    w_out = wj * (mu ** origin) / math.sqrt(t)
                    modes.append(Mode(mu, w_out, "out"))
                    modes.append(Mode(np.conj(mu), np.conj(w_out), "in"))
            grid.append(modes)
    return clfs, grids


def tail_modes(
    op: LineOperator,
    lam: float,
    *,
    origin: int = 0,
) -> tuple[MonodromyClassification, list[Mode]]:
    """Classify the tail at lambda and build its full mode list.

    One eigendecomposition of the transfer map gives both: its eigenvalues
    are classified, and each eigenvector yields its mode's fiber vector.
    Channel (unimodular) modes are normalized so the bilinear pair form
    of (incoming, outgoing) is exactly i; the incoming fiber vector is
    the exact conjugate of the outgoing one.  Decaying and channel modes
    are anchored at site 0 and growing ones at 2k - 1, so every site value
    on the window 0..2k-1 is at most |w|; these are the modes
    ``asymptotic_subspace`` reads.
    """
    clfs, grids = _tail_grid(op, [lam], [origin])
    return clfs[0], grids[origin][0]


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


class TailedGraph:
    """Finite core plus periodic tails plus optional tail-tail links.

    Parameters
    ----------
    core_dims : dict label -> fiber dimension (may be empty).
    core_blocks : dict (u, v) -> matrix; symmetry closure is checked.
    tails : list of Tail.
    cross_links : list of ((j1, n1), (j2, n2), matrix) direct couplings
        between tail sites, matrix shaped (l_j1, l_j2).

    Every coupling is real: a block with a nonzero imaginary part raises
    DomainError naming it.
    """

    def __init__(self, core_dims, core_blocks, tails, cross_links=()):
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
            shape = (self.core_dims[u], self.core_dims[v])
            self.core_blocks[(u, v)] = _as_block(m, shape, f"core block ({u}, {v})", real=True)
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
                shape, what = (self.core_dims[v], tail.op.l), f"tail {j} attach block at ({v}, {n})"
                fixed[(v, n)] = _as_block(m, shape, what, real=True)
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
                ((j1, n1), (j2, n2), _as_block(m, shape, "cross link block", real=True))
            )

    @property
    def n_tails(self) -> int:
        return len(self.tails)

    def expected_dim(self) -> int:
        return sum(t.op.k * t.op.l for t in self.tails)

    @cached_property
    def _tail_keys(self) -> list[str]:
        """Content key (k, l and blocks) of each tail operator; tails with
        one key share their Bloch solves and critical-point sets."""
        return [json.dumps(line_operator_to_json(t.op), sort_keys=True) for t in self.tails]

    def core_matrix(self) -> np.ndarray:
        mat = np.zeros((self.core_size, self.core_size))
        for (u, v), m in self.core_blocks.items():
            r, c = self.core_offset[u], self.core_offset[v]
            mat[r : r + self.core_dims[u], c : c + self.core_dims[v]] = m
        return mat


# -- global solve ----------------------------------------------------------------


def _junction_grid(graph: TailedGraph, lams: np.ndarray, decay_only=False):
    """Per lambda of ``lams``, the classifications and modes of every tail
    (channel modes scaled by the tail origin; tails with one operator share
    one ``_tail_grid``), and the ``_assemble`` output as (indices, stack,
    offsets, windows), one stack per mode-count shape.  Decaying modes need
    no origin."""
    keys = graph._tail_keys
    origins = [0 if decay_only else t.origin for t in graph.tails]
    ops: dict = {}
    for key, tail, origin in zip(keys, graph.tails, origins):
        ops.setdefault(key, (tail.op, set()))[1].add(origin)
    solved = {key: _tail_grid(op, lams, sorted(ps), decay_only) for key, (op, ps) in ops.items()}
    at = range(len(lams))
    clfs = None if decay_only else [[solved[key][0][i] for key in keys] for i in at]
    modes = [[solved[key][1][origin][i] for key, origin in zip(keys, origins)] for i in at]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in at:
        groups.setdefault(tuple(len(m) for m in modes[i]), []).append(i)
    stacks = [
        (idx, *_assemble(graph, lams[idx], [modes[i] for i in idx]))
        for idx in groups.values()
    ]
    return clfs, modes, stacks


def _assemble(graph: TailedGraph, lams: np.ndarray, modes):
    """Equations over (core values, modal coefficients) at each of the S
    values ``lams``: every core row, and the first k_j site equations of
    tail j, the only ones that see the end of the half-line or a coupling
    (see the module docstring).  ``modes[i][j]`` is the mode list of tail j at
    lams[i]; every lambda has the same number of modes per tail.  The mode
    values are evaluated once, on the window sites 0..2k_j - 1 that the k_j
    rows reach.  Returns the (S, rows, columns) stack, the first modal
    column of each tail and its (S, 2kl, modes) mode windows, the reshape
    of those values."""
    nc = graph.core_size
    counts = [len(mset) for mset in modes[0]]
    mode_offset = list(accumulate(counts, initial=nc))
    row_offset = list(accumulate((t.op.k * t.op.l for t in graph.tails), initial=nc))
    a = np.zeros((len(lams), row_offset.pop(), mode_offset.pop()), dtype=complex)
    a[:, :nc, :nc] = graph.core_matrix() - lams[:, None, None] * np.eye(nc)

    # site values: values[j][:, n] is (S, l, modes) with one column per mode
    # of tail j, on the window sites 0..2k - 1
    values = [
        _site_values([mset[j] for mset in modes], t.op.k, t.op.l)
        for j, t in enumerate(graph.tails)
    ]
    windows = []

    def tail_rows(j: int, n: int) -> slice:
        lj = graph.tails[j].op.l
        return slice(row_offset[j] + n * lj, row_offset[j] + (n + 1) * lj)

    def mode_cols(j: int) -> slice:
        return slice(mode_offset[j], mode_offset[j] + counts[j])

    for j, tail in enumerate(graph.tails):
        op, vals = tail.op, values[j]
        windows.append(vals.reshape(len(lams), 2 * op.k * op.l, counts[j]))
        acc = -lams[:, None, None, None] * vals[:, : op.k]
        for s in range(-op.k, op.k + 1):
            lo = max(0, -s)  # the half-line has no sites below 0
            acc[:, lo:] += op.block(0, s) @ vals[:, lo + s : op.k + s]
        rs = slice(row_offset[j], row_offset[j] + op.k * op.l)
        a[:, rs, mode_cols(j)] = acc.reshape(len(lams), op.k * op.l, counts[j])
        for (v, n), m in tail.attach.items():
            c = slice(graph.core_offset[v], graph.core_offset[v] + graph.core_dims[v])
            a[:, c, mode_cols(j)] += m @ vals[:, n]
            a[:, tail_rows(j, n), c] += m.T

    for (j1, n1), (j2, n2), m in graph.cross_links:
        a[:, tail_rows(j1, n1), mode_cols(j2)] += m @ values[j2][:, n2]
        a[:, tail_rows(j2, n2), mode_cols(j1)] += m.T @ values[j1][:, n1]
    return a, mode_offset, windows


@dataclass
class AsymptoticSubspace:
    """Kernel of the junction problem in modal coordinates.  ``windows[j]`` holds
    the (2kl, modes) values of tail j's modes on its window sites 0..2k-1,
    one column per mode of ``modes[j]``."""

    lam: float
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


def asymptotic_subspace(graph: TailedGraph, lam: float) -> AsymptoticSubspace:
    """Solve the junction system over modal unknowns and report the
    solution space with its per-tail window data and Lagrangian defect.
    Tail j contributes its k_j informative rows.
    """
    return _subspaces(graph, np.array([float(lam)]))[0]


def _subspaces(graph: TailedGraph, lams) -> list[AsymptoticSubspace]:
    """asymptotic_subspace at every lambda of ``lams``: one Bloch solve per
    distinct tail, one assembly and one SVD per stack of equal shape."""
    clfs, modes, stacks = _junction_grid(graph, lams)
    out = [None] * len(lams)
    for idx, stack, mode_offset, windows in stacks:
        for t, (i, basis) in enumerate(zip(idx, _null_spaces(stack))):
            out[i] = _subspace(graph, float(lams[i]), clfs[i], modes[i], basis, mode_offset,
                               [x[t] for x in windows])
    return out


def _subspace(graph, lam, clfs, modes, basis, mode_offset, windows) -> AsymptoticSubspace:
    """asymptotic_subspace at lam from the tails' classifications, modes
    and mode windows and the null-space basis of the junction matrix."""
    flags = set()
    if any(c.critical for c in clfs):
        flags.add("critical")

    kernel, sing = basis
    dim = kernel.shape[1]
    expected = graph.expected_dim()
    if dim != expected:
        flags.add("kernel-dim-mismatch")

    nc = graph.core_size
    core_values = kernel[:nc, :]
    modal = [kernel[off : off + len(mset), :] for off, mset in zip(mode_offset, modes)]
    solutions = [x @ coef for x, coef in zip(windows, modal)]

    # normalize by asymptotic window norm, then measure the pair form
    norms = np.sqrt(sum(np.sum(np.abs(w) ** 2, axis=0) for w in solutions))
    safe = np.where(norms > 1e-12, norms, 1.0)
    if np.any(norms <= 1e-12):
        flags.add("window-degenerate")
    pairing = np.zeros((dim, dim), dtype=complex)
    for tail, sol in zip(graph.tails, solutions):
        wj = sol / safe
        pairing += wj.T @ swronskian_form(tail.op, 0).matrix @ wj
    residual = float(np.max(np.abs(pairing))) if dim else 0.0

    return AsymptoticSubspace(
        lam, dim, expected, core_values, modal, windows, clfs, modes, residual, sing, flags,
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


def scattering_matrix(graph: TailedGraph, lam: float) -> ScatteringResult:
    """Channel map from incoming unit amplitudes to outgoing amplitudes
    after quotienting by the decaying directions.

    Critical or singular points withhold the matrix and set flags rather
    than returning unreliable numbers.
    """
    return _scatter(graph, asymptotic_subspace(graph, lam))


def _scatter(graph: TailedGraph, sub: AsymptoticSubspace) -> ScatteringResult:
    """scattering_matrix from the asymptotic subspace at its lambda."""
    lam, flags = sub.lam, set(sub.flags)
    per_tail = [sum(m.kind == "out" for m in mset) for mset in sub.modes]
    channels = [(j, i) for j, n in enumerate(per_tail) for i in range(n)]
    nch = len(channels)
    if nch == 0:
        flags.add("no-channels")
        return ScatteringResult(lam, [], None, None, None, None, sub, flags)
    if "critical" in flags or "kernel-dim-mismatch" in flags:
        return ScatteringResult(lam, channels, None, None, None, None, sub, flags)

    # the growing and incoming rows form a square system M over the kernel
    # (n_grow + n_ch = sum k_j l_j = dim): S = K_out M^-1 [0; I]
    kinds = np.array([mode.kind for mset in sub.modes for mode in mset])
    coef = np.vstack(sub.modal)
    m = np.vstack([coef[kinds == "grow"], coef[kinds == "in"]])
    u, sing, vh = np.linalg.svd(m)
    if m.shape != (sub.dim, sub.dim) or sing[-1] * 1e10 <= sing[0]:  # cond(M) >= 1e10
        flags.add("singular")
        return ScatteringResult(lam, channels, None, None, None, None, sub, flags)
    s = coef[kinds == "out"] @ (vh.conj().T / sing) @ u[-nch:].conj().T

    unit = float(np.max(np.abs(s @ s.conj().T - np.eye(nch))))
    symm = float(np.max(np.abs(s - s.T)))

    # diagnostic: the in/out pair normalization across channels
    defect = 0.0
    for tail, mset, x, n in zip(graph.tails, sub.modes, sub.windows, per_tail):
        if n:
            kind = np.array([mode.kind for mode in mset])
            pair = x[:, kind == "in"].T @ swronskian_form(tail.op, 0).matrix @ x[:, kind == "out"]
            defect = max(defect, float(np.max(np.abs(pair - A_LAMBDA * np.eye(n)))))
    return ScatteringResult(lam, channels, s, unit, symm, defect, sub, flags)


# -- discrete spectrum -----------------------------------------------------------


@dataclass
class BoundState:
    lam: float
    sigma_min: float
    core_values: np.ndarray
    modal: list[np.ndarray]
    uncertain: bool
    singular: bool = False


def _junction_eigs(graph: TailedGraph, lams):
    """Eigenvalues, ascending, and eigenvectors of the junction Schur
    complement A(lambda) (see the module docstring) at every lambda of
    ``lams``, NaN where some tail has an open channel, and the eigenvectors
    over (core values, decaying-mode coefficients)."""
    kls = [t.op.k * t.op.l for t in graph.tails]
    size = graph.core_size + sum(kls)
    vals, vecs = np.full((len(lams), size), np.nan), np.full((len(lams), size, size), np.nan)
    coefs = np.full((len(lams), size, size), np.nan, dtype=complex)
    for idx, stack, offsets, windows in _junction_grid(graph, lams, decay_only=True)[2]:
        if any(x.shape[2] != kl for x, kl in zip(windows, kls)):
            continue  # an open channel
        ylo = [x[:, :kl] for x, kl in zip(windows, kls)]  # values on sites 0..k-1
        for off, y in zip(offsets, ylo):
            cols = stack[:, :, off : off + y.shape[2]]
            cols[:] = np.linalg.solve(y.swapaxes(1, 2), cols.swapaxes(1, 2)).swapaxes(1, 2)
        vals[idx], vecs[idx] = np.linalg.eigh(0.5 * (stack.real + stack.real.swapaxes(1, 2)))
        coefs[idx] = vecs[idx]
        for off, y in zip(offsets, ylo):
            coefs[idx, off : off + y.shape[2]] = np.linalg.solve(y, vecs[idx, off : off + y.shape[2]])
    return vals, vecs, coefs


def regular_discrete_spectrum(
    graph: TailedGraph,
    lo: float,
    hi: float,
    samples: int = 201,
) -> list[BoundState]:
    """Bound states in [lo, hi] by the inertia of A (module docstring).  nu is
    read on the grid and just inside every tail critical point; a rise of r
    between adjacent gapped samples, no critical point between them, is r
    states, the zeros of eigenvalues nu .. nu + r - 1, refined together by
    Illinois steps.  States within one grid step of a critical point are
    uncertain; states that vanish on every tail are ``singular``."""
    grid = _grid(lo, hi, samples, 3)
    step = (hi - lo) / (samples - 1)
    criticals = np.array(sorted(cp.lam for cp in _tail_critical_points(graph, lo, hi)))
    inside = 16 * np.maximum(1e-8, 4 * np.spacing(np.abs(criticals)))  # just inside each side
    pts = np.unique(np.clip(np.concatenate((grid, criticals - inside, criticals + inside)), lo, hi))
    vals = _junction_eigs(graph, pts)[0]
    nu = np.sum(vals < 0, axis=1)
    gapped = ~np.isnan(vals).any(axis=1)
    same = np.searchsorted(criticals, pts[:-1]) == np.searchsorted(criticals, pts[1:])
    rise = np.where(gapped[:-1] & gapped[1:] & same, np.diff(nu), 0)
    at = np.repeat(np.arange(len(rise)), np.maximum(rise, 0))
    index = nu[at] + np.arange(len(at)) - np.searchsorted(at, at)  # state m of a rise from nu
    a, b, fa, fb = pts[at], pts[at + 1], vals[at, index], vals[at + 1, index]
    ga, gb, moved = fa.copy(), fb.copy(), np.zeros(len(at))  # Illinois weights, last end moved
    while True:
        # every eigenvalue falls at rate >= 1, so f at x bounds its zero within |f| of x
        left, right = np.maximum(a, b + fb), np.minimum(b, a + fa)
        stop = np.maximum(1e-11, 4 * np.spacing(np.abs(left) + np.abs(right)))  # >= 4 ulps
        if not np.any(live := right - left > stop):
            break
        x = np.clip((a * gb - b * ga) / (gb - ga), left, right)
        fx = np.full(len(x), np.nan)
        fx[live] = _junction_eigs(graph, x[live])[0][np.arange(live.sum()), index[live]]
        up, down = live & (fx >= 0), live & (fx < 0)
        ga, gb = np.where(down & (moved < 0), 0.5 * ga, ga), np.where(up & (moved > 0), 0.5 * gb, gb)
        a, fa, ga = np.where(up, x, a), np.where(up, fx, fa), np.where(up, fx, ga)
        b, fb, gb = np.where(down, x, b), np.where(down, fx, fb), np.where(down, fx, gb)
        fa[live & np.isnan(fx)] = np.nan  # a step into a band the grid missed: dropped
        moved = np.where(up, 1, np.where(down, -1, moved))

    out: list[BoundState] = []
    zeros = 0.5 * (left + right)
    index, zeros, nc = index[~np.isnan(zeros)], zeros[~np.isnan(zeros)], graph.core_size
    cuts = np.cumsum([t.op.k * t.op.l for t in graph.tails])[:-1]  # one modal block per tail
    for lam, i, ev, vec, coef in zip(zeros, index, *_junction_eigs(graph, zeros)):
        if not np.any(np.abs(vec[nc:, i]) > KERNEL_REL_TOL):
            continue  # no tail values: a singular state, reported below
        modal = np.split(coef[nc:, i], cuts)
        uncertain = any(abs(lam - c) < step for c in criticals)
        sig = abs(ev[i]) / (np.max(np.abs(ev)) or 1.0)
        out.append(BoundState(float(lam), float(sig), vec[:nc, i], modal, uncertain))

    # singular eigenfunctions: zero on all tails, supported on the core; each
    # cluster of equal core eigenvalues contributes the null space, over its
    # eigenvectors, of the attach rows summed per tail site
    if graph.core_size:
        cmat = graph.core_matrix()
        evals, evecs = np.linalg.eigh(cmat)
        attach = [m for tail in graph.tails for m in tail.attach.values()]
        tol = 1e-10 * max(float(np.max(np.abs(m))) for m in [cmat, *attach])
        for cluster in np.split(np.arange(len(evals)), np.flatnonzero(np.diff(evals) > tol) + 1):
            lam_e = float(np.mean(evals[cluster]))
            if not (lo <= lam_e <= hi):
                continue
            vecs = evecs[:, cluster]
            hits: dict = {}  # (tail, site) -> sum of its attach rows applied to vecs
            for j, tail in enumerate(graph.tails):
                for (v, n), m in tail.attach.items():
                    at = slice(graph.core_offset[v], graph.core_offset[v] + graph.core_dims[v])
                    hits[j, n] = hits.get((j, n), 0) + m.T @ vecs[at]
            _, sing, vt = np.linalg.svd(np.vstack([*hits.values(), np.zeros((len(cluster),) * 2)]))
            modal = [np.zeros(0, dtype=complex) for _ in graph.tails]
            for null in vt[np.sum(sing > tol) :]:
                out.append(BoundState(lam_e, 0.0, vecs @ null, modal, False, singular=True))
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

    def open_intervals(self) -> list[tuple[float, float]]:
        """Maximal grid intervals carrying at least one open channel."""
        runs = groupby(self.rows, lambda row: any(c[0] for c in row.counts) and not row.critical)
        return [(run[0].lam, run[-1].lam) for run in (list(g) for is_open, g in runs if is_open)]

    def to_csv(self, path: str) -> None:
        labels = list(dict.fromkeys(c for row in self.rows for c in row.result.channels))
        names = [f"{j}c{i}" for j, i in labels]
        header = ["lambda", "s", "p", "q", "critical_flag", "singular_flag"]
        header += [f"S_{part}[{a}->{b}]" for a in names for b in names for part in ("re", "im")]
        header += ["unitarity_residual", "symmetry_residual"]
        table = [header]
        for row in self.rows:
            res = row.result
            rec = [repr(row.lam)]
            for ix in range(3):
                vals = [c[ix] for c in row.counts]
                rec.append(vals[0] if len(set(vals)) == 1 else "|".join(map(str, vals)))
            rec += [int(row.critical), int(row.singular)]
            # S[b, a] sends channel a to channel b; absent channels leave empty cells
            pos = {} if res.s_matrix is None else {c: i for i, c in enumerate(res.channels)}
            for a in labels:
                for b in labels:
                    if a in pos and b in pos:
                        x = res.s_matrix[pos[b], pos[a]]
                        rec += [repr(float(np.real(x))), repr(float(np.imag(x)))]
                    else:
                        rec += ["", ""]
            rec += ["" if r is None else repr(r) for r in (res.unitarity_residual, res.symmetry_residual)]
            table.append(rec)
        _write_csv(path, table)

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.result.to_json_dict() for r in self.rows],
            "critical_points": [cp.to_json_dict() for cp in self.criticals],
            "open_intervals": [list(iv) for iv in self.open_intervals()],
        }


def band_scan(
    graph: TailedGraph,
    lo: float,
    hi: float,
    samples: int = 101,
) -> BandScan:
    """Classification plus scattering data on a regular grid."""
    grid = _grid(lo, hi, samples, 2)
    subs = _subspaces(graph, grid)
    rows = []
    for sub in subs:
        res = _scatter(graph, sub)
        clfs = sub.classifications
        singular = "singular" in res.flags or "kernel-dim-mismatch" in res.flags
        counts = [c.counts() for c in clfs]
        rows.append(ScanRow(sub.lam, counts, any(c.critical for c in clfs), singular, res))
    return BandScan(graph, rows, _tail_critical_points(graph, lo, hi))


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
    exactly periodic from site 0.  A "decay" row overrides shifts
    |s| <= k at one site, closed by symmetry like ``LineOperator`` site
    blocks.

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
        core_blocks[(int(item["to"]), int(item["from"]))] = _matrix_from_json(item["matrix"])

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
            (int(a["vertex"]), int(a["site"])): _matrix_from_json(a["matrix"])
            for a in item.get("attach", [])
        }
        origin = int(item.get("origin", 0))

        overrides = {}
        for d in item.get("decay", []):
            n = int(d["site"])
            if n < 0 or n in overrides:
                why = "is negative" if n < 0 else "appears twice"
                raise DomainError(f'tail {jt} "decay" table: site {n} {why}')
            overrides[n] = {int(s): _matrix_from_json(m) for s, m in d["blocks"].items()}
        cut = max(overrides, default=-1) + 1
        if cut:
            # absorb sites [0, cut) into the core as fresh vertices
            site_label = {}
            for n in range(cut):
                site_label[n] = next_label
                core_dims[next_label] = op.l
                next_label += 1

            try:
                coeff = LineOperator(op.k, op.l, op._base, overrides).block
            except DomainError as err:
                raise DomainError(f'tail {jt} "decay" table: {err}') from None
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
        for j in (j1, j2):
            if not 0 <= j < len(tails):
                raise DomainError(f"cross link uses unknown tail {j}")
        n1 -= shifts[j1]
        n2 -= shifts[j2]
        if n1 < 0 or n2 < 0:
            raise DomainError(
                "cross link lands inside an absorbed decay region; "
                "declare it as a core block instead"
            )
        cross.append(((int(j1), int(n1)), (int(j2), int(n2)),
                      _matrix_from_json(item["matrix"])))
    return TailedGraph(core_dims, core_blocks, tails, cross)


def load_tailed_graph(path: str) -> TailedGraph:
    return tailed_graph_from_json(_read_json(path))


def save_tailed_graph(graph: TailedGraph, path: str) -> None:
    _write_json(tailed_graph_to_json(graph), path)
