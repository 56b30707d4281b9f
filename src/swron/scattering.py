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

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, groupby
from typing import NamedTuple

import numpy as np

from .complex_core import DomainError, _dimension, _distinct, _read_json, _write_csv, _write_json
from .line_lattice import (  # classification and critical points live with the transfer maps
    UNIMODULAR_TOL, CriticalPoint, LineOperator, MonodromyClassification, _classify, _grid,
    _finite, _moduli, _symbol_criticals, _transfer_parts, classify_monodromy, find_critical_points,
    line_operator_from_json, line_operator_to_json, swronskian_form,
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
    "ModeTable",
    "GROW",
    "IN",
    "OUT",
    "DECAY",
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

A_LAMBDA = 1j  # fixed value of the in/out pair form


def _tail_critical_points(graph, lo: float, hi: float) -> list[CriticalPoint]:
    """find_critical_points of every tail in order: one search per tail shape (``_solves``)."""
    solves, where = graph._solves
    sets = [_symbol_criticals(solve.ops) for solve in solves]
    return [cp for a, g, _ in where for cp in sets[a][g] if lo <= cp.lam <= hi]


# -- Bloch modes ---------------------------------------------------------------


# mode kind codes, in the row order of the square grow/in system of S
GROW, IN, OUT, DECAY = range(4)


class ModeTable(NamedTuple):
    """Bloch modes of a tail of order ``k`` as arrays: multipliers ``mu``
    (n,), fiber vectors ``w`` (n, l) and int8 ``kind`` codes (n,), one of
    GROW, IN, OUT, DECAY; internal stacks carry leading lambda axes.

    A GROW mode is anchored at site 2k - 1 and every other mode at 0: the
    value of a mode at site n is w * mu**(n - anchor), at most |w| on the
    window 0..2k-1.  ``w`` has unit norm and its largest entry real and
    positive, a phase convention that fixes the channel phases of a
    multi-channel S; channel (IN, OUT) modes carry the tail's phase origin
    and current normalization in ``w`` already (factor mu**origin /
    sqrt(current))."""

    mu: np.ndarray
    w: np.ndarray
    kind: np.ndarray
    k: int

    @property
    def anchor(self) -> np.ndarray:
        return np.array([2 * self.k - 1, 0, 0, 0])[self.kind]  # by kind code, GROW first

    def take(self, at) -> "ModeTable":
        return ModeTable(self.mu[at], self.w[at], self.kind[at], self.k)

    def rows(self, first: int, last: int, count: int) -> "ModeTable":
        """The entries first..last-1 of a flat table as ``count`` rows of equal length."""
        return ModeTable(*(a[first:last].reshape(count, -1, *a.shape[1:]) for a in self[:3]), self.k)


def _site_values(modes: ModeTable) -> np.ndarray:
    """(S, 2k, l, n) values on the window sites 0..2k-1 of a (S, n) table."""
    powers = modes.mu[:, None, :] ** (np.arange(2 * modes.k)[:, None] - modes.anchor[:, None, :])
    return modes.w.transpose(0, 2, 1)[:, None] * powers[:, :, None, :]


class _Solve(NamedTuple):
    """The lambda-free part of one stacked Bloch solve (``_tail_grid``):
    distinct tail operators of one shape (k, l), the parts (T0, E) of their
    transfer maps (``_transfer_parts``) and their pair forms at m = 0, each
    a (G, 1, 2kl, 2kl) stack, their zero-current thresholds (G, 1, 1) and
    the phase origins their tables are needed at."""

    ops: list[LineOperator]
    t0: np.ndarray
    e: np.ndarray
    forms: np.ndarray
    no_current: np.ndarray
    origins: list[int]


def _solve(ops: list[LineOperator], origins) -> _Solve:
    if not all(op.constant for op in ops):
        raise DomainError("tail operators must be constant")
    t0, e = (np.array(part, dtype=complex)[:, None] for part in zip(*map(_transfer_parts, ops)))
    forms = np.array([swronskian_form(op, 0).matrix for op in ops])[:, None]
    return _Solve(ops, t0, e, forms, 1e-12 * np.abs(forms).max(axis=(2, 3), keepdims=True)[:, 0], sorted(origins))


def _tail_grid(solve: _Solve, lams, decay_only=False):
    """tail_modes of every operator of ``solve`` at every lambda of ``lams``
    and every phase origin of ``solve`` from one eig of the (G, S) transfer
    stack, one row per operator and lambda, operator-major: the rows'
    classifications (None when ``decay_only``), per origin one flat
    ``ModeTable`` of each row's modes in turn (the decaying ones at origin 0
    when ``decay_only``), and the list of where each row's modes start.  A
    Python loop per row orders the modes, emits their kind codes and indices
    among the eigenvalues and their conjugates, and notes the rows with a
    zero-current channel; one gather per origin builds the table.  The
    eigenvector of mu has window blocks mu^p w, p = -k+1..k; ``w`` is read
    from the largest (p = k when |mu| >= 1, else p = -k+1)."""
    ops, count = solve.ops, len(lams)
    k, l, n = ops[0].k, ops[0].l, 2 * ops[0].k * ops[0].l
    mus, vecs = np.linalg.eig((solve.t0 + lams[:, None, None] * solve.e).reshape(-1, n, n))
    size, unimod = _moduli(mus)
    # one (l,) fiber vector per mode, its largest entry made real and positive, of unit norm
    w = np.where((size >= 1)[:, None, :], vecs[:, -l:, :], vecs[:, :l, :]).transpose(0, 2, 1).reshape(-1, l)
    w = w * w[np.arange(len(w)), np.abs(w).argmax(axis=1)].conj()[:, None]
    w = w / np.sqrt((w.real**2 + w.imag**2).sum(axis=1, keepdims=True))
    if not decay_only:
        # current Im(conj(x) SW x) of each unimodular mode's window x at m_pair = k - 1
        rise = np.where(unimod, mus, 0.0).reshape(-1, 1, 1) ** np.arange(2 * k)[:, None]
        x = (rise * w[:, None, :]).reshape(len(ops), count, n, n)
        tau = ((x.conj() @ solve.forms) * x).sum(axis=3).imag
        flow = np.abs(tau)
        live = (flow >= solve.no_current).reshape(mus.shape) & unimod
        taus, lives = tau.reshape(mus.shape).tolist(), live.tolist()
    src, kinds, starts, dead = [], [], [0], set()  # dead: rows with a zero-current channel
    conj = mus.size  # where the conjugates start in the gather below
    for i, (row, angles, sizes, unit) in enumerate(
            zip(mus.tolist(), np.arctan2(mus.imag, mus.real).tolist(), size.tolist(), unimod.tolist())):
        for _, modulus, j in sorted(zip([round(a, 12) for a in angles], sizes, range(n))):
            if not unit[j]:
                if modulus < 1.0 or not decay_only:
                    src.append(i * n + j)
                    kinds.append(DECAY if modulus < 1.0 else GROW)
            elif decay_only or (row[j].imag <= 0 and abs(row[j].imag) > UNIMODULAR_TOL):
                continue  # conjugate partner handled with its mate
            elif not lives[i][j]:
                dead.add(i)
            else:  # the outgoing mode has positive current; its conjugate comes in
                src += [i * n + j, i * n + j + conj][:: 1 if taus[i][j] > 0 else -1]
                kinds += [OUT, IN]
        starts.append(len(src))
    clfs = None if decay_only else _classify(mus, list(lams) * len(ops), k * l, size, unimod, dead)
    src, kind = np.array(src, dtype=np.intp), np.array(kinds, dtype=np.int8)
    mu = np.concatenate((mus, mus.conj())).reshape(-1)[src]
    if not decay_only:  # channel modes: the origin's phase and 1/sqrt(current)
        base = np.where(live, mus, 1.0).reshape(-1, 1)
        current = np.sqrt(np.where(live, flow.reshape(mus.shape), 1.0)).reshape(-1, 1)
    tables = {}
    for origin in [0] if decay_only else solve.origins:
        f = w if decay_only else w * base**origin / current
        tables[origin] = ModeTable(mu, np.concatenate((f, f.conj()))[src], kind, k)
    return clfs, tables, starts


def tail_modes(
    op: LineOperator,
    lam: float,
    *,
    origin: int = 0,
) -> tuple[MonodromyClassification, ModeTable]:
    """Classify the tail at lambda and build its table of modes.

    One eigendecomposition of the transfer map gives both: its eigenvalues
    are classified, and each eigenvector yields its mode's fiber vector.
    Channel (unimodular) modes are normalized so the bilinear pair form
    of (incoming, outgoing) is exactly i; the incoming fiber vector is
    the exact conjugate of the outgoing one.  These are the modes, in the
    frame of ``ModeTable``, that ``asymptotic_subspace`` reads.
    """
    origin = _dimension(origin, None, "origin {d}", least=-math.inf)
    clfs, tables, _ = _tail_grid(_solve([op], [origin]), np.array([_finite(lam)]))
    return clfs[0], tables[origin]


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
    tails : list of Tail; the graph keeps validated copies.
    cross_links : list of ((j1, n1), (j2, n2), matrix) direct couplings
        between tail sites, matrix shaped (l_j1, l_j2), at most one per
        pair of sites.

    Every coupling is real: a block with a nonzero imaginary part raises
    DomainError naming it.
    """

    def __init__(self, core_dims, core_blocks, tails, cross_links=()):
        self.core_dims = {int(v): _dimension(d, v, "core vertex {v} has dimension {d}")
                          for v, d in core_dims.items()}
        self.core_order = sorted(self.core_dims)
        offsets = list(accumulate((self.core_dims[v] for v in self.core_order), initial=0))
        self.core_offset, self.core_size = dict(zip(self.core_order, offsets)), offsets[-1]

        self.core_blocks = {}
        for (u, v), m in core_blocks.items():
            u, v = int(u), int(v)
            for x in (u, v):
                if x not in self.core_dims:
                    raise DomainError(f"core block uses unknown vertex {x}")
            shape = (self.core_dims[u], self.core_dims[v])
            self.core_blocks[(u, v)] = _as_block(m, shape, f"core block ({u}, {v})", real=True)
        _close_symmetric(self.core_blocks, lambda uv: uv[::-1])

        self.tails = []
        for j, tail in enumerate(tails):
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
            origin = _dimension(tail.origin, j, "tail {v} has origin {d}", least=-math.inf)
            self.tails.append(replace(tail, attach=fixed, origin=origin))

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
            if any({a, b} == {(j1, n1), (j2, n2)} for a, b, _ in self.cross_links):
                raise DomainError(f"cross link between tail sites {(j1, n1)} and {(j2, n2)} appears twice")
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
    def _solves(self):
        """The lambda-free part of the Bloch solves: the distinct tail
        operators, keyed by (k, l, bytes of the (2k+1, l, l) shift blocks),
        grouped by shape (k, l) into one ``_Solve`` each, and per tail (its
        solve, its operator's row in that solve, its phase origin)."""
        keys = [(t.op.k, t.op.l, np.array([t.op.block(0, s) for s in range(-t.op.k, t.op.k + 1)]).tobytes())
                for t in self.tails]
        shapes: dict = {}  # (k, l) -> {key: (op, origins)}
        for key, tail in zip(keys, self.tails):
            ops = shapes.setdefault(key[:2], {})
            ops.setdefault(key, (tail.op, set()))[1].add(tail.origin)
        solves, row = [], {}
        for a, ops in enumerate(shapes.values()):
            row.update((key, (a, g)) for g, key in enumerate(ops))
            solves.append(_solve([op for op, _ in ops.values()], set().union(*(o for _, o in ops.values()))))
        return solves, [(*row[key], tail.origin) for key, tail in zip(keys, self.tails)]

    @cached_property
    def _plan(self):
        """The junction rows (see the module docstring) apart from lambda,
        over (core values, window values): A(lambda) = (junction - lambda
        select) diag(I, W), W the mode values on the stacked windows of every
        tail, which start at rows ``wins`` of W; ``form`` is the direct sum of
        the tail pair forms on W.  Returns (junction, select, form, wins)."""
        nc, kls = self.core_size, [t.op.k * t.op.l for t in self.tails]
        rows, wins = list(accumulate(kls, initial=nc)), list(accumulate((2 * kl for kl in kls), initial=0))
        junction, select = np.zeros((2, rows[-1], nc + wins[-1]))
        junction[:nc, :nc], select[:nc, :nc] = self.core_matrix(), np.eye(nc)
        cols, form = [nc + w for w in wins], np.zeros((wins[-1], wins[-1]), dtype=complex)

        def site(j: int, n: int, base) -> slice:
            l = self.tails[j].op.l
            return slice(base[j] + n * l, base[j] + (n + 1) * l)

        for j, (tail, kl) in enumerate(zip(self.tails, kls)):
            op = tail.op
            form[wins[j] : wins[j + 1], wins[j] : wins[j + 1]] = swronskian_form(op, 0).matrix
            select[rows[j] : rows[j + 1], cols[j] : cols[j] + kl] = np.eye(kl)
            for n in range(op.k):
                for s in range(max(-op.k, -n), op.k + 1):  # the half-line has no sites below 0
                    junction[site(j, n, rows), site(j, n + s, cols)] = op.block(0, s)
            for (v, n), m in tail.attach.items():
                c = slice(self.core_offset[v], self.core_offset[v] + self.core_dims[v])
                junction[c, site(j, n, cols)] += m
                junction[site(j, n, rows), c] += m.T
        for (j1, n1), (j2, n2), m in self.cross_links:
            junction[site(j1, n1, rows), site(j2, n2, cols)] += m
            junction[site(j2, n2, rows), site(j1, n1, cols)] += m.T
        return junction, select, form, wins

    def core_matrix(self) -> np.ndarray:
        mat = np.zeros((self.core_size, self.core_size))
        for (u, v), m in self.core_blocks.items():
            r, c = self.core_offset[u], self.core_offset[v]
            mat[r : r + self.core_dims[u], c : c + self.core_dims[v]] = m
        return mat


# -- global solve ----------------------------------------------------------------


def _junction_grid(graph: TailedGraph, lams: np.ndarray, decay_only=False):
    """Per lambda of ``lams``, the classifications of every tail (None when
    ``decay_only``), and per run of consecutive lambdas with equal mode
    counts a stack: its slice of ``lams``, the ``_assemble`` output there and
    each tail's (S, n_j) ``ModeTable``, a view of that tail's flat table.
    There is one ``_tail_grid`` per shape (k, l) of the graph's tail
    operators (``TailedGraph._solves``); each tail reads its operator's rows
    of that solve at its origin; decaying modes need no origin.  Tails with
    one operator and origin (any origin if ``decay_only``) share one view."""
    solves, where = graph._solves
    solved = [_tail_grid(solve, lams, decay_only) for solve in solves]
    count, where = len(lams), [(a, g, 0 if decay_only else origin) for a, g, origin in where]
    clfs = None if decay_only else [[solved[a][0][g * count + i] for a, g, _ in where] for i in range(count)]
    tables = {(a, g, o): (solved[a][1][o], solved[a][2][g * count : (g + 1) * count + 1]) for a, g, o in where}
    stacks, end = [], 0
    for _, run in groupby(zip(*([b - a for a, b in zip(s, s[1:])] for _, s in tables.values()))):
        at = slice(end, end := end + len(list(run)))
        views = {key: table.rows(first[at.start], first[end], end - at.start) for key, (table, first) in tables.items()}
        modes = [views[key] for key in where]
        stacks.append((at, *_assemble(graph, lams[at], modes), modes))
    return clfs, stacks


def _assemble(graph: TailedGraph, lams: np.ndarray, modes: list[ModeTable]):
    """The (S, rows, columns) junction matrices over (core values, modal
    coefficients) at the S values ``lams``, from the graph's junction plan,
    and the mode values they read: the block-diagonal (S, sum 2kl, modes)
    values of the modes of every tail j on its window sites 0..2k_j - 1,
    evaluated once per table object from its (S, n_j) table ``modes[j]``."""
    junction, select, _, wins = graph._plan
    cols, nc = list(accumulate((m.kind.shape[1] for m in modes), initial=0)), graph.core_size
    window = np.zeros((len(lams), wins[-1], cols[-1]), dtype=complex)
    values = {key: _site_values(m) for key, m in {id(m): m for m in modes}.items()}
    for w0, w1, c0, c1, m in zip(wins, wins[1:], cols, cols[1:], modes):
        window[:, w0:w1, c0:c1] = values[id(m)].reshape(len(lams), w1 - w0, c1 - c0)
    shifted = junction - lams[:, None, None] * select
    return np.concatenate((shifted[:, :, :nc], shifted[:, :, nc:] @ window), axis=2), window


@dataclass
class AsymptoticSubspace:
    """Kernel of the junction problem in modal coordinates.  ``modes[j]`` is
    the ``ModeTable`` of tail j at lam, and ``windows[j]`` holds the (2kl,
    modes) values of those modes on its window sites 0..2k-1, one column
    per table entry."""

    lam: float
    dim: int
    expected_dim: int
    core_values: np.ndarray
    modal: list[np.ndarray]
    modes: list[ModeTable]
    windows: list[np.ndarray]
    classifications: list[MonodromyClassification]
    lagrangian_residual: float
    singular_values: np.ndarray
    flags: set


def asymptotic_subspace(graph: TailedGraph, lam: float) -> AsymptoticSubspace:
    """Solve the junction system over modal unknowns and report the
    solution space with its per-tail window data and Lagrangian defect.
    Tail j contributes its k_j informative rows.  It is read off
    ``scattering_matrix`` at lam, a stack of one lambda."""
    return scattering_matrix(graph, lam).subspace


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
    return _scatter(graph, np.array([_finite(lam)]))[0]


def _scatter(graph: TailedGraph, lams) -> list[ScatteringResult]:
    """scattering_matrix at every lambda of ``lams``: one Bloch solve per
    tail shape (k, l), one assembly and one junction SVD per stack of equal
    mode counts, then the residuals of the stacked kernels per run of equal
    kernel dimension as batched reductions, and S from one stacked SVD."""
    clfs, stacks = _junction_grid(graph, lams)
    expected, nc, (*_, form, wins) = graph.expected_dim(), graph.core_size, graph._plan
    out: list = []
    for at, matrix, window, modes in stacks:
        bases = _null_spaces(matrix)
        cols = list(accumulate((m.kind.shape[1] for m in modes), initial=nc))
        spans = list(zip(wins, wins[1:], cols, cols[1:]))  # window rows, modal columns of each tail
        residual, degenerate = [], []
        for _, run in groupby((kernel for kernel, _ in bases), key=lambda kernel: kernel.shape[1]):
            kernel = np.array(list(run))[:, nc:]
            # the pair form of each kernel's basis, its solutions normalized on the windows
            sol = window[len(residual) : len(residual) + len(kernel)] @ kernel
            norms = np.sqrt((np.abs(sol) ** 2).sum(axis=1))
            sol = sol / np.where(small := norms <= 1e-12, 1.0, norms)[:, None, :]
            residual += np.abs(sol.swapaxes(1, 2) @ form @ sol).max(axis=(1, 2), initial=0.0).tolist()
            degenerate += small.any(axis=1).tolist()
        kinds = np.concatenate([m.kind for m in modes], axis=1)
        # per row: its channels per tail, their number and whether a tail is critical
        outs = [[row[c0 - nc : c1 - nc].count(OUT) for *_, c0, c1 in spans] for row in kinds.tolist()]
        rows = [(o, sum(o), any(c.critical for c in clfs[i])) for i, o in zip(range(at.start, at.stop), outs)]
        # S where there are channels, no tail is critical and the kernel has the expected dimension
        solve = sorted((t for t, ((_, nch, critical), (kernel, _)) in enumerate(zip(rows, bases))
                        if nch and not critical and kernel.shape[1] == expected), key=lambda t: rows[t][1])
        smat = dict(zip(solve, _s_matrices(np.array([bases[t][0] for t in solve])[:, nc:], window[solve], kinds[solve],
                                           [rows[t][1] for t in solve], form) if solve else []))
        for t, (i, (kernel, sing), (outs, _, critical)) in enumerate(zip(range(at.start, at.stop), bases, rows)):
            dim = kernel.shape[1]
            flags = {f for f, on in (("critical", critical), ("kernel-dim-mismatch", dim != expected),
                                     ("window-degenerate", degenerate[t])) if on}
            sub = AsymptoticSubspace(
                float(lams[i]), dim, expected, kernel[:nc], [kernel[c0:c1] for *_, c0, c1 in spans],
                [m.take(t) for m in modes], [window[t, w0:w1, c0 - nc : c1 - nc] for w0, w1, c0, c1 in spans],
                clfs[i], residual[t], sing, flags,
            )
            channels = [(j, c) for j, n in enumerate(outs) for c in range(n)]
            more = {"no-channels"} if not channels else {"singular"} if t in smat and not smat[t] else set()
            out.append(ScatteringResult(sub.lam, channels, *(smat.get(t) or (None,) * 4), sub, flags | more))
    return out


def _s_matrices(coef, window, kinds, nch, form) -> list:
    """S and its unitarity, symmetry and pairing defects at each of R rows,
    or None where the square grow/in system M has cond(M) >= 1e10.  ``coef``
    holds the (R, modes, dim) modal coefficients of R kernels, at the R rows
    of ``window`` and of the kind codes ``kinds``, sorted by their channel
    counts ``nch``.  A row with no critical tail has dim grow and in modes
    (s + 2p + q = kl on each tail); a row without is None, as a singular M.
    Every M goes through one stacked SVD; S is batched over each run of one
    channel count."""
    dim, rows = coef.shape[2], np.arange(len(coef))[:, None]
    # grow, in, out and decay modes in turn: M is the square grow/in system, S = K_out M^-1 [0; I];
    # x holds the window values of the modes in that order
    order = kinds.argsort(axis=1, kind="stable")
    m, x = coef[rows, order], window.swapaxes(1, 2)[rows, order]
    u, sing, vh = np.linalg.svd(m[:, :dim])
    good = sing[:, -1] * 1e10 > sing[:, 0]  # cond(M) < 1e10; an all-zero M is singular
    inverse = vh.conj().swapaxes(1, 2) / np.where(good[:, None], sing, 1.0)[:, None, :]  # S of a bad M is dropped
    found, first = [], 0
    for n, run in groupby(nch):
        at, eye = slice(first, first := first + len(list(run))), np.eye(n)
        s = m[at, dim : dim + n] @ inverse[at] @ u[at, dim - n :].conj().swapaxes(1, 2)
        # unitarity and symmetry defects, and the in/out pair normalization on the windows:
        # the in mode of each out mode follows it (``_tail_grid``), so the n in modes pair in turn with the n out modes
        pairs = x[at, dim - n : dim] @ form @ x[at, dim : dim + n].swapaxes(1, 2) - A_LAMBDA * eye
        defects = np.array((s @ s.conj().swapaxes(1, 2) - eye, s - s.swapaxes(1, 2), pairs))
        found += zip(s, *np.abs(defects).max(axis=(2, 3)).tolist())
    # S needs a good M that is the whole grow/in system
    return [row if ok and kind.count(GROW) + kind.count(IN) == dim else None
            for row, ok, kind in zip(found, good.tolist(), kinds.tolist())]


# -- discrete spectrum -----------------------------------------------------------


@dataclass
class BoundState:
    """A state of the regular discrete spectrum at ``lam``; ``modal[i]``
    holds its coefficients over the DECAY entries of
    ``tail_modes(tails[i].op, lam)[1]``, in table order."""

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
    (junction, select, *_), nc = graph._plan, graph.core_size
    size = len(junction)
    vals, vecs = np.full((len(lams), size), np.nan), np.full((len(lams), size, size), np.nan)
    coefs = np.full((len(lams), size, size), np.nan, dtype=complex)
    for idx, a, window, _ in _junction_grid(graph, lams, decay_only=True)[1]:
        if a.shape[2] != size:
            continue  # an open channel
        ylo = select[nc:, nc:] @ window  # values on sites 0..k_j - 1, block-diagonal
        a[:, :, nc:] = np.linalg.solve(ylo.swapaxes(1, 2), a[:, :, nc:].swapaxes(1, 2)).swapaxes(1, 2)
        vals[idx], vecs[idx] = np.linalg.eigh(0.5 * (a.real + a.real.swapaxes(1, 2)))
        coefs[idx] = vecs[idx]
        coefs[idx, nc:] = np.linalg.solve(ylo, vecs[idx, nc:])
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
        core = graph._plan[0][:, :nc]  # the core rows, then the attach rows of every tail site
        evals, evecs = np.linalg.eigh(core[:nc])
        tol = 1e-10 * float(np.max(np.abs(core)))
        for cluster in np.split(np.arange(len(evals)), np.flatnonzero(np.diff(evals) > tol) + 1):
            lam_e = float(np.mean(evals[cluster]))
            if not (lo <= lam_e <= hi):
                continue
            vecs = evecs[:, cluster]
            _, sing, vt = np.linalg.svd(np.vstack([core[nc:] @ vecs, np.zeros((len(cluster),) * 2)]))
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
    rows = [ScanRow(res.lam, [c.counts() for c in res.subspace.classifications], "critical" in res.flags,
                    bool(res.flags & {"singular", "kernel-dim-mismatch"}), res)
            for res in _scatter(graph, grid)]
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
    core_dims = _distinct(((int(v["label"]), v.get("dim", 1)) if isinstance(v, dict) else (int(v), 1)
                           for v in core.get("vertices", [])), lambda v: f"core vertex {v} appears twice")
    core_blocks = _distinct((((int(b["to"]), int(b["from"])), _matrix_from_json(b["matrix"]))
                             for b in core.get("blocks", [])), lambda key: f"core block {key} appears twice")

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
        attach = _distinct((((int(a["vertex"]), int(a["site"])), _matrix_from_json(a["matrix"]))
                            for a in item.get("attach", [])),
                           lambda key: f"tail {jt} attach entry at (vertex, site) {key} appears twice")
        origin = _dimension(item.get("origin", 0), jt, "tail {v} has origin {d}", least=-math.inf)

        overrides = _distinct(
            ((int(d["site"]), {int(s): _matrix_from_json(m) for s, m in d["blocks"].items()})
             for d in item.get("decay", [])), lambda n: f'tail {jt} "decay" table: site {n} appears twice')
        if min(overrides, default=0) < 0:
            raise DomainError(f'tail {jt} "decay" table: site {min(overrides)} is negative')
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
        shifts.append(cut)
        tails.append(Tail(op=op, attach=attach, origin=origin + cut))

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
