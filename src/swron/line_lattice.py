"""Vector-valued lattice operators on Z, their solution bases, the
symplectic form carried by solution pairs, and transfer dynamics: the
monodromy classification of transfer maps and its critical points.

State and basis conventions
---------------------------
Solutions of (L - lambda) psi = 0 for an order-k, block-size-l operator
are fixed by their values on any 2k consecutive sites.  Around a base
site m the basis column C_{m;p}^i (p in -k+1..k, i in 0..l-1) is the
solution whose window values are psi(m+q) = delta_{qp} e_i.  Columns are
ordered p ascending, then i ascending; the first k*l columns (p <= 0)
and the last k*l (p >= 1) each span a Lagrangian plane of the pair form.

The pair form at m is the matrix of symplectic Wronskian values of basis
pairs, evaluated on the edge (m, m+1):

    SW_m[(p,i),(q,j)] = blocks(m+p, q-p)[i,j]   for p <= 0 < q,

skew-extended, zero when q - p exceeds k.  Its determinant equals the
squared product of the leading block determinants, so nondegeneracy is
exactly invertibility of every leading block in the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_core import DomainError, _read_json, _write_csv, _write_json
from .operators import (
    _as_block, _close_symmetric, _exact_dtype, _matrix_from_json, _matrix_to_json,
)

__all__ = [
    "LineOperator",
    "SolutionBasis",
    "SymplecticFormMatrix",
    "TransferMatrix",
    "CoveringGraph",
    "DirectImage",
    "solution_basis",
    "swronskian_form",
    "transfer_map",
    "transfer_between",
    "direct_image",
    "line_operator_to_json",
    "line_operator_from_json",
]


class LineOperator:
    """Finite-order block operator on the integer lattice.

    (L psi)(n) = sum_{|s| <= k} block(n, s) @ psi(n + s), with the
    symmetry block(n, s) = block(n + s, -s)^T.

    Parameters
    ----------
    k, l : stencil half-width and block size.
    shift_blocks : {s: (l, l) array} for the translation-invariant part.
        Missing partners are filled by symmetry (b_{-s} = b_s^T); blocks
        given on both sides are checked against each other.
    site_blocks : optional {n: {s: matrix}} per-site overrides; the
        symmetric partner (n + s, -s) is filled or checked likewise.
    """

    def __init__(self, k: int, l: int, shift_blocks=None, site_blocks=None):
        self.k = int(k)
        self.l = int(l)
        if self.k < 0 or self.l < 1:
            raise DomainError("need k >= 0 and l >= 1")
        base: dict[int, np.ndarray] = {}
        for s, m in (shift_blocks or {}).items():
            base[self._shift(s)] = _as_block(m, self.l)
        self._base = _close_symmetric(base, lambda s: -s)
        # (n, s) -> block; the partner of (n, s) is (n + s, -s)
        sites: dict[tuple[int, int], np.ndarray] = {}
        for n, table in (site_blocks or {}).items():
            for s, m in table.items():
                sites[(int(n), self._shift(s))] = _as_block(m, self.l)
        self._sites = _close_symmetric(sites, lambda ns: (ns[0] + ns[1], -ns[1]))
        self._forms: dict[int, "SymplecticFormMatrix"] = {}
        self._transfer: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._criticals: list | None = None  # scattering._symbol_criticals

    def _shift(self, s) -> int:
        s = int(s)
        if abs(s) > self.k:
            raise DomainError(f"shift {s} exceeds half-width {self.k}")
        return s

    @property
    def constant(self) -> bool:
        return not self._sites

    def block(self, n: int, s: int) -> np.ndarray:
        """Coefficient of psi(n+s) in the equation at site n (zero matrix
        when absent)."""
        if abs(s) > self.k:
            return np.zeros((self.l, self.l))
        hit = self._sites.get((n, s))
        if hit is not None:
            return hit
        return self._base.get(s, np.zeros((self.l, self.l)))

    def is_real(self) -> bool:
        blocks = list(self._base.values()) + list(self._sites.values())
        return all(not np.iscomplexobj(m) for m in blocks)

    def symbol(self, mu: complex) -> np.ndarray:
        """sum_s block(s) mu^s for a constant operator."""
        if not self.constant:
            raise DomainError("symbol requires a constant operator")
        out = np.zeros((self.l, self.l), dtype=complex)
        for s in range(-self.k, self.k + 1):
            out = out + self.block(0, s) * (mu ** s)
        return out

    def apply(self, psi: dict, at) -> dict:
        out = {}
        for n in at:
            acc = np.zeros(self.l, dtype=complex)
            for s in range(-self.k, self.k + 1):
                b = self.block(n, s)
                if np.any(b != 0):
                    if n + s not in psi:
                        raise DomainError(f"psi undefined at site {n + s}")
                    acc = acc + b @ np.asarray(psi[n + s], dtype=complex).reshape(-1)
            out[n] = acc
        return out


@dataclass
class SolutionBasis:
    """Kronecker-window basis columns stored as per-site (l, 2kl) arrays."""

    m: int
    k: int
    l: int
    lam: complex
    lo: int
    hi: int
    values: dict[int, np.ndarray]
    columns: list[tuple[int, int]]


def _column_order(k: int, l: int) -> list[tuple[int, int]]:
    return [(p, i) for p in range(-k + 1, k + 1) for i in range(l)]


def solution_basis(
    op: LineOperator, lam, m: int, window: tuple[int, int] | None = None
) -> SolutionBasis:
    """Extend the 2kl Kronecker-window columns across ``window``.

    The window must contain the defining sites [m-k+1, m+k]; the window
    columns are carried forward by products of the one-step transfer maps
    and backward by solves against them, which raise naming the site where
    a leading block is singular.
    """
    k, l = op.k, op.l
    if k < 1:
        raise DomainError("solution basis needs order k >= 1")
    lam = complex(lam)
    lo, hi = (m - k + 1, m + k) if window is None else (int(window[0]), int(window[1]))
    if lo > m - k + 1 or hi < m + k:
        raise DomainError(
            f"window [{lo}, {hi}] must contain the defining sites "
            f"[{m - k + 1}, {m + k}]"
        )
    cols = _column_order(k, l)
    ahead = back = np.eye(2 * k * l, dtype=complex)  # the window at base m
    values = {m + p: ahead[(p + k - 1) * l : (p + k) * l] for p in range(-k + 1, k + 1)}
    for b in range(m, hi - k):  # window at b + 1 = T(b) window at b
        ahead = transfer_map(op, lam, b).matrix @ ahead
        values[b + k + 1] = ahead[-l:]
    for b in range(m - 1, lo + k - 2, -1):
        try:
            back = np.linalg.solve(transfer_map(op, lam, b).matrix, back)
        except np.linalg.LinAlgError:
            raise DomainError(f"leading block at site {b + 1} (shift {-k}) is singular") from None
        values[b - k + 1] = back[:l]
    return SolutionBasis(
        m=m, k=k, l=l, lam=lam, lo=lo, hi=hi, values=values, columns=cols
    )


@dataclass(frozen=True)
class SymplecticFormMatrix:
    """Pair form of the window basis at m, with its Lagrangian split."""

    m: int
    k: int
    l: int
    matrix: np.ndarray
    columns: list[tuple[int, int]]

    def determinant(self) -> complex:
        return np.linalg.det(self.matrix)


def swronskian_form(op: LineOperator, m: int) -> SymplecticFormMatrix:
    """Assemble SW_m; entries follow the block pattern described in the
    module docstring.

    The form depends only on the operator and m, so it is built once per
    (op, m) and cached on the operator; the cached matrix is read-only.
    """
    m = int(m)
    cached = op._forms.get(m)
    if cached is not None:
        return cached
    k, l = op.k, op.l
    if k < 1:
        raise DomainError("pair form needs order k >= 1")
    cols = _column_order(k, l)
    n = k * l
    upper = np.zeros((n, n), dtype=complex)
    for pi, p in enumerate(range(-k + 1, 1)):
        for qi, q in enumerate(range(1, k + 1)):
            b = op.block(m + p, q - p)  # zero beyond shift k by construction
            upper[pi * l : (pi + 1) * l, qi * l : (qi + 1) * l] = b
    mat = _exact_dtype(np.block([[np.zeros((n, n)), upper], [-upper.T, np.zeros((n, n))]]))
    mat.setflags(write=False)
    form = SymplecticFormMatrix(m=m, k=k, l=l, matrix=mat, columns=cols)
    op._forms[m] = form
    return form


def leading_determinant_product(op: LineOperator, m: int) -> complex:
    """prod over p in -k+1..0 of det block(m+p, k), squared: the predicted
    determinant of SW_m."""
    prod = 1.0 + 0j
    for p in range(-op.k + 1, 1):
        prod *= np.linalg.det(op.block(m + p, op.k).astype(complex))
    return prod ** 2


@dataclass
class TransferMatrix:
    """One-step window map x_m -> x_{m+1}; the forms it intertwines are
    looked up only when asked for."""

    matrix: np.ndarray
    lam: complex
    m: int
    op: LineOperator = field(repr=False)

    @property
    def form_before(self) -> SymplecticFormMatrix:
        return swronskian_form(self.op, self.m)

    @property
    def form_after(self) -> SymplecticFormMatrix:
        return swronskian_form(self.op, self.m + 1)

    def symplectic_defect(self) -> float:
        t = self.matrix
        return float(
            np.max(
                np.abs(
                    t.T @ self.form_after.matrix @ t - self.form_before.matrix
                )
            )
        )


def _transfer_parts(op: LineOperator, m: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(T0, E) of the one-step window maps T(lambda) = T0 + lambda E at base
    m, E holding the inverse leading block in the last l rows at the column
    block of psi(m+1); real when the operator is, and cached per (op, m),
    once for a constant operator."""
    k, l = op.k, op.l
    m = 0 if op.constant else int(m)
    if m not in op._transfer:
        if k < 1:
            raise DomainError("transfer map needs order k >= 1")
        try:
            lead_inv = np.linalg.inv(op.block(m + 1, k).astype(complex))
        except np.linalg.LinAlgError:
            raise DomainError(f"leading block at site {m + 1} (shift {k}) is singular") from None
        t0, e = np.zeros((2, 2 * k * l, 2 * k * l), dtype=complex)
        t0[:-l, l:], e[-l:, k * l : (k + 1) * l] = np.eye((2 * k - 1) * l), lead_inv  # x_{m+1}[p] = x_m[p+1]
        # equation at m+1 solved for psi(m+1+k); column block s + k holds psi(m+1+s)
        t0[-l:] = -lead_inv @ np.hstack([op.block(m + 1, s) for s in range(-k, k)])
        op._transfer[m] = (t0.real, e.real) if np.all(t0.imag == 0) and np.all(e.imag == 0) else (t0, e)
    return op._transfer[m]


def transfer_map(op: LineOperator, lam, m: int) -> TransferMatrix:
    """Window shift map: rows copy coordinates down one site and the last
    l rows solve the equation at m+1 with the leading block."""
    lam, (t0, e) = complex(lam), _transfer_parts(op, m)
    t = t0 + (lam.real if lam.imag == 0 else lam) * e
    return TransferMatrix(matrix=t, lam=lam, m=m, op=op)


def transfer_between(op: LineOperator, lam, n: int, m: int):
    """Composite window map from base n to base m > n (product of the
    one-step maps, rightmost factor first)."""
    if m <= n:
        raise DomainError("transfer_between needs n < m")
    total = np.eye(2 * op.k * op.l, dtype=complex)
    for j in range(n, m):
        total = transfer_map(op, lam, j).matrix @ total
    return _exact_dtype(total), swronskian_form(op, n), swronskian_form(op, m)


# -- monodromy classification and critical points ---------------------------


UNIMODULAR_TOL = 1e-9
PAIRING_TOL = 1e-8
CRITICAL_GAP = 1e-6


@dataclass
class MonodromyClassification:
    """Eigenvalue bookkeeping of one transfer map.  Margins of the critical
    decision: ``min_gap`` is the smallest distance between two eigenvalues,
    ``unit_gap`` the smallest |mu -+ 1|; either below ``CRITICAL_GAP`` flags.
    The map is critical exactly when ``critical_reason`` names a reason."""

    lam: complex
    kl: int
    s: int
    p: int
    q: int
    eigenvalues: np.ndarray
    critical_reason: str | None
    pairing_defect: float
    min_gap: float
    unit_gap: float

    @property
    def critical(self) -> bool:
        return self.critical_reason is not None

    @property
    def identity_holds(self) -> bool:
        return 2 * self.s + 4 * self.p + 2 * self.q == 2 * self.kl

    def counts(self) -> tuple[int, int, int]:
        return (self.s, self.p, self.q)


def classify_monodromy(
    transfer: TransferMatrix, lam=None, *, kl: int | None = None
) -> MonodromyClassification:
    """Count channel pairs / quadruples / real pairs of a ``transfer_map``
    (``lam`` and ``kl`` default to its own).

    A point is critical when eigenvalues collide (gap below
    ``CRITICAL_GAP``), when one sits at +-1, or when the pair structure
    cannot be matched within ``PAIRING_TOL``; the (s, p, q) identity is
    not trusted there.
    """
    kl = transfer.matrix.shape[0] // 2 if kl is None else kl
    mus = np.linalg.eigvals(transfer.matrix.astype(complex))[None]
    return _classify(mus, [transfer.lam if lam is None else lam], kl, *_moduli(mus))[0]


def _moduli(mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|mu| of eigenvalue rows and the mask of the unimodular ones."""
    size = np.abs(mus)
    return size, np.abs(size - 1.0) <= UNIMODULAR_TOL


def _classify(mus: np.ndarray, lams, kl: int, size, unimod, dead=()) -> list[MonodromyClassification]:
    """(s, p, q) counts, critical reasons and margins of the eigenvalue rows
    ``mus`` (S, 2kl), one row per transfer map of a lambda grid, given
    their ``_moduli``; the rows ``dead`` have an open channel that carries
    no current (``scattering._tail_grid``), the last reason checked."""
    n = mus.shape[1]
    # each eigenvalue, its conjugate, its inverse (0 for mu = 0, which then
    # finds itself) and +-1 against every eigenvalue of its row
    targets = np.empty((len(mus), 3 * n + 2), dtype=complex)
    targets[:, :n], targets[:, n : 2 * n], targets[:, 3 * n :] = mus, mus.conj(), (1.0, -1.0)
    np.divide(1.0, np.where(size > 0, mus, np.inf), out=targets[:, 2 * n : 3 * n])
    dist = np.abs(targets[:, :, None] - mus[:, None, :])
    dist.reshape(len(mus), (3 * n + 2) * n)[:, : n * n : n + 1] = np.inf  # each eigenvalue against itself
    nearest = dist.min(axis=2)
    min_gap, _, unit_gap = np.minimum.reduceat(nearest, [0, n, 3 * n], axis=1).T.tolist()
    # symmetry of each row under conjugation and inversion
    pairing = (nearest[:, n : 3 * n] / np.maximum(1.0, np.abs(targets[:, n : 3 * n]))).max(axis=1).tolist()
    # above and on the real axis, within UNIMODULAR_TOL * max(1, |mu|)
    tol, outer = UNIMODULAR_TOL * np.maximum(1.0, size), (size > 1) & ~unimod
    upper = mus.imag > tol
    s, p, q = np.array([unimod & upper, outer & upper, outer & (np.abs(mus.imag) <= tol)]).sum(axis=2).tolist()
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
        elif i in dead:
            reason = "zero-current-channel"
        out.append(MonodromyClassification(
            lam=complex(lam), kl=kl, s=s[i], p=p[i], q=q[i], eigenvalues=mus[i], critical_reason=reason,
            pairing_defect=pairing[i], min_gap=min_gap[i], unit_gap=unit_gap[i],
        ))
    return out


def _classify_grid(op: LineOperator, lams) -> list[MonodromyClassification]:
    """classify_monodromy of the transfer map at every lambda of ``lams``:
    one eigvals call on the transfer stack."""
    t0, e = _transfer_parts(op)
    mus = np.linalg.eigvals(t0 + np.asarray(lams)[:, None, None] * e).astype(complex)
    return _classify(mus, lams, op.k * op.l, *_moduli(mus))


def _finite(lam) -> float:
    """``lam`` as a float, after checking that it is a finite real number."""
    try:
        if np.asarray(lam).dtype.kind == "c":
            raise TypeError
        x = float(lam)
    except (TypeError, ValueError):
        raise DomainError(f"lambda must be a real number, got {lam!r}") from None
    if not math.isfinite(x):
        raise DomainError(f"lambda must be finite, got {lam}")
    return x


def _grid(lo: float, hi: float, samples: int, least: int) -> np.ndarray:
    """The regular grid of a lambda scan, after checking its arguments."""
    if not isinstance(samples, (int, np.integer)):
        raise DomainError(f"grid samples must be an integer, got {samples!r}")
    if samples < least:
        raise DomainError(f"need at least {'two' if least == 2 else 'three'} grid samples")
    if not np.isfinite([lo, hi]).all():
        raise DomainError(f"a lambda grid needs finite ends, got lo={lo} and hi={hi}")
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
    _transfer_parts(op)  # checks the order and the leading block
    k, shifts = op.k, np.arange(-op.k, op.k + 1)
    blocks = np.array([op.block(0, s) for s in shifts], dtype=float)

    def circle(theta, _):
        phase = np.exp(1j * theta[:, None] * shifts)
        lam, vec = np.linalg.eigh(np.einsum("ts,sij->tij", phase, blocks))
        ds = np.einsum("ts,sij->tij", 1j * shifts * phase, blocks)
        return lam, np.einsum("tji,tjk,tki->ti", vec.conj(), ds, vec).real

    def symbol(u, sign):  # mu and mu^k S(mu) at mu = sign e^u
        mu = (sign * np.exp(u))[:, None]
        return mu, np.einsum("ts,sij->tij", mu ** (shifts + k), blocks)

    def axis(u, sign):
        mu, mat = symbol(u, sign)
        nu, vec = np.linalg.eig(mat)
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
        while np.any(np.abs(b - a) > 3e-5):  # folds are on the axis: S is Hermitian on the circle
            mid = 0.5 * (a + b)
            left = np.sum(np.linalg.eigvals(symbol(mid, sign[f])[1]).imag == 0, axis=1) == real[f]
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


# -- coverings over Z ---------------------------------------------------------


@dataclass(frozen=True)
class CoveringGraph:
    """Quotient data of a free Z-action on a graph: finitely many vertex
    orbits plus edges (a, b, w) joining (a, n) to (b, n + w) for all n.

    The normal form makes the action free by construction; a degenerate
    loop (a, a, 0) would be a self-edge and is rejected.
    """

    orbits: tuple
    edges: tuple

    def __post_init__(self):
        orbits = tuple(int(a) for a in self.orbits)
        if len(set(orbits)) != len(orbits):
            raise DomainError("orbit labels must be distinct")
        object.__setattr__(self, "orbits", orbits)
        seen = set()
        edges = []
        for a, b, w in self.edges:
            a, b, w = int(a), int(b), int(w)
            if a not in orbits or b not in orbits:
                raise DomainError(f"edge ({a}, {b}, {w}) uses unknown orbit")
            if a == b and w == 0:
                raise DomainError(f"degenerate loop on orbit {a}")
            key = (a, b, w) if (a, b, w) <= (b, a, -w) else (b, a, -w)
            if key in seen:
                raise DomainError(f"duplicate edge ({a}, {b}, {w})")
            seen.add(key)
            edges.append((a, b, w))
        object.__setattr__(self, "edges", tuple(edges))

    def level_offsets(self) -> dict[int, int]:
        """Deterministic BFS level assignment: lowest unvisited orbit gets
        offset 0; crossing edge (a, b, w) forces o_b = o_a + w."""
        offsets: dict[int, int] = {}
        adj: dict[int, list[tuple[int, int]]] = {a: [] for a in self.orbits}
        for a, b, w in sorted(self.edges):
            adj[a].append((b, w))
            adj[b].append((a, -w))
        for start in sorted(self.orbits):
            if start in offsets:
                continue
            offsets[start] = 0
            queue = [start]
            while queue:
                cur = queue.pop(0)
                for nxt, w in sorted(adj[cur]):
                    if nxt not in offsets:
                        offsets[nxt] = offsets[cur] + w
                        queue.append(nxt)
        return offsets


def _closed_cover_blocks(blocks: dict, vec_dim: int) -> dict:
    """Cover blocks as (l, l) arrays, symmetry-closed: block (a, b, w)
    couples (a, n) to (b, n + w), and its partner (b, a, -w) couples back."""
    closed = {(int(a), int(b), int(w)): _as_block(m, vec_dim)
              for (a, b, w), m in blocks.items()}
    return _close_symmetric(closed, lambda abw: (abw[1], abw[0], -abw[2]))


@dataclass
class DirectImage:
    """Reindexing data identifying cover functions with lattice functions.

    Cover vertex (a, n) sits at lattice site n + offset[a], in the block
    slot of orbit a.  Both directions are pure permutations of values.
    """

    offsets: dict
    orbit_order: tuple
    vec_dim: int

    def slot(self, a: int) -> int:
        return self.orbit_order.index(a)

    def to_line(self, psi: dict) -> dict:
        l = self.vec_dim
        big = l * len(self.orbit_order)
        out: dict[int, np.ndarray] = {}
        for (a, n), v in psi.items():
            site = n + self.offsets[a]
            vec = out.setdefault(site, np.zeros(big, dtype=np.asarray(v).dtype))
            j = self.slot(a)
            vec[j * l : (j + 1) * l] = np.asarray(v).reshape(-1)
        return out

    def to_cover(self, psi: dict) -> dict:
        l = self.vec_dim
        out = {}
        for site, v in psi.items():
            v = np.asarray(v).reshape(-1)
            for j, a in enumerate(self.orbit_order):
                out[(a, site - self.offsets[a])] = v[j * l : (j + 1) * l].copy()
        return out


def direct_image(
    cover: CoveringGraph, blocks: dict, vec_dim: int
) -> tuple[LineOperator, DirectImage]:
    """Repack a Z-invariant cover operator as a lattice operator.

    ``blocks`` maps (a, b, w) to the coupling of the equation at (a, n)
    with the value at (b, n + w); symmetry closure fills or checks the
    transposed partners.  Orbit a occupies block slot ``orbit_order.index(a)``
    of the fattened fiber C^(l * n_orbits).
    """
    l = int(vec_dim)
    closed = _closed_cover_blocks(blocks, l)
    offsets = cover.level_offsets()
    order = tuple(sorted(cover.orbits))
    nslot = len(order)
    shifts: dict[int, np.ndarray] = {}
    for (a, b, w), m in closed.items():
        s = w + offsets[b] - offsets[a]
        tgt = shifts.setdefault(s, np.zeros((nslot * l, nslot * l)))
        if np.iscomplexobj(m) and not np.iscomplexobj(tgt):
            shifts[s] = tgt = tgt.astype(complex)
        ja, jb = order.index(a), order.index(b)
        tgt[ja * l : (ja + 1) * l, jb * l : (jb + 1) * l] += m
    k = max((abs(s) for s in shifts), default=0)
    line = LineOperator(k, nslot * l, shift_blocks=shifts)
    return line, DirectImage(offsets=offsets, orbit_order=order, vec_dim=l)


def cover_apply(cover: CoveringGraph, blocks: dict, vec_dim: int, psi: dict, at):
    """Reference action of the cover operator, for commutation checks."""
    closed = _closed_cover_blocks(blocks, vec_dim)
    out = {}
    for (a, n) in at:
        acc = np.zeros(vec_dim, dtype=complex)
        for (aa, b, w), m in sorted(closed.items(), key=lambda kv: kv[0]):
            if aa != a:
                continue
            key = (b, n + w)
            if key not in psi:
                raise DomainError(f"psi undefined at cover vertex {key}")
            acc = acc + m @ np.asarray(psi[key], dtype=complex).reshape(-1)
        out[(a, n)] = acc
    return out


def periodized_cover_matrix(
    cover: CoveringGraph, blocks: dict, vec_dim: int, period: int
):
    """Dense matrix of the cover operator with n identified mod period."""
    if period < 1:
        raise DomainError("period must be positive")
    closed = _closed_cover_blocks(blocks, vec_dim)
    order = tuple(sorted(cover.orbits))
    index = {
        (a, n): (i * period + n) * vec_dim
        for i, a in enumerate(order)
        for n in range(period)
    }
    size = len(order) * period * vec_dim
    mat = np.zeros((size, size), dtype=complex)
    for (a, b, w), m in closed.items():
        for n in range(period):
            r = index[(a, n)]
            c = index[(b, (n + w) % period)]
            mat[r : r + vec_dim, c : c + vec_dim] += m
    return _exact_dtype(mat), index


def periodized_line_matrix(op: LineOperator, period: int) -> np.ndarray:
    """Dense matrix of a constant lattice operator on Z mod period."""
    if not op.constant:
        raise DomainError("periodization needs a constant operator")
    if period < 1:
        raise DomainError("period must be positive")
    l = op.l
    mat = np.zeros((period * l, period * l), dtype=complex)
    for n in range(period):
        for s in range(-op.k, op.k + 1):
            c = (n + s) % period
            mat[n * l : (n + 1) * l, c * l : (c + 1) * l] += op.block(n, s)
    return _exact_dtype(mat)


# -- serialization -------------------------------------------------------------


def line_operator_to_json(op: LineOperator) -> dict:
    data = {"k": op.k, "l": op.l, "constant": op.constant}
    data["blocks"] = {str(s): _matrix_to_json(m) for s, m in sorted(op._base.items())}
    if op._sites:
        sites = data["sites"] = {}
        for (n, s), m in sorted(op._sites.items()):
            sites.setdefault(str(n), {})[str(s)] = _matrix_to_json(m)
    return data


def line_operator_from_json(data: dict) -> LineOperator:
    try:
        k, l = int(data["k"]), int(data["l"])
    except KeyError as missing:
        raise DomainError(f"line operator JSON lacks field {missing}") from None
    shift = {int(s): _matrix_from_json(m) for s, m in data.get("blocks", {}).items()}
    sites = {
        int(n): {int(s): _matrix_from_json(m) for s, m in t.items()}
        for n, t in data.get("sites", {}).items()
    }
    op = LineOperator(k, l, shift_blocks=shift, site_blocks=sites)
    declared_constant = data.get("constant")
    if declared_constant is not None and bool(declared_constant) != op.constant:
        raise DomainError("constant flag contradicts the block tables")
    return op


def load_line_operator(path: str) -> LineOperator:
    return line_operator_from_json(_read_json(path))


def save_line_operator(op: LineOperator, path: str) -> None:
    _write_json(line_operator_to_json(op), path)


def transfer_to_csv(t: TransferMatrix, path: str) -> None:
    header = [f"c{j}_{part}" for j in range(t.matrix.shape[1]) for part in ("re", "im")]
    rows = [["lambda_re", "lambda_im", "m", "dim"],
            [t.lam.real, t.lam.imag, t.m, t.matrix.shape[0]], [], header]
    for row in np.atleast_2d(t.matrix):
        rows.append([repr(p) for z in map(complex, row) for p in (z.real, z.imag)])
    _write_csv(path, rows)
