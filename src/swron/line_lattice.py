"""Vector-valued lattice operators on Z, their solution bases, the
symplectic form carried by solution pairs, and transfer dynamics.

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

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .complex_core import DomainError

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


def _as_block(value, l: int) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.shape == () and l == 1:
        arr = arr.reshape(1, 1)
    if arr.shape != (l, l):
        raise DomainError(f"block has shape {arr.shape}, expected ({l}, {l})")
    if np.all(arr.imag == 0):
        return arr.real.astype(float)
    return arr


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
            s = int(s)
            if abs(s) > self.k:
                raise DomainError(f"shift {s} exceeds half-width {self.k}")
            base[s] = _as_block(m, self.l)
        for s in list(base):
            if -s in base:
                if np.max(np.abs(base[-s] - base[s].T)) > 0:
                    raise DomainError(f"shift blocks {s} and {-s} break symmetry")
            else:
                base[-s] = base[s].T.copy()
        self._base = base

        sites: dict[int, dict[int, np.ndarray]] = {}
        for n, table in (site_blocks or {}).items():
            n = int(n)
            for s, m in table.items():
                s = int(s)
                if abs(s) > self.k:
                    raise DomainError(f"shift {s} exceeds half-width {self.k}")
                sites.setdefault(n, {})[s] = _as_block(m, self.l)
        for n in list(sites):
            for s, m in list(sites[n].items()):
                partner = sites.get(n + s, {}).get(-s)
                if partner is None:
                    sites.setdefault(n + s, {})[-s] = m.T.copy()
                elif np.max(np.abs(partner - m.T)) > 0:
                    raise DomainError(
                        f"site blocks ({n}, {s}) and ({n + s}, {-s}) break symmetry"
                    )
        self._sites = sites
        self._forms: dict[int, "SymplecticFormMatrix"] = {}

    @property
    def constant(self) -> bool:
        return not self._sites

    def block(self, n: int, s: int) -> np.ndarray:
        """Coefficient of psi(n+s) in the equation at site n (zero matrix
        when absent)."""
        if abs(s) > self.k:
            return np.zeros((self.l, self.l))
        hit = self._sites.get(n, {}).get(s)
        if hit is not None:
            return hit
        return self._base.get(s, np.zeros((self.l, self.l)))

    def is_real(self) -> bool:
        blocks = list(self._base.values()) + [
            m for t in self._sites.values() for m in t.values()
        ]
        return all(not np.iscomplexobj(m) for m in blocks)

    def leading_block(self, n: int, direction: int = +1) -> np.ndarray:
        return self.block(n, self.k if direction > 0 else -self.k)

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

    def column(self, p: int, i: int) -> dict[int, np.ndarray]:
        j = self.columns.index((p, i))
        return {n: v[:, j].copy() for n, v in self.values.items()}


def _column_order(k: int, l: int) -> list[tuple[int, int]]:
    return [(p, i) for p in range(-k + 1, k + 1) for i in range(l)]


def solution_basis(
    op: LineOperator, lam, m: int, window: tuple[int, int] | None = None
) -> SolutionBasis:
    """Extend the 2kl Kronecker-window columns across ``window``.

    The window must contain the defining sites [m-k+1, m+k]; extension
    steps solve with the leading blocks and raise naming the site where
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
    ncol = 2 * k * l
    values = {
        m + q: np.zeros((l, ncol), dtype=complex) for q in range(-k + 1, k + 1)
    }
    for j, (p, i) in enumerate(cols):
        values[m + p][i, j] = 1.0

    def step(target: int, eq_site: int, lead_shift: int) -> None:
        lead = op.block(eq_site, lead_shift)
        rhs = lam * values[eq_site].astype(complex)
        for s in range(-k, k + 1):
            if s == lead_shift:
                continue
            b = op.block(eq_site, s)
            if np.any(b != 0):
                rhs = rhs - b @ values[eq_site + s]
        try:
            values[target] = np.linalg.solve(lead, rhs)
        except np.linalg.LinAlgError:
            raise DomainError(
                f"leading block at site {eq_site} (shift {lead_shift}) is singular"
            ) from None

    for n in range(m + k + 1, hi + 1):
        step(n, n - k, k)
    for n in range(m - k, lo - 1, -1):
        step(n, n + k, -k)
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

    @property
    def plus_indices(self) -> list[int]:
        return [j for j, (p, _) in enumerate(self.columns) if p <= 0]

    @property
    def minus_indices(self) -> list[int]:
        return [j for j, (p, _) in enumerate(self.columns) if p >= 1]

    def determinant(self) -> complex:
        return np.linalg.det(self.matrix)

    def is_nondegenerate(self, tol: float = 0.0) -> bool:
        return bool(abs(np.linalg.det(self.matrix)) > tol)


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
    mat = np.block([[np.zeros((n, n)), upper], [-upper.T, np.zeros((n, n))]])
    if np.all(mat.imag == 0):
        mat = mat.real
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


def transfer_map(op: LineOperator, lam, m: int) -> TransferMatrix:
    """Window shift map: rows copy coordinates down one site and the top
    row solves the equation at m+1 with the leading block."""
    k, l = op.k, op.l
    if k < 1:
        raise DomainError("transfer map needs order k >= 1")
    lam = complex(lam)
    cols = _column_order(k, l)
    ncol = 2 * k * l
    lead = op.block(m + 1, k)
    try:
        lead_inv = np.linalg.inv(lead.astype(complex))
    except np.linalg.LinAlgError:
        raise DomainError(f"leading block at site {m + 1} is singular") from None
    t = np.zeros((ncol, ncol), dtype=complex)
    idx = {pg: j for j, pg in enumerate(cols)}
    for p in range(-k + 1, k):  # x_{m+1}[p] = x_m[p+1]
        for i in range(l):
            t[idx[(p, i)], idx[(p + 1, i)]] = 1.0
    for s in range(-k, k):  # equation at m+1 solved for psi(m+1+k)
        b = op.block(m + 1, s).astype(complex)
        if s == 0:
            b = b - lam * np.eye(l)
        coef = -lead_inv @ b
        for i in range(l):
            for j in range(l):
                t[idx[(k, i)], idx[(s + 1, j)]] += coef[i, j]
    if np.all(t.imag == 0):
        t = t.real
    return TransferMatrix(matrix=t, lam=lam, m=m, op=op)


def transfer_between(op: LineOperator, lam, n: int, m: int):
    """Composite window map from base n to base m > n (product of the
    one-step maps, rightmost factor first)."""
    if m <= n:
        raise DomainError("transfer_between needs n < m")
    total = np.eye(2 * op.k * op.l, dtype=complex)
    for j in range(n, m):
        total = transfer_map(op, lam, j).matrix @ total
    if np.all(total.imag == 0):
        total = total.real
    return total, swronskian_form(op, n), swronskian_form(op, m)


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


def _close_cover_blocks(blocks: dict, l: int) -> dict:
    closed: dict[tuple[int, int, int], np.ndarray] = {}
    for (a, b, w), m in blocks.items():
        closed[(int(a), int(b), int(w))] = _as_block(m, l)
    for (a, b, w), m in list(closed.items()):
        partner = closed.get((b, a, -w))
        if partner is None:
            closed[(b, a, -w)] = m.T.copy()
        elif np.max(np.abs(partner - m.T)) > 0:
            raise DomainError(
                f"cover blocks ({a},{b},{w}) and ({b},{a},{-w}) break symmetry"
            )
    return closed


@dataclass
class DirectImage:
    """Reindexing data identifying cover functions with lattice functions.

    Cover vertex (a, n) sits at lattice site n + offset[a], in the block
    slot of orbit a.  Both directions are pure permutations of values.
    """

    cover: CoveringGraph
    offsets: dict
    orbit_order: tuple
    vec_dim: int
    line_op: "LineOperator"

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
    closed = _close_cover_blocks(blocks, l)
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
    return line, DirectImage(
        cover=cover, offsets=offsets, orbit_order=order, vec_dim=l, line_op=line
    )


def cover_apply(cover: CoveringGraph, blocks: dict, vec_dim: int, psi: dict, at):
    """Reference action of the cover operator, for commutation checks."""
    closed = _close_cover_blocks(blocks, vec_dim)
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
    closed = _close_cover_blocks(blocks, vec_dim)
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
    if np.all(mat.imag == 0):
        mat = mat.real
    return mat, index


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
            b = op.block(n, s)
            if np.any(b != 0):
                c = ((n + s) % period) * l
                mat[n * l : (n + 1) * l, c : c + l] += b
    if np.all(mat.imag == 0):
        mat = mat.real
    return mat


def truncated_line_matrix(op: LineOperator, lo: int, hi: int) -> np.ndarray:
    """Dense Dirichlet truncation on sites lo..hi inclusive."""
    sites = list(range(lo, hi + 1))
    l = op.l
    mat = np.zeros((len(sites) * l, len(sites) * l), dtype=complex)
    for r, n in enumerate(sites):
        for s in range(-op.k, op.k + 1):
            if lo <= n + s <= hi:
                b = op.block(n, s)
                if np.any(b != 0):
                    c = (n + s - lo) * l
                    mat[r * l : (r + 1) * l, c : c + l] += b
    if np.all(mat.imag == 0):
        mat = mat.real
    return mat


# -- serialization -------------------------------------------------------------


def _matrix_to_json(m: np.ndarray):
    if np.iscomplexobj(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return np.asarray(m, dtype=float).tolist()


def _matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 3:
        arr = arr[..., 0] + 1j * arr[..., 1]
    return arr


def line_operator_to_json(op: LineOperator) -> dict:
    data = {"k": op.k, "l": op.l, "constant": op.constant}
    data["blocks"] = {str(s): _matrix_to_json(m) for s, m in sorted(op._base.items())}
    if op._sites:
        data["sites"] = {
            str(n): {str(s): _matrix_to_json(m) for s, m in sorted(t.items())}
            for n, t in sorted(op._sites.items())
        }
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
    with open(path) as fh:
        return line_operator_from_json(json.load(fh))


def save_line_operator(op: LineOperator, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(line_operator_to_json(op), fh, indent=1, sort_keys=True)
        fh.write("\n")


def transfer_to_csv(t: TransferMatrix, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_re", "lambda_im", "m", "dim"])
        writer.writerow(
            [t.lam.real, t.lam.imag, t.m, t.matrix.shape[0]]
        )
        writer.writerow([])
        header = []
        for j in range(t.matrix.shape[1]):
            header += [f"c{j}_re", f"c{j}_im"]
        writer.writerow(header)
        for row in np.atleast_2d(t.matrix):
            flat = []
            for x in row:
                x = complex(x)
                flat += [repr(x.real), repr(x.imag)]
            writer.writerow(flat)
