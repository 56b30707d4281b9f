"""Block finite-order operators on simplicial complexes.

An operator of order k and block size l acts on vector-valued simplex
functions by ``(L psi)(a) = sum_b blocks[(a, b)] @ psi(b)``, where the
block between simplices a and b may be nonzero only when their simplex
distance is at most k/2.  Symmetry means blocks[(a, b)] equals the
transpose of blocks[(b, a)] entry for entry.

Each operator stores its nonzero blocks once, in block-sparse-row form:
one read-only ``(B, l, l)`` stack with integer ``target``/``source`` id
arrays and a ``partner`` index (the row holding the transposed block, -1
when there is none).  The action, the dense matrix, the structure flags
and the pair table of the Wronskian chains are array operations on that
stack; ``op.blocks`` is a read-only mapping onto views of its rows.

Simplex functions ("cochains") are plain dicts mapping simplex id to a
length-l numpy vector; helpers below convert to and from flat vectors in
id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .complex_core import (
    DomainError,
    SimplicialComplex,
    _distinct,
    _read_json,
    _write_json,
    barycentric_subdivision,
)

__all__ = [
    "DiscreteOperator",
    "OperatorReport",
    "HodgeOperators",
    "TriangleFactorization",
    "build_hodge",
    "harmonic_basis",
    "to_vertex_operator",
    "factorize_triangle",
    "cochain_from_vector",
    "operator_to_json",
    "operator_from_json",
]

KERNEL_REL_TOL = 1e-9


def _null_spaces(stack: np.ndarray):
    """(null-space basis, singular values) of each matrix in the stack,
    from one stacked SVD; the rank cut is relative to each largest
    singular value (an all-zero matrix has full null space)."""
    if stack.shape[1] == 0 or stack.shape[2] == 0:
        return [(np.eye(stack.shape[2]), np.zeros(0)) for _ in stack]
    _, sings, vts = np.linalg.svd(stack, full_matrices=True)
    ranks = (sings > KERNEL_REL_TOL * sings[:, :1]).sum(axis=1).tolist()
    return [(vt[rank:].conj().T, sing) for sing, vt, rank in zip(sings, vts, ranks)]


def _as_block(value, shape, what: str = "block", *, real: bool = False) -> np.ndarray:
    """Fresh copy of ``value`` with ``shape`` ((rows, cols), or l for
    (l, l)), typed by :func:`_exact_dtype`; ``real`` rejects a nonzero
    imaginary part.  A scalar is accepted for a (1, 1) block."""
    shape = (int(shape),) * 2 if np.ndim(shape) == 0 else tuple(shape)
    arr = np.asarray(value)
    if arr.shape == () and shape == (1, 1):
        arr = arr.reshape(1, 1)
    if arr.shape != shape:
        raise DomainError(f"{what} has shape {arr.shape}, expected {shape}")
    arr = _exact_dtype(arr)
    if real and np.iscomplexobj(arr):
        raise DomainError(f"{what} has a nonzero imaginary part")
    return arr


def _exact_dtype(arr: np.ndarray) -> np.ndarray:
    """Float copy of ``arr``, complex when some imaginary part is nonzero."""
    if np.iscomplexobj(arr) and np.all(arr.imag == 0):
        arr = arr.real
    return arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)


def _as_stack(mats: list, l: int) -> np.ndarray:
    """(B, l, l) copy of the blocks ``mats`` (scalars when l == 1), typed
    by :func:`_exact_dtype`.  Only a stack of the wrong shape is read block
    by block, so that the error names the bad block's shape."""
    try:
        arr = np.array(mats)
    except ValueError:  # ragged
        arr = np.empty(0)
    if not (arr.shape == (len(mats), l, l) or l == 1 and arr.shape == (len(mats),)):
        arr = np.array([_as_block(m, l) for m in mats])
    return _exact_dtype(arr.reshape(-1, l, l))


def _positions(keys, ids: np.ndarray) -> np.ndarray:
    """Position of each of ``ids`` in the list ``keys`` (the last one for
    a repeated key), -1 where absent; one lookup per distinct id."""
    where = dict(zip(keys, range(len(keys))))
    uniq, inv = np.unique(ids, return_inverse=True)
    return np.array([where.get(u, -1) for u in uniq.tolist()], dtype=np.intp)[inv]


def _close_symmetric(blocks: dict, partner, tol: float = 0.0) -> dict:
    """Symmetry closure of a block table, in place.

    ``partner(key)`` names the block that must equal the transpose of
    ``blocks[key]``.  A missing partner is filled with the transpose; a
    pair that differs (a non-symmetric block that is its own partner
    included) by at most ``tol`` in every entry is averaged, and a larger
    gap raises DomainError.  Exact tables pass 0 and JSON "symmetrize"
    the largest float.
    """
    for key in list(blocks):
        m, other = blocks[key], partner(key)
        have = blocks.get(other)
        if have is None:
            blocks[other] = m.T.copy()
        elif not np.array_equal(have, m.T):
            gap = float(np.max(np.abs(have - m.T)))
            if not gap <= tol:
                raise DomainError(
                    f"blocks {key} and {other} break symmetry by {gap:.3e}"
                )
            blocks[key] = 0.5 * (m + have.T)
            blocks[other] = blocks[key].T
    return blocks


def _matrix_to_json(m: np.ndarray):
    """Nested lists; a complex matrix stores each entry as [re, im]."""
    if np.iscomplexobj(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return np.asarray(m, dtype=float).tolist()


def _matrix_from_json(data, ndim: int = 2) -> np.ndarray:
    """The one decoder of JSON arrays with ``ndim`` axes: one extra
    trailing axis of length 2 holds [re, im] entries."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        arr = arr[..., 0] + 1j * arr[..., 1]
    return arr


@dataclass
class OperatorReport:
    """validate() output: exact structural flags computed from the blocks."""

    symmetric: bool
    real: bool
    order: int
    homogeneous: bool
    type_ps: tuple[int, int] | None


class DiscreteOperator:
    """Finite-order block operator attached to a simplicial complex.

    Parameters
    ----------
    complex : SimplicialComplex
    vec_dim : int
        Block size l.
    blocks : dict
        (target id, source id) -> (l, l) array.  The block multiplies
        psi(source) inside (L psi)(target).
    order : int, optional
        Declared order, at least 0; every block must respect
        distance <= order/2.
        Computed from the blocks when omitted.

    The nonzero blocks are kept once, in the input order, as the read-only
    ``stack`` of shape (B, l, l): row r couples ``target[r]`` to
    ``source[r]``, and ``partner[r]`` is the row of the block (source[r],
    target[r]), -1 when it is absent.  The stack is float unless some
    imaginary part is nonzero.  ``blocks`` is a read-only mapping from
    (target, source) to a view of the row, not a copy.  Nothing can change,
    so the structure flags (:meth:`is_real`, :meth:`is_symmetric`,
    :meth:`is_vertex_operator`) are derived once, from the stack.  The
    constructor reads the step count of a source within two incidence steps
    of its target off the incidence lists, runs one search per target with a
    farther source (of the 1-skeleton if all are vertices), stopped once those
    are labelled, and keeps only the computed order and the homogeneity flag;
    :meth:`validate` reads those and searches nothing.
    """

    def __init__(self, complex, vec_dim, blocks, *, order=None):
        ids = np.array(list(blocks), dtype=np.intp).reshape(-1, 2)
        self._build(complex, vec_dim, ids, list(blocks.values()), order)

    @classmethod
    def _from_stack(cls, complex, vec_dim, ids, stack, order=None):
        """The operator of the (B, 2) ids (no key twice) and (B, l, l) blocks ``stack``."""
        op = cls.__new__(cls)
        op._build(complex, vec_dim, ids, stack, order)
        return op

    def _build(self, complex, vec_dim, ids, mats, order):
        self.complex = complex
        self.vec_dim = int(vec_dim)
        if self.vec_dim < 1:
            raise DomainError("vec_dim must be positive")
        declared = None if order is None else int(order)
        if declared is not None and declared < 0:
            raise DomainError(f"declared order {declared} is negative")
        if len(bad := ids[(ids < 0) | (ids >= len(complex))]):
            raise DomainError(f"no simplex with id {bad[0]}")
        stack = _as_stack(mats, self.vec_dim)
        live = np.any(stack != 0, axis=(1, 2))
        self.stack, ids = stack[live], ids[live]
        self.target, self.source = ids.T.copy()
        # partner row: the row whose key is the reversed key
        n = len(complex)
        code, back = self.target * n + self.source, self.source * n + self.target
        by_code = np.argsort(code)
        hit = by_code[np.searchsorted(code, back, sorter=by_code).clip(max=len(code) - 1)]
        self.partner = np.where(code[hit] == back, hit, -1)
        for arr in (self.stack, self.target, self.source, self.partner):
            arr.setflags(write=False)
        # (real, symmetric, vertex-only): nothing can change, so derived here once
        self._flags = (
            not np.iscomplexobj(self.stack),
            bool(np.all(self.partner >= 0))
            and np.array_equal(self.stack, self.stack[self.partner].transpose(0, 2, 1)),
            not len(self.stack) or self._dims(np.r_[self.target, self.source])[1] == 0,
        )
        # the pair table and last kernel split of swronskian and verify
        self._pair_table = self._kernel_split = None

        # incidence steps of each block, in (target, source) order: read off
        # the incidence lists within two steps, else one search per target
        by_row = np.lexsort((self.source, self.target))
        rows = list(zip(self.target[by_row].tolist(), self.source[by_row].tolist()))
        inc, far, nv = complex._incidence, {}, len(complex._vertex_sid)
        steps = [0 if a == b else 1 if b in inc[a] else 2 if not set(inc[a]).isdisjoint(inc[b])
                 else None for a, b in rows]
        for (a, b), k in zip(rows, steps):
            if k is None:
                far.setdefault(a, []).append(b)
        reach = {}
        for a, bs in far.items():  # two vertices of a simplex share an edge: two steps per hop
            if max(a, *bs) < nv:
                src, *ends = (complex.simplices[sid].vertices[0] for sid in (a, *bs))
                hops = complex._skeleton_search(src, ends)
                reach[a] = {b: 2 * hops[v] for b, v in zip(bs, ends) if v in hops}
            else:
                reach[a] = complex._search(a, targets=bs)
        steps = [reach[a].get(b, -1) if k is None else k for (a, b), k in zip(rows, steps)]
        if lost := [row for row, k in zip(rows, steps) if k < 0]:
            raise DomainError(f"block {lost[0]} joins different components")
        if declared is not None and (over := [r for r, k in zip(rows, steps) if k > declared]):
            raise DomainError(f"blocks {over[:3]} exceed declared order {declared}")
        levels = {k for (a, b), k in zip(rows, steps) if a != b}
        self._computed_order = max(levels, default=0)
        self._homogeneous = len(levels) == 1
        self.order = self._computed_order if declared is None else declared

    @cached_property
    def blocks(self):
        """Read-only (target, source) -> view of the stack row."""
        keys = zip(self.target.tolist(), self.source.tolist())
        return MappingProxyType(dict(zip(keys, self.stack)))

    # -- action ------------------------------------------------------------

    def stencil(self, sid: int) -> list[int]:
        """Source simplices feeding the value at ``sid``."""
        return sorted(self.source[self.target == sid].tolist())

    def apply(self, psi: dict, at=None) -> dict:
        """Evaluate L psi on ``at`` (default: every simplex of the complex).

        Raises DomainError naming the first simplex whose value is needed
        but missing from ``psi``.
        """
        targets = list(dict.fromkeys(range(len(self.complex)) if at is None else at))
        slot = _positions(targets, self.target)
        # rows feeding the targets, in target order, then by source
        rows = np.lexsort((self.source, slot))
        rows = rows[slot[rows] >= 0]
        need, inv = np.unique(self.source[rows], return_inverse=True)
        if lost := [b for b in need.tolist() if b not in psi]:
            first = rows[np.isin(self.source[rows], lost)][0]
            raise DomainError(f"psi undefined on simplex {self.source[first]} "
                              f"required at {self.target[first]}")
        vals = np.array([np.ravel(psi[b]) for b in need.tolist()], dtype=complex)
        vals = vals.reshape(len(need), self.vec_dim)
        return dict(zip(targets, self._act(rows, vals[inv], slot[rows], len(targets))))

    def _act(self, rows, x, into, n: int) -> np.ndarray:
        """(n, l) sums of stack rows ``rows`` times ``x`` (one per row), each added at ``into``."""
        out = np.zeros((n, self.vec_dim), dtype=np.result_type(self.stack, x))
        np.add.at(out, into, np.einsum("rij,rj->ri", self.stack[rows], x))
        return out

    # -- structure ---------------------------------------------------------

    def _dims(self, ids: np.ndarray) -> tuple[int, int]:
        """Lowest and highest dimension of ``ids`` (ids ascend with dimension)."""
        return (self.complex.simplex(int(ids.min())).dim,
                self.complex.simplex(int(ids.max())).dim)

    def is_real(self) -> bool:
        return self._flags[0]

    def is_symmetric(self) -> bool:
        return self._flags[1]

    def is_vertex_operator(self) -> bool:
        return self._flags[2]

    def validate(self) -> OperatorReport:
        """Structure report; reads what the constructor kept, no search."""
        type_ps = None
        if len(self.stack):
            (s_lo, s_hi), (t_lo, t_hi) = self._dims(self.source), self._dims(self.target)
            if s_lo == s_hi and t_lo == t_hi:
                type_ps = (s_lo, t_lo)
        return OperatorReport(
            symmetric=self.is_symmetric(),
            real=self.is_real(),
            order=self._computed_order,
            homogeneous=self._homogeneous,
            type_ps=type_ps,
        )

    # -- dense form ----------------------------------------------------------

    def dense(self, sids=None) -> tuple[np.ndarray, dict[int, int]]:
        """Dense matrix over the listed simplices (default: all), plus the
        id -> block-row-offset index."""
        if sids is None:
            sids = [s.id for s in self.complex.simplices]
        l = self.vec_dim
        index = {sid: i * l for i, sid in enumerate(sids)}
        rows, cols = _positions(sids, np.r_[self.target, self.source]).reshape(2, -1)
        inside = (rows >= 0) & (cols >= 0)
        mat = np.zeros((len(sids), l, len(sids), l), dtype=self.stack.dtype)
        mat[rows[inside], :, cols[inside], :] = self.stack[inside]
        return mat.reshape(len(sids) * l, len(sids) * l), index


# -- cochain helpers --------------------------------------------------------


def cochain_from_vector(vec: np.ndarray, sids, vec_dim: int) -> dict:
    """sid -> its length-``vec_dim`` slice of ``vec``, as the rows of one (n, vec_dim)
    copy: writing into one value changes neither ``vec`` nor any other value."""
    return dict(zip(sids, np.array(vec).reshape(-1, vec_dim)))


# -- subdivision transport ---------------------------------------------------


def to_vertex_operator(op: DiscreteOperator):
    """Repack an order-k operator as an order-2k vertex operator on the
    barycentric subdivision.

    Returns (vertex_op, subdivided_complex, center_map) where center_map
    sends each original simplex id to the label of its center vertex.
    Values move by pure reindexing: psi'(center(a)) = psi(a).
    """
    sub, center_map = barycentric_subdivision(op.complex)
    center = np.array([sub.vertex_sid(center_map[s.id]) for s in op.complex.simplices])
    ids = center[np.stack((op.target, op.source), axis=1)]
    vertex_op = DiscreteOperator._from_stack(sub, op.vec_dim, ids, op.stack, 2 * op.order)
    return vertex_op, sub, center_map


# -- Hodge operators ----------------------------------------------------------


@dataclass
class HodgeOperators:
    """First-order mixed-degree operator d + d* and its square's blocks."""

    operator: DiscreteOperator
    laplacians: list[np.ndarray]


def build_hodge(complex: SimplicialComplex, vec_dim: int = 1) -> HodgeOperators:
    """Assemble d + d* from signed incidence; its square is block diagonal
    with one combinatorial Laplacian per degree."""
    eye = np.eye(vec_dim)
    blocks = {}
    for k in range(1, complex.dim + 1):
        for s in complex.simplices_of_dim(k):
            for fid, sign in complex.faces(s.id):
                blocks[(s.id, fid)] = sign * eye
                blocks[(fid, s.id)] = sign * eye
    op = DiscreteOperator(complex, vec_dim, blocks, order=1)

    laplacians = []
    for k in range(complex.dim + 1):
        nk = len(complex.simplices_of_dim(k))
        lap = np.zeros((nk * vec_dim, nk * vec_dim))
        if k >= 1:
            bk = np.kron(complex.boundary_matrix(k).astype(float), eye)
            lap += bk.T @ bk
        if k < complex.dim:
            bk1 = np.kron(complex.boundary_matrix(k + 1).astype(float), eye)
            lap += bk1 @ bk1.T
        laplacians.append(lap)
    return HodgeOperators(operator=op, laplacians=laplacians)


def harmonic_basis(complex: SimplicialComplex, vec_dim: int = 1) -> list[np.ndarray]:
    """Orthonormal kernel bases of the degree Laplacians, one per degree.

    Column counts are the Betti numbers (times vec_dim).  The kernel cut
    is :func:`_null_spaces`'s: singular values at most ``KERNEL_REL_TOL``
    times the Laplacian's largest one (a zero Laplacian is all kernel).
    """
    return [_null_spaces(lap[None])[0][0] for lap in build_hodge(complex, vec_dim).laplacians]


# -- two-colored triangulation factorization ----------------------------------


@dataclass
class TriangleFactorization:
    """Vertex operator L = Q Q^t + V built from black-triangle couplings."""

    q_op: DiscreteOperator
    operator: DiscreteOperator
    black: tuple[int, ...]


def factorize_triangle(
    complex: SimplicialComplex,
    black,
    coefficients: dict,
    potential: dict | None = None,
) -> TriangleFactorization:
    """Build L = Q Q^t + V on the vertices of a two-colored triangulation.

    Parameters
    ----------
    black : iterable of 2-simplex ids forming one color class.  Validity
        of the coloring is checked: no edge interior to the triangulation
        may have both of its triangles in the same class.
    coefficients : (vertex label, triangle id) -> real coupling c.
        Every (vertex of T, T) pair for black T must be present.
    potential : vertex label -> real value, optional.

    Q maps black-triangle functions to vertex functions with
    (Q f)(P) = sum over black T containing P of c[P, T] f(T); the product
    contributes b_{P:P'} = sum over black T containing both of
    c[P, T] c[P', T].
    """
    black = tuple(sorted(int(t) for t in black))
    black_set = set(black)
    triangles = {s.id for s in complex.simplices_of_dim(2)}
    if not black_set <= triangles:
        raise DomainError("black list contains non-triangle ids")
    for s in complex.simplices_of_dim(1):
        cof = [t for t in complex.cofaces(s.id) if complex.simplex(t).dim == 2]
        if len(cof) == 2:
            in_black = sum(1 for t in cof if t in black_set)
            if in_black in (0, 2):
                raise DomainError(
                    f"edge {s.vertices} has both triangles in one color class"
                )
        elif len(cof) > 2:
            raise DomainError(
                f"edge {s.vertices} lies in {len(cof)} triangles; not a surface"
            )

    q_blocks = {}
    for t in black:
        tri = complex.simplex(t)
        for p in tri.vertices:
            key = (p, t)
            if key not in coefficients:
                raise DomainError(f"missing coefficient for vertex {p} in triangle {t}")
            q_blocks[(complex.vertex_sid(p), t)] = np.array(
                [[float(coefficients[key])]]
            )
    q_op = DiscreteOperator(complex, 1, q_blocks, order=1)

    l_blocks: dict[tuple[int, int], np.ndarray] = {}
    for t in black:
        tri = complex.simplex(t)
        for p in tri.vertices:
            for p2 in tri.vertices:
                key = (complex.vertex_sid(p), complex.vertex_sid(p2))
                add = float(coefficients[(p, t)]) * float(coefficients[(p2, t)])
                l_blocks[key] = l_blocks.get(key, np.zeros((1, 1))) + add
    if potential:
        for p, v in potential.items():
            key = (complex.vertex_sid(p), complex.vertex_sid(p))
            l_blocks[key] = l_blocks.get(key, np.zeros((1, 1))) + float(v)
    op = DiscreteOperator(complex, 1, l_blocks, order=2)
    return TriangleFactorization(q_op=q_op, operator=op, black=black)


# -- serialization -------------------------------------------------------------


def operator_to_json(op: DiscreteOperator) -> dict:
    return {
        "order": op.order,
        "vec_dim": op.vec_dim,
        "blocks": [
            {"from": b, "to": a, "matrix": _matrix_to_json(_exact_dtype(m))}
            for (a, b), m in sorted(op.blocks.items())
        ],
    }


def operator_from_json(
    complex: SimplicialComplex, data: dict, *, on_asymmetry: str = "reject"
) -> DiscreteOperator:
    """Load an operator; symmetry closure per ``on_asymmetry``.

    "reject": a block whose transpose partner is absent or mismatched is
    an error.  "symmetrize": missing partners are filled with transposes
    and mismatched pairs averaged, the rule (with no finite bound on the
    gap) by which ``linearize`` closes its Hessian blocks.
    """
    if on_asymmetry not in ("reject", "symmetrize"):
        raise DomainError(f"unknown asymmetry policy {on_asymmetry!r}")
    l = int(data["vec_dim"])
    blocks = _distinct((((int(b["to"]), int(b["from"])), _as_block(_matrix_from_json(b["matrix"]), l))
                        for b in data["blocks"]), lambda key: f"duplicate block for pair {key}")
    tol = 0.0
    if on_asymmetry == "reject":
        lost = [(b, a) for a, b in sorted(blocks) if (b, a) not in blocks]
        if lost:
            raise DomainError(f"block {lost[0]} missing for symmetry closure")
    else:  # any finite gap is averaged; an infinite one still raises
        tol = np.finfo(float).max
    _close_symmetric(blocks, lambda key: key[::-1], tol)
    order = data.get("order")
    return DiscreteOperator(
        complex, l, blocks, order=None if order is None else int(order)
    )


def load_operator(path: str, complex: SimplicialComplex, **kw) -> DiscreteOperator:
    return operator_from_json(complex, _read_json(path), **kw)


def save_operator(op: DiscreteOperator, path: str) -> None:
    _write_json(operator_to_json(op), path)
