"""Block finite-order operators on simplicial complexes.

An operator of order k and block size l acts on vector-valued simplex
functions by ``(L psi)(a) = sum_b blocks[(a, b)] @ psi(b)``, where the
block between simplices a and b may be nonzero only when their simplex
distance is at most k/2.  Symmetry means blocks[(a, b)] equals the
transpose of blocks[(b, a)] entry for entry.

Simplex functions ("cochains") are plain dicts mapping simplex id to a
length-l numpy vector; helpers below convert to and from flat vectors in
id order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .complex_core import (
    DomainError,
    SimplicialComplex,
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
    "cochain_as_vector",
    "cochain_from_vector",
    "random_cochain",
    "operator_to_json",
    "operator_from_json",
]

KERNEL_THRESHOLD_REL = 1e-9


def _as_block(value, l: int) -> np.ndarray:
    """Fresh (l, l) copy of ``value``: float, or complex when some
    imaginary part is nonzero.  A scalar is accepted when l == 1."""
    arr = np.asarray(value)
    if arr.shape == () and l == 1:
        arr = arr.reshape(1, 1)
    if arr.shape != (l, l):
        raise DomainError(f"block has shape {arr.shape}, expected ({l}, {l})")
    if np.iscomplexobj(arr) and np.all(arr.imag == 0):
        arr = arr.real
    return arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)


def _close_symmetric(blocks: dict, partner, tol: float = 0.0) -> dict:
    """Symmetry closure of a block table, in place.

    ``partner(key)`` names the block that must equal the transpose of
    ``blocks[key]``.  A missing partner is filled with the transpose; a
    pair that differs (a non-symmetric block that is its own partner
    included) by at most ``tol`` in every entry is averaged, and a larger
    gap raises DomainError.  Exact tables pass 0, ``linearize`` its
    ``asym_tol`` bound and JSON "symmetrize" the largest float.
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


def _matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 3:  # [[re, im], ...] entries
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

    The stored blocks are read-only, so the structure flags
    (:meth:`is_real`, :meth:`is_symmetric`, :meth:`is_vertex_operator`)
    are derived once, on first use.  The constructor runs one incidence
    search per target simplex, stopped once its sources are labelled, and
    keeps only the computed order and the homogeneity flag; :meth:`validate`
    reads those and searches nothing.
    """

    def __init__(self, complex, vec_dim, blocks, *, order=None):
        self.complex = complex
        self.vec_dim = int(vec_dim)
        if self.vec_dim < 1:
            raise DomainError("vec_dim must be positive")
        declared = None if order is None else int(order)
        if declared is not None and declared < 0:
            raise DomainError(f"declared order {declared} is negative")
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        sources: dict[int, list[int]] = {}
        for (a, b), m in blocks.items():
            complex.simplex(a), complex.simplex(b)
            arr = _as_block(m, self.vec_dim)
            if np.any(arr != 0):
                a, b = int(a), int(b)
                arr.setflags(write=False)
                self.blocks[(a, b)] = arr
                sources.setdefault(a, []).append(b)
        # target -> sorted sources, read by stencil and apply
        self._sources = {a: sorted(bs) for a, bs in sources.items()}
        self._structure: tuple[bool, bool, bool] | None = None
        # the pair table and last kernel split of swronskian and verify
        self._pair_table = self._kernel_split = None

        levels, over = set(), []
        for a, bs in self._sources.items():
            others = [b for b in bs if b != a]
            reach = complex._search(a, targets=others)
            for b in others:
                if b not in reach:
                    raise DomainError(
                        f"block ({a}, {b}) joins different components"
                    )
                levels.add(reach[b])
                if declared is not None and reach[b] > declared:
                    over.append((a, b))
        if over:
            raise DomainError(
                f"blocks {over[:3]} exceed declared order {declared}"
            )
        self._computed_order = max(levels, default=0)
        self._homogeneous = len(levels) == 1
        self.order = self._computed_order if declared is None else declared

    # -- action ------------------------------------------------------------

    def stencil(self, sid: int) -> list[int]:
        """Source simplices feeding the value at ``sid``."""
        return list(self._sources.get(sid, ()))

    def apply(self, psi: dict, at=None) -> dict:
        """Evaluate L psi on ``at`` (default: every simplex of the complex).

        Raises DomainError naming the first simplex whose value is needed
        but missing from ``psi``.
        """
        targets = (
            [s.id for s in self.complex.simplices] if at is None else list(at)
        )
        out: dict[int, np.ndarray] = {}
        for a in targets:
            acc = np.zeros(self.vec_dim, dtype=complex)
            for b in self._sources.get(a, ()):
                if b not in psi:
                    raise DomainError(
                        f"psi undefined on simplex {b} required at {a}"
                    )
                m = self.blocks[(a, b)]
                acc = acc + m @ np.asarray(psi[b], dtype=complex).reshape(-1)
            out[a] = acc
        return out

    # -- structure ---------------------------------------------------------

    def _flags(self) -> tuple[bool, bool, bool]:
        """(real, symmetric, vertex-only), computed on the first call."""
        if self._structure is None:
            real = symmetric = vertex = True
            simplex = self.complex.simplex
            for (a, b), m in self.blocks.items():
                real = real and not np.iscomplexobj(m)
                if symmetric:
                    partner = self.blocks.get((b, a))
                    symmetric = partner is not None and np.array_equal(m, partner.T)
                vertex = vertex and simplex(a).dim == 0 and simplex(b).dim == 0
            self._structure = (real, symmetric, vertex)
        return self._structure

    def is_real(self) -> bool:
        return self._flags()[0]

    def is_symmetric(self) -> bool:
        return self._flags()[1]

    def is_vertex_operator(self) -> bool:
        return self._flags()[2]

    def validate(self) -> OperatorReport:
        """Structure report; reads what the constructor kept, no search."""
        src_dims = {self.complex.simplex(b).dim for _, b in self.blocks}
        tgt_dims = {self.complex.simplex(a).dim for a, _ in self.blocks}
        type_ps = None
        if len(src_dims) == 1 and len(tgt_dims) == 1:
            type_ps = (next(iter(src_dims)), next(iter(tgt_dims)))
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
        index = {sid: i * self.vec_dim for i, sid in enumerate(sids)}
        n = len(sids) * self.vec_dim
        dtype = float if self.is_real() else complex
        mat = np.zeros((n, n), dtype=dtype)
        for (a, b), m in self.blocks.items():
            if a in index and b in index:
                mat[index[a] : index[a] + self.vec_dim,
                    index[b] : index[b] + self.vec_dim] = m
        return mat, index


# -- cochain helpers --------------------------------------------------------


def cochain_as_vector(psi: dict, sids, vec_dim: int) -> np.ndarray:
    out = np.zeros(len(sids) * vec_dim, dtype=complex)
    for i, sid in enumerate(sids):
        if sid in psi:
            out[i * vec_dim : (i + 1) * vec_dim] = np.asarray(psi[sid]).reshape(-1)
    return out


def cochain_from_vector(vec: np.ndarray, sids, vec_dim: int) -> dict:
    vec = np.asarray(vec).reshape(-1)
    return {
        sid: vec[i * vec_dim : (i + 1) * vec_dim].copy()
        for i, sid in enumerate(sids)
    }


def random_cochain(complex, vec_dim: int, rng, sids=None, complex_valued=False):
    if sids is None:
        sids = [s.id for s in complex.simplices]
    out = {}
    for sid in sids:
        v = rng.standard_normal(vec_dim)
        if complex_valued:
            v = v + 1j * rng.standard_normal(vec_dim)
        out[sid] = v
    return out


# -- subdivision transport ---------------------------------------------------


def to_vertex_operator(op: DiscreteOperator):
    """Repack an order-k operator as an order-2k vertex operator on the
    barycentric subdivision.

    Returns (vertex_op, subdivided_complex, center_map) where center_map
    sends each original simplex id to the label of its center vertex.
    Values move by pure reindexing: psi'(center(a)) = psi(a).
    """
    sub, center_map = barycentric_subdivision(op.complex)
    blocks = {}
    for (a, b), m in op.blocks.items():
        va = sub.vertex_sid(center_map[a])
        vb = sub.vertex_sid(center_map[b])
        blocks[(va, vb)] = m
    vertex_op = DiscreteOperator(sub, op.vec_dim, blocks, order=2 * op.order)
    return vertex_op, sub, center_map


def cochain_to_vertex(psi: dict, sub: SimplicialComplex, center_map: dict) -> dict:
    return {sub.vertex_sid(center_map[sid]): v for sid, v in psi.items()}


def cochain_from_vertex(psi: dict, sub: SimplicialComplex, center_map: dict) -> dict:
    back = {sub.vertex_sid(c): sid for sid, c in center_map.items()}
    return {back[vid]: v for vid, v in psi.items()}


# -- Hodge operators ----------------------------------------------------------


@dataclass
class HodgeOperators:
    """First-order mixed-degree operator d + d* and its square's blocks."""

    operator: DiscreteOperator
    laplacians: list[np.ndarray]
    dims: list[int]


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
    dims = []
    for k in range(complex.dim + 1):
        nk = len(complex.simplices_of_dim(k))
        dims.append(nk)
        lap = np.zeros((nk * vec_dim, nk * vec_dim))
        if k >= 1:
            bk = np.kron(complex.boundary_matrix(k).astype(float), eye)
            lap += bk.T @ bk
        if k < complex.dim:
            bk1 = np.kron(complex.boundary_matrix(k + 1).astype(float), eye)
            lap += bk1 @ bk1.T
        laplacians.append(lap)
    return HodgeOperators(operator=op, laplacians=laplacians, dims=dims)


def harmonic_basis(
    complex: SimplicialComplex,
    vec_dim: int = 1,
    *,
    threshold_rel: float = KERNEL_THRESHOLD_REL,
) -> list[np.ndarray]:
    """Orthonormal kernel bases of the degree Laplacians, one per degree.

    Column counts are the Betti numbers (times vec_dim).  The kernel cut
    uses singular values below threshold_rel times the matrix infinity
    norm (or an absolute floor for zero matrices).
    """
    hodge = build_hodge(complex, vec_dim)
    bases = []
    for lap in hodge.laplacians:
        if lap.size == 0:
            bases.append(np.zeros((0, 0)))
            continue
        scale = np.linalg.norm(lap, np.inf)
        if scale == 0.0:
            bases.append(np.eye(lap.shape[0]))
            continue
        # rows of vt with tiny singular value span the kernel (symmetric PSD)
        _, s, vt = np.linalg.svd(lap)
        cut = threshold_rel * scale
        n_small = int(np.sum(s <= cut))
        kernel = vt[len(s) - n_small :].T if n_small else np.zeros((lap.shape[0], 0))
        bases.append(kernel)
    return bases


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
            {"from": b, "to": a, "matrix": _matrix_to_json(m)}
            for (a, b), m in sorted(op.blocks.items())
        ],
    }


def operator_from_json(
    complex: SimplicialComplex, data: dict, *, on_asymmetry: str = "reject"
) -> DiscreteOperator:
    """Load an operator; symmetry closure per ``on_asymmetry``.

    "reject": a block whose transpose partner is absent or mismatched is
    an error.  "symmetrize": missing partners are filled with transposes
    and mismatched pairs averaged, through the same closure (with no
    finite bound on the gap) that averages the Hessian blocks of
    ``linearize``.
    """
    if on_asymmetry not in ("reject", "symmetrize"):
        raise DomainError(f"unknown asymmetry policy {on_asymmetry!r}")
    l = int(data["vec_dim"])
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for item in data["blocks"]:
        key = (int(item["to"]), int(item["from"]))
        if key in blocks:
            raise DomainError(f"duplicate block for pair {key}")
        blocks[key] = _as_block(_matrix_from_json(item["matrix"]), l)
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
    with open(path) as fh:
        return operator_from_json(complex, json.load(fh), **kw)


def save_operator(op: DiscreteOperator, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(operator_to_json(op), fh, indent=1, sort_keys=True)
        fh.write("\n")
