"""Symplectic Wronskian 1-chains of solution pairs.

For a real symmetric vertex operator L and two solutions psi, phi of
(L - lambda) f = 0, the chain

    W(psi, phi) = sum over unordered vertex pairs {a, b} with a block
                  of  c_ab * [canonical path a -> b]

with the skew coefficient

    c_ab = sum_ij blocks[(a, b)][i, j] * (psi_i(a) phi_j(b) - phi_i(a) psi_j(b))

has zero boundary: the net coefficient flowing into any vertex where both
eigenvalue equations hold vanishes identically.  The boundary residual at
a vertex equals (up to sign) phi(a) . (L-lambda)psi(a) minus
psi(a) . (L-lambda)phi(a), so the cycle condition is local.

Pairs are enumerated once with the lower simplex id first; the skew
symmetry c_ba = -c_ab makes the chain orientation independent.

The pair table (the operator's stack rows of the pairs, their endpoints
and the signed pair -> edge incidence of the canonical paths) is built
once per operator and kept on it; each chain is then two ``einsum``s over
those rows and three ``bincount``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .complex_core import Chain1, DomainError, _descent, _max_or_nan
from .operators import DiscreteOperator

__all__ = [
    "SWronskianChain",
    "CycleReport",
    "elementary_swronskian",
    "swronskian",
    "verify_cycle",
    "quantum_current",
]

CYCLE_TOL_REL = 1e-9


def _vertex_label(op: DiscreteOperator, sid: int) -> int:
    s = op.complex.simplex(sid)
    if s.dim != 0:
        raise DomainError(f"simplex {sid} is not a vertex")
    return s.vertices[0]


def _check_vertex_operator(op: DiscreteOperator, *, require_real: bool) -> None:
    if not op.is_vertex_operator():
        raise DomainError("operator blocks must join vertices only")
    if require_real and not op.is_real():
        raise DomainError("chain construction requires a real operator")
    if not op.is_symmetric():
        raise DomainError("chain construction requires a symmetric operator")


class _PairTable:
    """Stack ``rows`` of the block pairs a < b with their endpoints
    ``ia``/``ib`` (into ``verts``), and one incidence entry (``edge_pos``
    into ``edges``, ``pair``, ``sign``) per step of each canonical path
    a -> b.  An edge joining a and b is their only minimal path; a farther
    pair takes :func:`canonical_path`'s descent, after one search per b.
    """

    def __init__(self, op: DiscreteOperator):
        self.rows = np.flatnonzero(op.target < op.source)
        tgt, src = op.target[self.rows], op.source[self.rows]
        verts, ends = np.unique(np.r_[tgt, src], return_inverse=True)
        self.verts, self.ia, self.ib = verts.tolist(), ends[: len(tgt)], ends[len(tgt) :]
        labels = [_vertex_label(op, sid) for sid in self.verts]
        cx, starts, steps = op.complex, {}, []
        pairs = [(labels[a], labels[b]) for a, b in zip(self.ia.tolist(), self.ib.tolist())]
        eids = [cx._edge_sid.get((a, b) if a < b else (b, a)) for a, b in pairs]
        for a, b in compress(pairs, [eid is None for eid in eids]):
            starts.setdefault(b, []).append(a)
        dist = {b: cx._skeleton_search(b, near) for b, near in starts.items()}
        for p, ((a, b), eid) in enumerate(zip(pairs, eids)):  # pair order fixes the sums' bits
            if eid is not None:
                steps.append((eid, p, 1 if a < b else -1))
            else:
                steps += [(e, p, sign) for e, sign in _descent(cx, a, dist[b])]
        eids, self.pair, self.sign = np.array(steps, dtype=np.intp).reshape(-1, 3).T
        self.edges, self.edge_pos = np.unique(eids, return_inverse=True)


def _pair_chain(op: DiscreteOperator, psi: dict, phi: dict, support: set) -> Chain1:
    """Sum of c_ab [canonical path a -> b] over the pairs inside
    ``support``; a pair with c_ab == 0 touches no edge."""
    for name, values in (("psi", psi), ("phi", phi)):
        if missing := support.difference(values):
            raise DomainError(
                f"{name} undefined on simplex {min(missing)} in the support"
            )
    t = op._pair_table = op._pair_table or _PairTable(op)
    inside = np.fromiter((sid in support for sid in t.verts), bool, len(t.verts))
    vals = []  # psi and phi each in its own dtype: real values take real products
    for name, values in (("psi", psi), ("phi", phi)):
        live = [values[sid] for sid in compress(t.verts, inside)]
        try:
            arr = np.array(live).reshape(len(live), op.vec_dim)
        except ValueError:
            for sid in compress(t.verts, inside):
                if np.size(values[sid]) != op.vec_dim:
                    raise DomainError(
                        f"{name} value at simplex {sid} has {np.size(values[sid])} "
                        f"entries, operator expects vec_dim {op.vec_dim}"
                    ) from None
            raise
        vals.append(np.zeros((len(t.verts), op.vec_dim), complex if np.iscomplexobj(arr) else float))
        vals[-1][inside] = arr
    p, f = vals
    blocks = op.stack[t.rows]
    # psi(a) . B phi(b) - phi(a) . B psi(b); B = block between a (rows) and b
    coeff = np.einsum("pi,pij,pj->p", p[t.ia], blocks, f[t.ib])
    coeff -= np.einsum("pi,pij,pj->p", f[t.ia], blocks, p[t.ib])
    hit = (inside[t.ia] & inside[t.ib] & (coeff != 0))[t.pair]
    pos, steps, n = t.edge_pos[hit], t.sign[hit] * coeff[t.pair[hit]], len(t.edges)
    sums = np.bincount(pos, steps.real, n) + 1j * np.bincount(pos, steps.imag, n)
    touched = np.bincount(pos, minlength=n) > 0
    return Chain1(op.complex, zip(t.edges[touched].tolist(), sums[touched].tolist()))


@dataclass
class SWronskianChain:
    """A solution-pair chain plus the data it was built from."""

    chain: Chain1
    operator: DiscreteOperator
    lam: complex
    psi: dict
    phi: dict
    support: set = field(default_factory=set)

    def max_abs(self) -> float:
        return self.chain.max_abs()


@dataclass
class CycleReport:
    max_boundary_residual: float
    scale: float
    tol: float
    passed: bool
    checked_vertices: list
    excluded_vertices: list


def elementary_swronskian(
    op: DiscreteOperator, psi: dict, phi: dict, a: int, b: int
) -> Chain1:
    """Contribution of the single simplex pair (a, b) as a 1-chain: the
    pair chain on the support {a, b}, so (b, a) gives the same chain and
    a == b the zero chain (a symmetric block's skew bracket cancels).
    """
    _check_vertex_operator(op, require_real=False)
    return _pair_chain(op, psi, phi, {a, b})


def swronskian(
    op: DiscreteOperator,
    lam,
    psi: dict,
    phi: dict,
    *,
    support=None,
    require_real: bool = True,
) -> SWronskianChain:
    """Assemble the full pair chain over every coupled vertex pair.

    ``support`` restricts the vertex set (default: common domain of psi
    and phi); pairs with an endpoint outside the support are skipped, so
    finite windows of infinite problems truncate gracefully.  The cycle
    property then holds at interior vertices, see :func:`verify_cycle`.
    A support vertex missing from psi or phi raises DomainError.
    """
    _check_vertex_operator(op, require_real=require_real)
    support = set(psi) & set(phi) if support is None else set(support)
    return SWronskianChain(
        chain=_pair_chain(op, psi, phi, support), operator=op, lam=complex(lam),
        psi=psi, phi=phi, support=support,
    )


def interior_vertices(op: DiscreteOperator, support) -> list[int]:
    """Vertices of ``support``, ascending, whose whole stencil lies inside it."""
    support = set(support)
    fringe = op.target[~np.isin(op.source, list(support))]
    return sorted(support.difference(fringe.tolist()))


def verify_cycle(
    w: SWronskianChain, *, tol_rel: float = CYCLE_TOL_REL, interior=None
) -> CycleReport:
    """Check that the chain boundary vanishes at interior vertices.

    Interior defaults to the support vertices whose full stencil lies in
    the support; fringe vertices of a truncation are reported as
    excluded, not failed.  A non-finite residual or scale fails.
    """
    op = w.operator
    if interior is None:
        interior = interior_vertices(op, w.support)
    interior = list(interior)
    labels = {_vertex_label(op, sid) for sid in interior}
    excluded = sorted(set(w.support) - set(interior))
    bdry = w.chain.boundary()
    residual = _max_or_nan([abs(bdry.get(lab, 0.0)) for lab in labels])
    scale = w.chain.max_abs()
    tol = tol_rel * scale
    # a NaN or infinite scale fails the first test, such a residual the second
    passed = scale < np.inf and (residual <= tol if scale > 0 else residual == 0.0)
    return CycleReport(
        max_boundary_residual=float(residual),
        scale=float(scale),
        tol=float(tol),
        passed=bool(passed),
        checked_vertices=sorted(interior),
        excluded_vertices=excluded,
    )


def quantum_current(op: DiscreteOperator, lam, psi: dict, *, support=None) -> SWronskianChain:
    """Pair chain of a solution with its own conjugate at real lambda.

    Coefficients are purely imaginary; the boundary condition is the
    lattice Kirchhoff law for the probability current.
    """
    lam = complex(lam)
    if abs(lam.imag) > 0:
        raise DomainError("quantum current needs a real eigenvalue")
    phi = {sid: np.conj(np.asarray(v, dtype=complex)) for sid, v in psi.items()}
    return swronskian(op, lam.real, psi, phi, support=support)
