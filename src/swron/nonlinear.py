"""Discrete Lagrangian field systems on graphs and their linearization.

A system is a dim <= 1 complex together with interaction terms: each
term owns an ordered tuple Q of vertices and a density, a smooth
function of the field values on Q.  The action of a finite field
configuration is the sum of the densities; its derivative with respect
to the value at P (the Euler-Lagrange residual) involves only the
interactions containing P, so stationarity is a local condition.

Linearizing the residual map at a configuration gives a block operator
whose blocks are the mixed second derivatives summed over shared
interactions; for a stationary point the operator is symmetric, and the
symplectic Wronskian of two kernel variations is again a conserved
1-chain (the variational pair form).
"""

from __future__ import annotations

import ast
import math
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .complex_core import DomainError, SimplicialComplex
from .operators import DiscreteOperator, _close_symmetric
from .swronskian import SWronskianChain, swronskian

__all__ = [
    "Density",
    "DiscreteLagrangianSystem",
    "DegeneracyError",
    "NonConvergenceError",
    "LinearizeResult",
    "quadratic_pair_density",
    "standard_map_density",
    "expression_density",
    "DENSITIES",
    "el_residual",
    "local_action",
    "dynamical_step",
    "linearize",
    "variational_swronskian",
    "build_translation_invariant",
    "build_homogeneous_order4",
]


class DegeneracyError(DomainError):
    """A cross Hessian needed for stepping is singular."""


class NonConvergenceError(RuntimeError):
    """Newton iteration failed to reach tolerance."""


_FD_STEP = float(np.cbrt(np.finfo(float).eps))


class Density:
    """Interaction density of ``nvars`` vector slots.

    ``value(xs)`` maps a list of slot vectors to a float.  ``grad`` and
    ``hess`` may be omitted; central finite differences fill in, with
    the ``uses_fd`` flag set so downstream code can flag the reduced
    accuracy instead of hiding it.
    """

    def __init__(self, nvars, value, grad=None, hess=None, name=""):
        self.nvars = int(nvars)
        self._value = value
        self._grad = grad
        self._hess = hess
        self.name = name or "density"
        self.uses_fd = grad is None or hess is None

    def value(self, xs) -> float:
        return float(self._value(*xs))

    def grad(self, xs, slot: int) -> np.ndarray:
        if self._grad is not None:
            return np.asarray(self._grad(slot, *xs), dtype=float).reshape(-1)
        return _central(self.value, xs, slot)

    def hess(self, xs, slot_a: int, slot_b: int) -> np.ndarray:
        if self._hess is not None:
            return np.atleast_2d(
                np.asarray(self._hess(slot_a, slot_b, *xs), dtype=float)
            )
        return _central(lambda ys: self.grad(ys, slot_a), xs, slot_b)


def _central(f, xs, slot: int) -> np.ndarray:
    """Central differences of ``f(xs)`` in each entry of ``xs[slot]``,
    stacked along the last axis."""
    x = np.asarray(xs[slot], dtype=float).reshape(-1)
    cols = []
    for i in range(len(x)):
        h = _FD_STEP * max(1.0, abs(x[i]))
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        fu = np.asarray(f(xs[:slot] + [up] + xs[slot + 1 :]))
        fd = np.asarray(f(xs[:slot] + [dn] + xs[slot + 1 :]))
        cols.append((fu - fd) / (2 * h))
    return np.stack(cols, axis=-1)


def quadratic_pair_density(weight: float = 1.0) -> Density:
    """0.5 * weight * |x - y|^2 on an edge."""
    w = float(weight)
    return Density(
        2,
        lambda x, y: 0.5 * w * float(np.sum((np.asarray(x) - np.asarray(y)) ** 2)),
        grad=lambda slot, x, y: w * (np.asarray(x) - np.asarray(y)) * (1 if slot == 0 else -1),
        hess=lambda a, b, x, y: w * np.eye(np.size(x)) * (1 if a == b else -1),
        name="quadratic",
    )


def standard_map_density(kick: float = 1.0) -> Density:
    """0.5 (x - y)^2 + kick * cos(x) on an edge of the line (scalar)."""
    kk = float(kick)

    def val(x, y):
        x = float(np.asarray(x).reshape(()))
        y = float(np.asarray(y).reshape(()))
        return 0.5 * (x - y) ** 2 + kk * math.cos(x)

    def grad(slot, x, y):
        x = float(np.asarray(x).reshape(()))
        y = float(np.asarray(y).reshape(()))
        if slot == 0:
            return np.array([x - y - kk * math.sin(x)])
        return np.array([y - x])

    def hess(a, b, x, y):
        x = float(np.asarray(x).reshape(()))
        if a == b == 0:
            return np.array([[1.0 - kk * math.cos(x)]])
        if a == b:
            return np.array([[1.0]])
        return np.array([[-1.0]])

    return Density(2, val, grad=grad, hess=hess, name="standard-map")


_ELEMENTWISE = "sin cos tan sinh cosh tanh exp log log1p expm1 sqrt pi e"
# what an expression may read from ``np`` and ``math``: elementwise functions
# and constants, never the modules themselves (those reach file I/O)
_SANDBOX = {
    "np": SimpleNamespace(**{n: getattr(np, n) for n in (
        _ELEMENTWISE + " arcsin arccos arctan arcsinh arccosh arctanh abs").split()}),
    "math": SimpleNamespace(**{n: getattr(math, n) for n in (
        _ELEMENTWISE + " asin acos atan asinh acosh atanh fabs").split()}),
}


def expression_density(nvars: int, expr: str, name: str = "expr") -> Density:
    """Scalar density from a Python expression in x0..x{nvars-1}.

    Derivatives come from finite differences (``uses_fd`` stays True).
    Besides x0..x{nvars-1} the expression may use only ``np.<f>`` and
    ``math.<f>`` for the elementwise functions and constants of
    ``_SANDBOX``; any other name or attribute is a DomainError.
    """
    tree = ast.parse(expr, "<density>", "eval")
    names = {f"x{i}" for i in range(nvars)} | set(_SANDBOX)
    for node in ast.walk(tree):
        ident = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        if ident.startswith("_"):
            raise DomainError(f"density expression may not use the private name {ident!r}")
        if isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and hasattr(_SANDBOX.get(node.value.id), ident)
        ):
            raise DomainError(f"density expression may not use {ast.unparse(node)!r}")
        if isinstance(node, ast.Name) and ident not in names:
            raise DomainError(f"density expression may not use the name {ident!r}")
    code = compile(tree, "<density>", "eval")
    space = {**_SANDBOX, "__builtins__": {}}

    def val(*xs):
        local = dict(space)
        for i, x in enumerate(xs):
            local[f"x{i}"] = float(np.asarray(x).reshape(()))
        return float(eval(code, local))

    return Density(nvars, val, name=name)


DENSITIES = {
    "quadratic": quadratic_pair_density,
    "standard-map": standard_map_density,
}


@dataclass
class Interaction:
    vertices: tuple[int, ...]
    density: Density


class DiscreteLagrangianSystem:
    """Graph, chart dimensions, and interaction list.

    Parameters
    ----------
    graph : SimplicialComplex of dimension <= 1.
    interactions : iterable of (vertex tuple, Density).
    chart_dims : int or dict vertex label -> dimension.
    allow_ends : permit vertices lying in fewer than two edges (finite
        truncations of infinite graphs need this).

    A system is immutable after construction (``_at_vertex`` is built here
    once), so :func:`linearize` keeps its last result on the system.
    """

    def __init__(self, graph, interactions, chart_dims=1, *, allow_ends=False):
        if graph.dim > 1:
            raise DomainError("lagrangian systems live on graphs (dim <= 1)")
        self.graph = graph
        labels = graph.vertex_labels
        if isinstance(chart_dims, dict):
            self.chart_dims = {int(v): int(chart_dims.get(v, 1)) for v in labels}
        else:
            self.chart_dims = {v: int(chart_dims) for v in labels}
        if not allow_ends:
            for v in labels:
                if len(graph._skeleton[v]) < 2:
                    raise DomainError(
                        f"vertex {v} lies in fewer than two edges; "
                        "pass allow_ends=True for truncated graphs"
                    )
        self.interactions: list[Interaction] = []
        self._at_vertex: dict[int, list[int]] = {v: [] for v in labels}
        for vs, dens in interactions:
            vs = tuple(int(v) for v in vs)
            for v in vs:
                if v not in self._at_vertex:
                    raise DomainError(f"interaction uses unknown vertex {v}")
            if len(vs) != dens.nvars:
                raise DomainError(
                    f"interaction {vs} has {len(vs)} slots but density "
                    f"expects {dens.nvars}"
                )
            if len(set(vs)) != len(vs):
                raise DomainError(f"interaction {vs} repeats a vertex")
            idx = len(self.interactions)
            self.interactions.append(Interaction(vs, dens))
            for v in vs:
                self._at_vertex[v].append(idx)
        self._linearized: tuple = (None, None)  # (key, LinearizeResult)

    def neighborhood(self, v: int) -> set[int]:
        """Vertices sharing an interaction with v (v included)."""
        out = {v}
        for idx in self._at_vertex[v]:
            out.update(self.interactions[idx].vertices)
        return out

    def uses_fd(self) -> bool:
        return any(i.density.uses_fd for i in self.interactions)


def _slot_values(sys: DiscreteLagrangianSystem, inter: Interaction, psi: dict):
    xs = []
    for v in inter.vertices:
        if v not in psi:
            raise DomainError(f"psi undefined at vertex {v}")
        xs.append(np.asarray(psi[v], dtype=float).reshape(-1))
    return xs


def _vectors(name: str, values: dict, keys, dim=None) -> dict:
    """``values`` at ``keys`` as float vectors.  DomainError names the first
    vertex that is missing, has not ``dim`` entries or (one stacked check
    when none is) is not finite."""
    out = {}
    for v in keys:
        if v not in values:
            raise DomainError(f"{name} undefined at vertex {v}")
        out[v] = x = np.asarray(values[v], dtype=float).reshape(-1)
        if dim is not None and x.size != dim:
            raise DomainError(f"{name} value at vertex {v} has {x.size} entries, expected {dim}")
    if out and not np.isfinite(np.concatenate(list(out.values()))).all():
        v = next(v for v, x in out.items() if not np.isfinite(x).all())
        raise DomainError(f"{name} is not finite at vertex {v}")
    return out


def local_action(sys: DiscreteLagrangianSystem, psi: dict, around=None) -> float:
    """Sum of densities; restricted to interactions meeting ``around``."""
    if around is None:
        idxs = range(len(sys.interactions))
    else:
        idxs = sorted({i for v in around for i in sys._at_vertex[v]})
    total = 0.0
    for i in idxs:
        inter = sys.interactions[i]
        total += inter.density.value(_slot_values(sys, inter, psi))
    return total


def _derivatives(sys: DiscreteLagrangianSystem, psi: dict, idxs, rows, cols):
    """One pass over the interactions ``idxs``: the summed gradients at
    the vertices ``rows`` and the summed Hessian blocks at the pairs
    ``rows`` x ``cols`` (label keys).  None means every vertex.  Each
    interaction's slot values are built once."""
    grads = {} if rows is None else {u: np.zeros(sys.chart_dims[u]) for u in rows}
    hess: dict[tuple[int, int], np.ndarray] = {}
    for i in idxs:
        inter = sys.interactions[i]
        xs = _slot_values(sys, inter, psi)
        for sa, u in enumerate(inter.vertices):
            if rows is not None and u not in rows:
                continue
            grads[u] = grads.get(u, 0) + inter.density.grad(xs, sa)
            for sb, w in enumerate(inter.vertices):
                if cols is None or w in cols:
                    hess[(u, w)] = hess.get((u, w), 0) + inter.density.hess(xs, sa, sb)
    return grads, hess


def el_residual(sys: DiscreteLagrangianSystem, psi: dict, v: int) -> np.ndarray:
    """Derivative of the action with respect to the value at ``v``."""
    if v not in sys._at_vertex:
        raise DomainError(f"vertex {v} not in the system")
    return _derivatives(sys, psi, sys._at_vertex[v], {v}, ())[0][v]


def dynamical_step(
    sys: DiscreteLagrangianSystem,
    psi: dict,
    v: int,
    unknown: int,
    *,
    x0=None,
    tol: float = 1e-10,
    maxiter: int = 50,
) -> np.ndarray:
    """Solve the stationarity equation at ``v`` for the value at
    ``unknown`` by Newton iteration.

    All other values in the neighborhood of ``v`` must be present in
    ``psi``.  Raises DegeneracyError when the cross Hessian at an
    iterate is singular, DomainError naming a non-finite neighbor value
    once the residual is not finite, and NonConvergenceError after
    ``maxiter``.
    """
    if unknown not in (nbrs := sys.neighborhood(v)):
        raise DomainError(f"vertex {unknown} does not interact with {v}")
    work = {u: psi[u] for u in nbrs if u in psi}
    x = (
        np.zeros(sys.chart_dims[unknown])
        if x0 is None
        else np.asarray(x0, dtype=float).reshape(-1)
    )
    for _ in range(maxiter):
        work[unknown] = x
        grads, hess = _derivatives(sys, work, sys._at_vertex[v], {v}, {unknown})
        r = grads[v]
        if (norm := np.linalg.norm(r)) <= tol:
            return x
        if not math.isfinite(norm):
            _vectors("psi", work, sorted(nbrs - {unknown}))
        # unknown meets v, and r != 0 needs an interaction at v: the
        # (v, unknown) block exists
        try:
            delta = np.linalg.solve(hess[(v, unknown)], r)
        except np.linalg.LinAlgError:
            raise DegeneracyError(
                f"cross Hessian between {v} and {unknown} is singular"
            ) from None
        x = x - delta
    work[unknown] = x
    if np.linalg.norm(el_residual(sys, work, v)) <= tol:
        return x
    raise NonConvergenceError(
        f"no convergence at vertex {v} after {maxiter} iterations"
    )


@dataclass
class LinearizeResult:
    operator: DiscreteOperator
    max_el_residual: float
    warning: str | None
    uses_fd: bool


def linearize(
    sys: DiscreteLagrangianSystem,
    psi: dict,
    *,
    at=None,
    solution_tol: float = 1e-6,
    asym_tol: float = 1e-8,
) -> LinearizeResult:
    """Second variation of the action at ``psi`` as a block operator.

    Blocks are the summed mixed Hessians over shared interactions; the
    raw blocks must already be symmetric to within ``asym_tol`` times
    max(1, largest entry) (they are for any twice continuously
    differentiable density evaluated at one point).  Pairs within that
    bound are averaged to exact symmetry by the closure that
    ``operator_from_json(on_asymmetry="symmetrize")`` uses; a larger gap
    raises DomainError.  If psi fails the stationarity equations beyond
    ``solution_tol`` at the checked vertices, a warning string is
    attached (and emitted): the operator is still the Hessian, but
    conservation statements need a solution.

    ``at`` restricts both the block assembly and the residual check to
    interactions meeting the listed vertices (useful for truncations:
    pass the interior).  A vertex of ``at`` outside the system, or a
    non-finite value of psi on an interaction used, raises DomainError.

    The system keeps its last result: a call with the same ``at``,
    tolerances and values of psi on the interactions used returns a new
    LinearizeResult around the same read-only operator, warning included.
    """
    labels = sys.graph.vertex_labels if at is None else list(at)
    for v in labels:
        if v not in sys._at_vertex:
            raise DomainError(f"vertex {v} not in the system")
    if at is None:
        idxs = range(len(sys.interactions))
    else:
        idxs = sorted({i for v in labels for i in sys._at_vertex[v]})
    used = dict.fromkeys(v for i in idxs for v in sys.interactions[i].vertices)  # first-use order
    vals = _vectors("psi", psi, used)
    key = (None if at is None else tuple(labels), solution_tol, asym_tol,
           tuple(x.tobytes() for x in vals.values()))
    if sys._linearized[0] != key:
        dim = _uniform_dim(sys)
        grads, raw = _derivatives(sys, vals, idxs, None, None)
        scale = float(np.abs(np.stack(list(raw.values()))).max()) if raw else 1.0
        _close_symmetric(raw, lambda key: key[::-1], asym_tol * max(1.0, scale))
        sid = sys.graph.vertex_sid
        blocks = {(sid(u), sid(w)): m for (u, w), m in raw.items()}
        checked = [grads[v] for v in labels if v in grads]
        residual = float(np.abs(np.concatenate(checked)).max()) if checked else 0.0
        warning = (f"configuration misses stationarity by {residual:.3e}; "
                   "linearization is a plain Hessian, not a conserved-form operator"
                   if residual > solution_tol else None)
        op = DiscreteOperator(sys.graph, dim, blocks)
        sys._linearized = (key, LinearizeResult(op, residual, warning, sys.uses_fd()))
    lin = replace(sys._linearized[1])
    if lin.warning is not None:
        warnings.warn(lin.warning)
    return lin


def _uniform_dim(sys: DiscreteLagrangianSystem) -> int:
    dims = set(sys.chart_dims.values())
    if len(dims) != 1:
        raise DomainError("mixed chart dimensions are not supported here")
    return dims.pop()


def variational_swronskian(
    sys: DiscreteLagrangianSystem,
    psi: dict,
    delta1: dict,
    delta2: dict,
    *,
    at=None,
    kernel_tol: float = 1e-8,
) -> SWronskianChain:
    """Pair chain of two kernel variations of the linearized operator.

    Both variations must satisfy the linearized equations (at the
    checked vertices) to within ``kernel_tol`` relative to the block
    scale; otherwise the request is rejected, since the conservation law
    is what the chain is for.  A variation value that is not finite or
    has not ``vec_dim`` entries raises DomainError naming its vertex.
    """
    op = linearize(sys, psi, at=at).operator
    support = set(op.complex.vertex_sid(v) for v in (at or sys.graph.vertex_labels))
    scale = float(np.abs(op.stack).max()) if len(op.stack) else 1.0
    for name, dvec in (("delta1", delta1), ("delta2", delta2)):
        vals = {op.complex.vertex_sid(v): x
                for v, x in _vectors(name, dvec, dvec, op.vec_dim).items()}
        check = [sid for sid in support if all(b in vals for b in op.stencil(sid))]
        img = list(op.apply(vals, at=check).values())
        worst = float(np.abs(np.stack(img)).max()) if img else 0.0
        if worst > kernel_tol * max(1.0, scale):
            raise DomainError(
                f"{name} is not a kernel variation (residual {worst:.3e})"
            )
    d1 = {op.complex.vertex_sid(v): x for v, x in delta1.items()}
    d2 = {op.complex.vertex_sid(v): x for v, x in delta2.items()}
    return swronskian(op, 0.0, d1, d2, support=sorted(support))


def build_translation_invariant(
    graph: SimplicialComplex, density: Density, chart_dim: int = 1, *, allow_ends=False
) -> DiscreteLagrangianSystem:
    """One copy of a two-slot density per edge, slots in vertex order."""
    if density.nvars != 2:
        raise DomainError("edge interactions need a two-slot density")
    inters = []
    for eid in graph.edge_sids:
        u, v = graph.simplex(eid).vertices
        inters.append(((u, v), density))
    return DiscreteLagrangianSystem(
        graph, inters, chart_dim, allow_ends=allow_ends
    )


def build_homogeneous_order4(
    graph: SimplicialComplex, density: Density, chart_dim: int = 1, *, allow_ends=False
) -> DiscreteLagrangianSystem:
    """One interaction per closed vertex neighborhood on a regular graph.

    Slot 0 is the center; the m neighbors follow in label order, so the
    density must take m + 1 slots where m is the common degree.
    """
    degrees = {v: len(graph._skeleton[v]) for v in graph.vertex_labels}
    if len(set(degrees.values())) != 1:
        raise DomainError("graph is not regular; closed neighborhoods vary")
    m = next(iter(degrees.values()))
    if density.nvars != m + 1:
        raise DomainError(
            f"degree-{m} neighborhoods need {m + 1} slots, density has "
            f"{density.nvars}"
        )
    inters = []
    for v in graph.vertex_labels:
        nbrs = sorted(w for _, w in graph._skeleton[v])
        inters.append(((v, *nbrs), density))
    return DiscreteLagrangianSystem(graph, inters, chart_dim, allow_ends=allow_ends)
