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
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .complex_core import DomainError, SimplicialComplex, _dimension, _tolerance
from .operators import DiscreteOperator
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
NEWTON_TOL = 1e-10  # dynamical_step: residual norm at which Newton stops
NEWTON_MAXITER = 50
SOLUTION_TOL = 1e-6  # linearize: stationarity residual above which it warns
ASYM_TOL = 1e-8  # linearize: relative Hessian block asymmetry it averages away


class Density:
    """Interaction density of ``nvars`` vector slots.

    ``value(xs)`` maps a list of slot vectors to a float.  ``grad(xs, slot)``
    and ``hess(xs, a, b)`` take a row stack, ``xs`` one (E, d_s) array per
    slot, and return (E, d_slot) and (E, d_a, d_b); on all-1-D charts
    :func:`dynamical_step` passes one float per slot and reads one number
    back.  Either callable may be omitted; central finite differences of
    ``value`` fill in, row by row, with the ``uses_fd`` flag set so
    downstream code can flag the reduced accuracy instead of hiding it.
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
            return self._grad(xs, slot)
        return _by_row(lambda row: _central(self.value, row, slot), xs)

    def hess(self, xs, slot_a: int, slot_b: int) -> np.ndarray:
        if self._hess is not None:
            return self._hess(xs, slot_a, slot_b)
        row_grad = lambda ys: self.grad([y[None] for y in ys], slot_a)[0]
        return _by_row(lambda row: _central(row_grad, row, slot_b), xs)


def _by_row(f, xs):
    """``f`` at each row of the slot stacks ``xs``, stacked; at floats, its one number."""
    if isinstance(xs[0], np.ndarray):
        return np.stack([f(list(row)) for row in zip(*xs)])
    return f([np.array([x]) for x in xs]).item()


def _scalar(xs):  # the two slots of a standard-map row stack, or two floats
    if isinstance(xs[0], np.ndarray) and (xs[0].shape[1] != 1 or xs[1].shape[1] != 1):
        raise DomainError("the standard-map density takes scalar slots")
    return xs


def _scalar_value(x, name: str) -> float:
    """The one number of the slot value ``x`` of a scalar-slot density."""
    if np.size(x) != 1:
        raise DomainError(f"the {name} density takes scalar slots")
    return float(np.reshape(x, ()))


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
        grad=lambda xs, slot: w * (xs[0] - xs[1]) * (1 if slot == 0 else -1),
        hess=lambda xs, a, b: w * (1 if a == b else -1) * (
            np.eye(xs[0].shape[1]) * np.ones((len(xs[0]), 1, 1)) if isinstance(xs[0], np.ndarray) else 1.0),
        name="quadratic",
    )


def standard_map_density(kick: float = 1.0) -> Density:
    """0.5 (x - y)^2 + kick * cos(x) on an edge of the line (scalar)."""
    kk = float(kick)

    def val(x, y):
        x, y = _scalar_value(x, "standard-map"), _scalar_value(y, "standard-map")
        return 0.5 * (x - y) ** 2 + kk * math.cos(x)

    def grad(xs, slot):
        x, y = _scalar(xs)
        return x - y - kk * np.sin(x) if slot == 0 else y - x

    def hess(xs, a, b):
        x, _ = _scalar(xs)
        h = 1.0 - kk * np.cos(x) if a == b == 0 else 1.0 if a == b else -1.0
        return np.broadcast_to(h, x.shape)[:, :, None] if isinstance(x, np.ndarray) else h

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
            local[f"x{i}"] = _scalar_value(x, "expression")
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
    chart_dims : int or dict vertex label -> dimension (default 1), each
        at least 1 and on a vertex of the graph.
    allow_ends : permit vertices lying in fewer than two edges (finite
        truncations of infinite graphs need this).

    A system is immutable after construction (``_at_vertex`` and
    ``_groups``, the interactions of each density as (density, ids,
    (I, nvars) vertex labels), are built here once), so :func:`linearize`
    keeps its last result on the system.
    """

    def __init__(self, graph, interactions, chart_dims=1, *, allow_ends=False):
        if graph.dim > 1:
            raise DomainError("lagrangian systems live on graphs (dim <= 1)")
        self.graph = graph
        labels = graph.vertex_labels
        given = chart_dims if isinstance(chart_dims, dict) else dict.fromkeys(labels, chart_dims)
        self.chart_dims = dict.fromkeys(labels, 1) | {int(v): d for v, d in given.items()}
        for v, d in self.chart_dims.items():
            if v not in graph._skeleton:
                raise DomainError(f"chart_dims names vertex {v}, which is not in the graph")
            self.chart_dims[v] = _dimension(d, v, "chart dimension {d} at vertex {v}")
        dims = set(self.chart_dims.values())
        self._dim = dims.pop() if len(dims) == 1 else None  # the one chart dimension
        if not allow_ends:
            for v in labels:
                if len(graph._skeleton[v]) < 2:
                    raise DomainError(
                        f"vertex {v} lies in fewer than two edges; "
                        "pass allow_ends=True for truncated graphs"
                    )
        self.interactions: list[Interaction] = []
        self._at_vertex: dict[int, list[int]] = {v: [] for v in labels}
        groups: dict = {}
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
            groups.setdefault(dens, []).append(idx)
        self._groups = [
            (dens, np.array(ids), np.array([self.interactions[i].vertices for i in ids]))
            for dens, ids in groups.items()
        ]
        self._linearized: tuple = (None, None)  # (key, LinearizeResult)

    def uses_fd(self) -> bool:
        return any(dens.uses_fd for dens, _, _ in self._groups)


def _vector(name: str, values: dict, v, dims=None) -> np.ndarray:
    """``values[v]`` as a float vector; DomainError when it is missing, not a
    vector of numbers, complex or has not ``dims[v]`` entries (where ``dims``
    has v)."""
    if v not in values:
        raise DomainError(f"{name} undefined at vertex {v}")
    x = values[v]
    try:
        x = np.asarray(x)
        x = x.astype(float, casting="same_kind", copy=False).ravel()  # a complex value does not cast
    except (ValueError, TypeError):  # ragged, not numbers, or complex
        complex_ = isinstance(x, np.ndarray) and x.dtype.kind == "c"
        what = "is complex; values must be real" if complex_ else "is not a vector of numbers"
        raise DomainError(f"{name} value at vertex {v} {what}") from None
    if dims is not None and (dim := dims.get(v, x.size)) != x.size:
        raise DomainError(f"{name} value at vertex {v} has {x.size} entries, expected {dim}")
    return x


def _vectors(name: str, values: dict, keys, dims=None):
    """The values at ``keys`` (a list or dict) in order: one (len(keys), d) stack, read
    and checked at once; when that fails, a list of :func:`_vector` at each
    key, which names the first bad value, then the first not finite."""
    try:
        rows = np.array([values[v] for v in keys]).astype(float, casting="same_kind", copy=False).reshape(len(keys), -1)
        if set(map((dims or {}).get, keys)) <= {rows.shape[1], None} and np.isfinite(rows).all():
            return rows
    except (KeyError, ValueError, TypeError):
        pass
    out = [_vector(name, values, v, dims) for v in keys]
    if out and not np.isfinite(np.concatenate(out)).all():
        v = next(v for v, x in zip(keys, out) if not np.isfinite(x).all())
        raise DomainError(f"{name} is not finite at vertex {v}")
    return out


def _meeting(sys: DiscreteLagrangianSystem, vertices):
    """Ascending ids of the interactions meeting ``vertices`` (None: all)."""
    if vertices is None:
        return range(len(sys.interactions))
    for v in vertices:
        if v not in sys._at_vertex:
            raise DomainError(f"vertex {v} not in the system")
    return sorted({i for v in vertices for i in sys._at_vertex[v]})


def _values_on(sys: DiscreteLagrangianSystem, psi: dict, idxs):
    """The vertices of the interactions ``idxs`` in first-use order, and psi on them."""
    used = list(dict.fromkeys(v for i in idxs for v in sys.interactions[i].vertices))
    return used, _vectors("psi", psi, used, sys.chart_dims)


def local_action(sys: DiscreteLagrangianSystem, psi: dict, around=None) -> float:
    """Sum of densities; restricted to interactions meeting ``around``."""
    vals = dict(zip(*_values_on(sys, psi, idxs := _meeting(sys, around))))
    inters = [sys.interactions[i] for i in idxs]
    return sum((i.density.value([vals[v] for v in i.vertices]) for i in inters), 0.0)


def _at(sys: DiscreteLagrangianSystem, psi: dict, v: int, unknown=None, flat=False):
    """One pass over the interactions at ``v``: the checked slot values of
    psi on them but ``unknown`` (not yet tested for finiteness), one-row
    stacks or, when ``flat``, floats; and per interaction (density, slot
    values with None for ``unknown``, slot of v, slot of ``unknown`` or -1)."""
    if v not in sys._at_vertex:
        raise DomainError(f"vertex {v} not in the system")
    vals, parts = {}, []
    for i in sys._at_vertex[v]:
        inter, xs = sys.interactions[i], []
        for u in inter.vertices:
            if u != unknown and u not in vals:
                x = _vector("psi", psi, u, sys.chart_dims)
                vals[u] = x.item() if flat else x[None]
            xs.append(None if u == unknown else vals[u])
        vs = inter.vertices
        parts.append((inter.density, xs, vs.index(v), vs.index(unknown) if unknown in vs else -1))
    return vals, parts


def el_residual(sys: DiscreteLagrangianSystem, psi: dict, v: int) -> np.ndarray:
    """Derivative of the action with respect to the value at ``v``."""
    vals, parts = _at(sys, psi, v)
    _vectors("psi", vals, vals)  # names a non-finite value
    return sum((dens.grad(xs, a)[0] for dens, xs, a, _ in parts), np.zeros(sys.chart_dims[v]))


def dynamical_step(
    sys: DiscreteLagrangianSystem,
    psi: dict,
    v: int,
    unknown: int,
    *,
    x0=None,
) -> np.ndarray:
    """Solve the stationarity equation at ``v`` for the value at
    ``unknown`` by Newton iteration, to a residual norm of ``NEWTON_TOL``.

    All other values in the neighborhood of ``v`` must be present in
    ``psi``.  Raises DomainError naming an unknown vertex, a missing,
    non-finite or wrong-length value, or the chart dimensions of ``v`` and
    ``unknown`` when they differ and a step is needed; DegeneracyError when
    the cross Hessian at an iterate is singular, and NonConvergenceError
    after ``NEWTON_MAXITER`` steps.

    On a system whose charts are all 1-D it runs in Python floats, with
    one float per density slot; otherwise on one-row stacks.
    """
    flat = sys._dim == 1
    vals, parts = _at(sys, psi, v, unknown, flat)
    # a density's number at the one row, the zero residual and the residual norm
    one, zero, norm = ((float, 0.0, abs) if flat else
                       (itemgetter(0), np.zeros(sys.chart_dims[v]), lambda r: math.hypot(*r)))
    fixed = sum((one(d.grad(xs, a)) for d, xs, a, b in parts if b < 0), zero)
    if not (terms := [part for part in parts if part[3] >= 0]):
        raise DomainError(f"vertex {unknown} does not interact with {v}")
    dim = sys.chart_dims[unknown]
    x = np.zeros(dim) if x0 is None else _vector("x0", {unknown: x0}, unknown)
    if x.size != dim:
        raise DomainError(f"x0 has {x.size} entries, expected {dim}")
    x = x.item() if flat else x

    def residual(x):
        r = fixed
        for dens, xs, a, b in terms:
            xs[b] = x if flat else x[None]
            r = r + one(dens.grad(xs, a))
        return r

    for _ in range(NEWTON_MAXITER):
        if (size := norm(r := residual(x))) <= NEWTON_TOL:
            return np.array([x]) if flat else x
        if not math.isfinite(size):
            _vectors("psi", vals, vals)  # names a non-finite neighbour value
        # the cross Hessian (v, unknown) at x, needed only for a step
        cross = sum((one(dens.hess(xs, a, b)) for dens, xs, a, b in terms), 0.0)
        if (rows := sys.chart_dims[v]) != dim:
            raise DomainError(f"chart dimensions differ: {rows} at vertex {v}, {dim} at "
                              f"vertex {unknown}; the stationarity equation at {v} "
                              f"has no Newton step for the value at {unknown}")
        try:
            x = x - (r / cross if flat else np.linalg.solve(cross, r))
        except (np.linalg.LinAlgError, ZeroDivisionError):
            raise DegeneracyError(
                f"cross Hessian between {v} and {unknown} is singular"
            ) from None
    if norm(residual(x)) <= NEWTON_TOL:
        return np.array([x]) if flat else x
    raise NonConvergenceError(
        f"no convergence at vertex {v} after {NEWTON_MAXITER} iterations"
    )


@dataclass
class LinearizeResult:
    operator: DiscreteOperator
    max_el_residual: float
    warning: str | None
    uses_fd: bool


def _ordered(parts):
    """Keys and values of (rank, keys, values) parts, stably sorted by rank."""
    rank, keys, values = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(rank, kind="stable")
    return keys[order], values[order]


def linearize(
    sys: DiscreteLagrangianSystem,
    psi: dict,
    *,
    at=None,
) -> LinearizeResult:
    """Second variation of the action at ``psi`` as a block operator.

    Blocks are the summed mixed Hessians over shared interactions; the
    raw blocks must already be symmetric to within ``ASYM_TOL`` times
    max(1, largest entry) (they are for any twice continuously
    differentiable density evaluated at one point).  A pair (u, w), (w, u)
    within that bound but not exact is averaged to exact symmetry; a
    larger gap raises DomainError naming the first such pair.  If psi
    fails the stationarity equations beyond ``SOLUTION_TOL`` at the
    checked vertices, a warning string is attached (and emitted): the
    operator is still the Hessian, but conservation statements need a
    solution.

    ``at`` restricts both the block assembly and the residual check to
    interactions meeting the listed vertices (useful for truncations:
    pass the interior).  A vertex of ``at`` outside the system, or a
    missing, non-finite or wrong-length value of psi on an interaction
    used, raises DomainError.

    Each group makes one density call per slot and per slot pair for all
    its interactions used; the terms are summed in interaction order.

    The system keeps its last result: a call with the same ``at`` and
    values of psi on the interactions used returns a new LinearizeResult
    around the same read-only operator, warning included.
    """
    labels = sys.graph.vertex_labels if at is None else list(at)
    idxs = _meeting(sys, None if at is None else labels)
    used, rows = _values_on(sys, psi, idxs)
    if (dim := sys._dim) is None:
        raise DomainError("mixed chart dimensions are not supported here")
    field = np.asarray(rows, dtype=float).reshape(n := len(used), dim)
    key = (None if at is None else tuple(labels), field.tobytes())
    if sys._linearized[0] != key:
        by_label = np.argsort(used := np.array(used, dtype=int))
        # slot a of interaction i has rank i*width + a and slot pair (a, b) rank
        # (i*width + a)*width + b: sorted by rank, terms sum in interaction order
        width = max((dens.nvars for dens, _, _ in sys._groups), default=1)
        none = np.zeros(0, dtype=int)
        gparts = [(none, none, np.zeros((0, dim)))]
        hparts = [(none, none, np.zeros((0, dim, dim)))]
        for dens, ids, verts in sys._groups:
            if not (mask := np.isin(ids, idxs)).any():
                continue
            ids, rows = ids[mask], by_label[np.searchsorted(used, verts[mask].T, sorter=by_label)]
            xs = [field[r] for r in rows]  # rows: the field row of each slot value
            for a, ra in enumerate(rows):
                gparts.append((ids * width + a, ra, dens.grad(xs, a)))
                hparts += [((ids * width + a) * width + b, ra * n + rb, dens.hess(xs, a, b))
                           for b, rb in enumerate(rows)]
        grads = np.zeros((n, dim))
        np.add.at(grads, *_ordered(gparts))
        codes, terms = _ordered(hparts)
        uniq, first, inv = np.unique(codes, return_index=True, return_inverse=True)
        seq = np.argsort(first)  # block keys in order of first use
        codes, into = uniq[seq], np.argsort(seq)[inv]
        stack = np.zeros((len(codes), dim, dim))
        np.add.at(stack, into, terms)
        u, w = np.divmod(codes, max(n, 1))  # every block (u, w) has its (w, u)
        by_code = np.argsort(codes)
        partner = by_code[np.searchsorted(codes, w * n + u, sorter=by_code)]
        gap = np.abs(stack - stack[partner].transpose(0, 2, 1)).max(axis=(1, 2))
        scale = float(np.abs(stack).max()) if len(stack) else 1.0
        if len(bad := np.flatnonzero(~(gap <= ASYM_TOL * max(1.0, scale)))):
            pair = (int(used[u[bad[0]]]), int(used[w[bad[0]]]))
            raise DomainError(
                f"blocks {pair} and {pair[::-1]} break symmetry by {gap[bad[0]]:.3e}")
        fix = gap > 0
        stack[fix] = 0.5 * (stack[fix] + stack[partner[fix]].transpose(0, 2, 1))
        sid = np.array([sys.graph.vertex_sid(v) for v in used.tolist()], dtype=np.intp)
        checked = grads[np.isin(used, labels)]
        residual = float(np.abs(checked).max()) if checked.size else 0.0
        warning = (f"configuration misses stationarity by {residual:.3e}; "
                   "linearization is a plain Hessian, not a conserved-form operator"
                   if residual > SOLUTION_TOL else None)
        op = DiscreteOperator._from_stack(sys.graph, dim, sid[np.stack((u, w), axis=1)], stack)
        sys._linearized = (key, LinearizeResult(op, residual, warning, sys.uses_fd()))
    lin = replace(sys._linearized[1])
    if lin.warning is not None:
        warnings.warn(lin.warning)
    return lin


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
    checked vertices whose stencil they cover) to within ``kernel_tol``
    relative to the block scale; otherwise the request is rejected, since
    the conservation law is what the chain is for.  A variation value that
    is missing at a checked vertex, not finite or has not ``vec_dim``
    entries raises DomainError naming its vertex, as does a ``kernel_tol``
    that is not finite or is negative.
    """
    kernel_tol = _tolerance(kernel_tol, "kernel_tol")
    op = linearize(sys, psi, at=at).operator
    cx, labels = op.complex, sys.graph.vertex_labels if at is None else at
    inside = np.isin(np.arange(len(cx)), list(map(cx.vertex_sid, labels)))
    bound = kernel_tol * max(1.0, float(np.abs(op.stack).max(initial=0.0)))
    values = []
    for name, dvec in (("delta1", delta1), ("delta2", delta2)):
        rows = _vectors(name, dvec, dvec, sys.chart_dims)
        sids = np.array(list(map(cx.vertex_sid, dvec)), dtype=np.intp)
        x, have = np.zeros((len(cx), op.vec_dim)), np.zeros(len(cx), dtype=bool)
        x[sids], have[sids] = np.reshape(rows, (len(sids), op.vec_dim)), True
        if len(lost := np.flatnonzero(inside & ~have)):
            raise DomainError(f"{name} undefined at vertex {cx.simplex(int(lost[0])).vertices[0]}")
        img = op._act(live := inside[op.target], x[op.source[live]], op.target[live], len(cx))
        img[op.target[~have[op.source]]] = 0.0  # checked: only ids whose every source has a value
        if (worst := float(np.abs(img).max(initial=0.0))) > bound:
            raise DomainError(f"{name} is not a kernel variation (residual {worst:.3e})")
        values.append(dict(zip(sids.tolist(), dvec.values())))
    return swronskian(op, 0.0, *values, support=np.flatnonzero(inside).tolist())


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
