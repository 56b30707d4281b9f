import math
import re
import warnings

import numpy as np
import pytest

import oracles as orc
from swron import (
    DegeneracyError,
    Density,
    DiscreteLagrangianSystem,
    DiscreteOperator,
    DomainError,
    NonConvergenceError,
    SimplicialComplex,
    build_homogeneous_order4,
    build_translation_invariant,
    dynamical_step,
    el_residual,
    linearize,
    local_action,
    quadratic_pair_density,
    standard_map_density,
    swronskian,
    variational_swronskian,
    verify_cycle,
)
from swron import examples as ex
from swron.nonlinear import ASYM_TOL, NEWTON_MAXITER, NEWTON_TOL, expression_density


def kicked_path(n, kick=0.8, a=0.1, b=0.25):
    """Standard-map orbit on a path graph: exact stationary configuration."""
    graph = ex.interval(n)
    sys = build_translation_invariant(
        graph, standard_map_density(kick), allow_ends=True
    )
    psi = {0: np.array([a]), 1: np.array([b])}
    for v in range(1, n):
        nxt = 2 * psi[v][0] - psi[v - 1][0] - kick * np.sin(psi[v][0])
        psi[v + 1] = np.array([nxt])
    return sys, psi, kick


def tangent_pair(psi, kick, n):
    """The two kernel variations of a kicked orbit seeded by (1, 0), (0, 1)."""
    pair = ({0: np.array([1.0]), 1: np.array([0.0])}, {0: np.array([0.0]), 1: np.array([1.0])})
    for d in pair:
        for v in range(1, n):
            d[v + 1] = (2.0 - kick * np.cos(psi[v][0])) * d[v] - d[v - 1]
    return pair


def test_density_analytic_vs_fd():
    den = standard_map_density(0.7)
    assert not den.uses_fd
    xs = [np.array([0.3]), np.array([1.1])]
    rows = [x[None] for x in xs]
    for slot in (0, 1):
        got = den.grad(rows, slot)[0]
        want = orc.central_gradient(
            lambda t, s=slot: den.value(
                [t if i == s else xs[i] for i in range(2)]
            ),
            xs[slot],
        )
        assert np.max(np.abs(got - want)) <= 1e-8
    for a in (0, 1):
        for b in (0, 1):
            got = den.hess(rows, a, b)[0]
            def grad_entry(t):
                pt = [t if i == b else xs[i] for i in range(2)]
                return den.grad([p[None] for p in pt], a)[0, 0]
            want = orc.central_gradient(grad_entry, xs[b])
            assert np.max(np.abs(got - want.reshape(1, 1))) <= 1e-6


ESCAPE = "().__class__.__base__.__subclasses__().__len__() + 0*x0"


def test_expression_density_rejects_private_names():
    with pytest.raises(DomainError, match="private name '__len__'"):
        expression_density(1, ESCAPE)
    with pytest.raises(DomainError, match="private name '_x'"):
        expression_density(1, "x0 + _x")


@pytest.mark.parametrize("call", ["np.savetxt({path!r}, [x0])", "np.load({path!r})"])
def test_expression_density_cannot_reach_files(tmp_path, call):
    path = str(tmp_path / "leak.txt")
    expr = f"({call.format(path=path)} or 0) + x0"
    with pytest.raises(DomainError, match=f"may not use 'np.{call[3:7]}"):
        expression_density(1, expr)
    assert not (tmp_path / "leak.txt").exists()


def test_expression_density_rejects_unknown_names():
    with pytest.raises(DomainError, match="name 'x2'"):
        expression_density(2, "x0 + x2")
    with pytest.raises(DomainError, match="may not use 'x0.hex'"):
        expression_density(1, "x0 + x0.hex()")


def test_expression_density_keeps_numpy_and_math():
    den = expression_density(2, "np.sin(x0) + math.cos(x1)")
    assert den.value([np.array([0.3]), np.array([0.4])]) == np.sin(0.3) + math.cos(0.4)


def test_expression_density_falls_back_to_fd():
    den = expression_density(2, "(x0 - x1) ** 4 / 4")
    assert den.uses_fd
    xs = [np.array([0.9]), np.array([0.2])]
    want = (0.9 - 0.2) ** 4 / 4
    assert abs(den.value(xs) - want) <= 1e-12
    g = den.grad([x[None] for x in xs], 0)[0]
    assert abs(g[0] - (0.9 - 0.2) ** 3) <= 1e-6


def test_system_rejects_higher_dimensional_graphs():
    with pytest.raises(DomainError):
        build_translation_invariant(
            ex.filled_triangle(), quadratic_pair_density()
        )


@pytest.mark.parametrize("chart_dims, want", [
    ({0: 1, 1: 1, 7: 3}, "chart_dims names vertex 7, which is not in the graph"),
    ({0: 1, 1: 0}, "chart dimension 0 at vertex 1, expected at least 1"),
    (-2, "chart dimension -2 at vertex 0, expected at least 1"),
    (1.7, "chart dimension 1.7 at vertex 0, expected a whole number"),
    ({0: 1.9}, "chart dimension 1.9 at vertex 0, expected a whole number"),
], ids=["off-the-graph", "zero", "negative", "fractional", "fractional-at-one-vertex"])
def test_system_rejects_bad_chart_dims(chart_dims, want):
    with pytest.raises(DomainError, match=re.escape(want)):
        build_translation_invariant(ex.interval(3), quadratic_pair_density(), chart_dims, allow_ends=True)


def test_a_whole_float_chart_dimension_is_an_int():
    sys = build_translation_invariant(ex.interval(3), quadratic_pair_density(), 2.0, allow_ends=True)
    assert all(type(d) is int and d == 2 for d in sys.chart_dims.values())


def test_system_rejects_dangling_ends_by_default():
    with pytest.raises(DomainError):
        build_translation_invariant(ex.interval(3), quadratic_pair_density())
    build_translation_invariant(
        ex.interval(3), quadratic_pair_density(), allow_ends=True
    )
    build_translation_invariant(ex.circle(4), quadratic_pair_density())


def test_el_residual_vanishes_on_orbit():
    sys, psi, _ = kicked_path(8)
    for v in range(1, 8):
        assert np.max(np.abs(el_residual(sys, psi, v))) <= 1e-12


def test_el_residual_matches_fd_action_gradient():
    sys, psi, _ = kicked_path(6)
    rng = np.random.default_rng(0)
    cfg = {v: psi[v] + 0.1 * rng.standard_normal(1) for v in psi}
    for v in (2, 3, 4):
        def action_at(t):
            work = dict(cfg)
            work[v] = t
            return local_action(sys, work, around=[v])
        want = orc.central_gradient(action_at, cfg[v])
        got = el_residual(sys, cfg, v)
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_dynamical_step_reproduces_explicit_map():
    sys, psi, kick = kicked_path(8)
    partial = {v: psi[v] for v in range(0, 7)}
    got = dynamical_step(sys, partial, 6, 7, x0=np.array([0.0]))
    assert np.max(np.abs(got - psi[7])) <= 1e-10


def test_dynamical_step_reproduces_the_newton_oracle_bit_for_bit():
    sys, psi, _ = kicked_path(200, kick=0.65, a=0.2, b=-0.15)
    start = {0: psi[0], 1: psi[1]}
    want = orc.newton_orbit(sys, start, 200)
    got = dict(start)
    for v in range(1, 200):
        got[v + 1] = dynamical_step(sys, got, v, v + 1, x0=got[v])
    assert all(got[v].tobytes() == want[v].tobytes() for v in range(201))


def quadratic_path(n):
    return build_translation_invariant(ex.interval(n), quadratic_pair_density(1.3), allow_ends=True)


def expression_path(n):
    # a standard map through finite differences of value alone
    return build_translation_invariant(
        ex.interval(n), expression_density(2, "0.5 * (x0 - x1) ** 2 + 0.6 * np.cos(x0)"), allow_ends=True)


def quadratic_dim2_path(n):
    return build_translation_invariant(ex.interval(n), quadratic_pair_density(1.3), chart_dim=2, allow_ends=True)


@pytest.mark.parametrize("build", [
    quadratic_path, expression_path, lambda n: mixed_densities(ex.interval(n))[0], quadratic_dim2_path,
], ids=["quadratic", "expression", "mixed", "quadratic-dim2"])
def test_dynamical_step_orbits_match_the_newton_oracle_bit_for_bit(build):
    sys = build(12)
    rng = np.random.default_rng(8)
    start = {v: rng.uniform(-0.3, 0.3, sys.chart_dims[v]) for v in (0, 1)}
    want = orc.newton_orbit(sys, start, 12)
    got = dict(start)
    for v in range(1, 12):
        got[v + 1] = dynamical_step(sys, got, v, v + 1, x0=got[v])
    assert all(got[v].tobytes() == want[v].tobytes() for v in range(13))
    assert len(set(np.round(np.concatenate(list(got.values())), 6))) > 3  # the orbit moves


def test_dynamical_step_calls_densities_with_floats_on_1d_charts():
    seen = []

    def grad(xs, s):
        seen.append(type(xs[0]))
        return (xs[0] - xs[1]) if s == 0 else (xs[1] - xs[0])

    def hess(xs, a, b):
        seen.append(type(xs[0]))
        return 1.0 if a == b else -1.0

    sys = build_translation_invariant(
        ex.interval(3), Density(2, lambda x, y: 0.5 * float((x - y) @ (x - y)), grad, hess),
        allow_ends=True)
    assert dynamical_step(sys, {0: np.array([0.25]), 1: np.array([0.5])}, 1, 2).tolist() == [0.75]
    assert seen and set(seen) == {float}


def test_dynamical_step_requires_neighbor():
    sys, psi, _ = kicked_path(5)
    with pytest.raises(DomainError):
        dynamical_step(sys, psi, 1, 4)


def counted_edge_density(hess_calls):
    """0.5 (x - y)^2 with analytic derivatives over row stacks or floats;
    ``hess`` logs each call."""
    def hess(xs, a, b):
        hess_calls.append((a, b))
        h = 1.0 if a == b else -1.0
        return np.full((len(xs[0]), 1, 1), h) if isinstance(xs[0], np.ndarray) else h

    return Density(2, value=lambda x, y: 0.5 * float((x - y) @ (x - y)),
                   grad=lambda xs, s: (xs[0] - xs[1]) if s == 0 else (xs[1] - xs[0]), hess=hess)


def test_cross_hessian_is_evaluated_only_for_a_step():
    calls = []
    sys = build_translation_invariant(ex.interval(2), counted_edge_density(calls), allow_ends=True)
    psi = {0: np.array([0.25]), 1: np.array([0.5])}
    # the equation at 1 is linear with solution 0.75, exact in binary
    assert dynamical_step(sys, psi, 1, 2, x0=np.array([0.75]))[0] == 0.75
    assert calls == []
    assert dynamical_step(sys, psi, 1, 2, x0=np.array([0.0]))[0] == 0.75
    assert calls == [(0, 1)]


def test_linearize_calls_hess_once_per_slot_pair():
    calls = []
    sys = build_translation_invariant(ex.circle(6), counted_edge_density(calls))
    lin = linearize(sys, {v: np.array([0.25]) for v in range(6)})
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]  # one call per slot pair, not per edge
    assert lin.operator.blocks[(sys.graph.vertex_sid(0), sys.graph.vertex_sid(0))][0, 0] == 2.0


def test_dynamical_step_degenerate_cross_hessian():
    # zero coupling in the scalar case; (x0 + x1)(y0 + y1) couples through
    # the singular 2x2 block [[1, 1], [1, 1]]
    zero = Density(
        2,
        value=lambda x, y: float(x**2 + y**2),
        grad=lambda xs, s: 2.0 * xs[s],
        hess=lambda xs, a, b: (np.full((len(xs[0]), 1, 1), 2.0 if a == b else 0.0)
                               if isinstance(xs[0], np.ndarray) else 2.0 if a == b else 0.0),
    )
    rank_one = Density(
        2,
        value=lambda x, y: float(x.sum() * y.sum() + 0.5 * x @ x + 0.5 * y @ y),
        grad=lambda xs, s: xs[1 - s].sum(axis=1, keepdims=True) + xs[s],
        hess=lambda xs, a, b: np.tile(np.eye(2) if a == b else np.ones((2, 2)), (len(xs[0]), 1, 1)),
    )
    for dens, dim in ((zero, 1), (rank_one, 2)):
        sys = DiscreteLagrangianSystem(ex.interval(1), [((0, 1), dens)], dim, allow_ends=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegeneracyError, match="cross Hessian between 0 and 1 is singular"):
                dynamical_step(sys, {0: np.full(dim, 1.0)}, 0, 1, x0=np.full(dim, 0.5))


def test_dynamical_step_nonconvergence():
    # stationarity equation 1 + y^2 = 0 has no real solution: Newton wanders
    den = expression_density(2, "x0 * (1 + x1**2)")
    graph = ex.interval(1)
    sys = DiscreteLagrangianSystem(graph, [((0, 1), den)], allow_ends=True)
    with pytest.raises(NonConvergenceError, match=f"after {NEWTON_MAXITER} iterations"):
        dynamical_step(sys, {0: np.array([0.0])}, 0, 1, x0=np.array([0.5]))


def test_dynamical_step_names_a_non_finite_neighbor():
    sys, psi, _ = kicked_path(10)
    partial = {v: psi[v] for v in range(7)}
    partial[5] = np.array([np.inf])
    with pytest.raises(DomainError, match="psi is not finite at vertex 5"):
        dynamical_step(sys, partial, 6, 7, x0=np.array([0.0]))


def test_linearize_standard_map_blocks():
    sys, psi, kick = kicked_path(8)
    # ends of the truncation are not stationary, so check the interior
    lin = linearize(sys, psi, at=list(range(1, 8)))
    assert lin.warning is None
    assert not lin.uses_fd
    op = lin.operator
    cx = op.complex
    for v in range(1, 8):
        diag = op.blocks[(cx.vertex_sid(v), cx.vertex_sid(v))]
        assert abs(diag[0, 0] - (2.0 - kick * np.cos(psi[v][0]))) <= 1e-12
        off = op.blocks[(cx.vertex_sid(v), cx.vertex_sid(v - 1))]
        assert abs(off[0, 0] + 1.0) <= 1e-12


def test_linearize_warns_off_solution():
    sys, psi, _ = kicked_path(6)
    bad = dict(psi)
    bad[3] = bad[3] + 0.2
    with pytest.warns(UserWarning):
        lin = linearize(sys, bad)
    assert lin.warning is not None


def test_linearize_rejects_non_finite_configuration():
    sys, psi, _ = kicked_path(10)
    bad = dict(psi)
    bad[5] = np.array([np.nan])
    with pytest.raises(DomainError, match="not finite at vertex 5"):
        linearize(sys, bad, at=list(range(1, 10)))


def test_unknown_at_vertex_is_a_domain_error():
    sys, psi, _ = kicked_path(10)
    with pytest.raises(DomainError, match="vertex 99 not in the system"):
        linearize(sys, psi, at=[1, 99])
    with pytest.raises(DomainError, match="vertex 99 not in the system"):
        variational_swronskian(sys, psi, psi, psi, at=[1, 99])


@pytest.mark.parametrize("call", [
    lambda sys, psi: dynamical_step(sys, psi, 99, 100),
    lambda sys, psi: local_action(sys, psi, around=[99]),
    lambda sys, psi: el_residual(sys, psi, 99),
], ids=["dynamical_step", "local_action", "el_residual"])
def test_unknown_vertex_is_a_domain_error_everywhere(call):
    sys, psi, _ = kicked_path(10)
    with pytest.raises(DomainError, match="vertex 99 not in the system"):
        call(sys, psi)


@pytest.mark.parametrize("call", [
    lambda sys, psi: linearize(sys, psi, at=list(range(1, 10))),
    lambda sys, psi: el_residual(sys, psi, 6),
    lambda sys, psi: dynamical_step(sys, psi, 6, 7),
    lambda sys, psi: local_action(sys, psi, around=[4]),
], ids=["linearize", "el_residual", "dynamical_step", "local_action"])
def test_a_value_of_the_wrong_length_is_named(call):
    sys, psi, _ = kicked_path(10)
    psi[5] = np.array([0.1, 0.2])
    with pytest.raises(DomainError, match="psi value at vertex 5 has 2 entries, expected 1"):
        call(sys, psi)


def test_dynamical_step_checks_the_length_of_x0():
    sys, psi, _ = kicked_path(10)
    with pytest.raises(DomainError, match="x0 has 2 entries, expected 1"):
        dynamical_step(sys, psi, 6, 7, x0=np.array([0.1, 0.2]))


@pytest.mark.parametrize("x0, what", [
    (np.array([0.2 + 1j]), "is complex; values must be real"),
    (["0.2"], "is not a vector of numbers"),
    ([None], "is not a vector of numbers"),
], ids=["complex", "text", "null"])
def test_dynamical_step_names_an_x0_that_is_not_real_numbers(x0, what):
    sys, psi, _ = kicked_path(10)
    with pytest.raises(DomainError, match=re.escape(f"x0 value at vertex 7 {what}")):
        dynamical_step(sys, psi, 6, 7, x0=x0)


def skewed_edge_system(skew):
    """One quadratic edge whose analytic cross Hessian (0, 1) is off by skew."""
    den = Density(
        2,
        value=lambda x, y: 0.5 * float((x - y) @ (x - y)),
        grad=lambda xs, s: (xs[0] - xs[1]) if s == 0 else (xs[1] - xs[0]),
        hess=lambda xs, a, b: np.full(
            (len(xs[0]), 1, 1), 1.0 if a == b else -1.0 + (skew if (a, b) == (0, 1) else 0.0)
        ),
    )
    sys = DiscreteLagrangianSystem(ex.interval(1), [((0, 1), den)], allow_ends=True)
    return sys, {0: np.array([0.3]), 1: np.array([0.3])}


def test_linearize_averages_blocks_within_asym_tol():
    assert ASYM_TOL == 1e-8
    sys, psi = skewed_edge_system(0.5 * ASYM_TOL)
    op = linearize(sys, psi).operator
    a, b = op.complex.vertex_sid(0), op.complex.vertex_sid(1)
    assert np.array_equal(op.blocks[(a, b)], op.blocks[(b, a)].T)
    assert op.blocks[(a, b)][0, 0] == 0.5 * ((-1.0 + 0.5 * ASYM_TOL) + -1.0)
    assert op.is_symmetric()

    sys, psi = skewed_edge_system(2 * ASYM_TOL)
    with pytest.raises(DomainError, match=r"blocks \(0, 1\) and \(1, 0\) break symmetry by 2\.000e-08"):
        linearize(sys, psi)


def test_fd_derivatives_of_vector_slots():
    def value(x, y):
        return float(np.sin(x[0]) * y[1] ** 2 + x[1] * y[0] ** 3)

    den = Density(2, value)
    assert den.uses_fd
    xs = [np.array([0.4, -0.8]), np.array([1.2, 0.5])]
    (x0, x1), (y0, y1) = xs
    rows = [x[None] for x in xs]
    assert np.allclose(den.grad(rows, 0)[0], [np.cos(x0) * y1**2, y0**3], atol=1e-8)
    assert np.allclose(den.grad(rows, 1)[0], [3 * x1 * y0**2, 2 * np.sin(x0) * y1], atol=1e-8)
    cross = den.hess(rows, 0, 1)[0]
    assert cross.shape == (2, 2)
    want = [[0.0, 2 * np.cos(x0) * y1], [3 * y0**2, 0.0]]
    assert np.allclose(cross, want, atol=1e-5)


def test_variational_chain_constant_for_kernel_pairs():
    sys, psi, kick = kicked_path(30)
    interior = list(range(1, 30))
    cx = sys.graph
    d1, d2 = tangent_pair(psi, kick, 30)
    w = variational_swronskian(sys, psi, d1, d2, at=interior)
    rep = verify_cycle(w)
    assert rep.passed
    coeffs = [w.chain.coeffs[cx.edge_sid(v, v + 1)] for v in range(5, 25)]
    spread = max(abs(c - coeffs[0]) for c in coeffs)
    assert spread <= 1e-10
    # initial data pins the value: psi-first minus phi-first at the seed
    assert abs(coeffs[0] - (-1.0)) <= 1e-10


def test_complex_values_are_named():
    # the kernel check read the real part of a complex variation while the
    # chain used the complex values: verify_cycle failed with no error
    sys, psi, kick = kicked_path(30)
    d1, d2 = tangent_pair(psi, kick, 30)
    shifted = {v: x + 5j + (3j if v == 10 else 0.0) for v, x in d1.items()}
    with pytest.raises(DomainError, match=re.escape("delta1 value at vertex 0 is complex; values must be real")):
        variational_swronskian(sys, psi, shifted, d2, at=list(range(1, 30)))
    one = {**d2, 10: d2[10] + 3j}
    with pytest.raises(DomainError, match=re.escape("delta2 value at vertex 10 is complex")):
        variational_swronskian(sys, psi, d1, one, at=list(range(1, 30)))
    bad = {**psi, 4: psi[4] + 0j}  # a complex dtype is complex, whatever its imaginary part
    for call in (lambda: linearize(sys, bad), lambda: dynamical_step(sys, bad, 3, 2), lambda: local_action(sys, bad)):
        with pytest.raises(DomainError, match=re.escape("psi value at vertex 4 is complex")):
            call()
    # real values of any type still read as floats
    lists = {v: x.tolist() for v, x in d1.items()}
    want = variational_swronskian(sys, psi, d1, d2, at=list(range(1, 30))).chain.coeffs
    assert variational_swronskian(sys, psi, lists, d2, at=list(range(1, 30))).chain.coeffs == want


def test_variational_chain_rejects_non_kernel():
    sys, psi, _ = kicked_path(10)
    junk = {v: np.array([float(v)]) for v in range(11)}
    with pytest.raises(DomainError):
        variational_swronskian(sys, psi, junk, junk, at=list(range(1, 10)))


def test_an_empty_at_gives_an_empty_support():
    sys, psi, kick = kicked_path(12)
    d1, d2 = tangent_pair(psi, kick, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing is checked, so nothing misses stationarity
        assert len(linearize(sys, psi, at=[]).operator.stack) == 0
        w = variational_swronskian(sys, psi, d1, d2, at=[])
    assert w.support == set() and w.chain.coeffs == {}


def test_homogeneous_order4_builder():
    cx = ex.circle(5)
    den = expression_density(3, "x0 ** 2 * (x1 + x2)")
    sys = build_homogeneous_order4(cx, den)
    assert len(sys.interactions) == 5
    with pytest.raises(DomainError):
        build_homogeneous_order4(ex.interval(3), den)


def test_quadratic_chain_matches_hand_value():
    n = 12
    graph = ex.circle(n)
    sys = build_translation_invariant(graph, quadratic_pair_density())
    psi = {v: np.array([0.0]) for v in range(n)}
    # kernel of the discrete Laplacian on the circle: constants and nothing else
    d1 = {v: np.array([1.0]) for v in range(n)}
    d2 = {v: np.array([1.0]) for v in range(n)}
    w = variational_swronskian(sys, psi, d1, d2)
    assert w.max_abs() == 0.0
    # the residual is exactly 0, so a zero tolerance accepts it
    assert variational_swronskian(sys, psi, d1, d2, kernel_tol=0.0).max_abs() == 0.0


def test_verify_cycle_fails_a_chain_with_nan_coefficients():
    sys, psi, kick = kicked_path(30)
    interior = list(range(1, 30))
    op = linearize(sys, psi, at=interior).operator
    d1, d2 = tangent_pair(psi, kick, 30)
    d1[7] = np.array([np.nan])
    sid = op.complex.vertex_sid
    w = swronskian(op, 0.0, {sid(v): x for v, x in d1.items()},
                   {sid(v): x for v, x in d2.items()}, support=[sid(v) for v in interior])
    assert any(np.isnan(c) for c in w.chain.coeffs.values())
    rep = verify_cycle(w)
    assert not rep.passed
    assert np.isnan(rep.scale) and np.isnan(rep.max_boundary_residual)


@pytest.mark.parametrize("which", ["delta1", "delta2"])
def test_variational_swronskian_names_a_bad_variation_value(which):
    sys, psi, kick = kicked_path(30)
    interior = list(range(1, 30))
    for bad, msg in ((np.array([np.nan]), f"{which} is not finite at vertex 7"),
                     (np.array([1.0, 2.0]), f"{which} value at vertex 7 has 2 entries, expected 1"),
                     (np.zeros(0), f"{which} value at vertex 7 has 0 entries, expected 1"),
                     ([[0.1], [0.2, 0.3]], f"{which} value at vertex 7 is not a vector of numbers")):
        pair = dict(zip(("delta1", "delta2"), tangent_pair(psi, kick, 30)))
        pair[which][7] = bad
        with pytest.raises(DomainError, match=msg):
            variational_swronskian(sys, psi, pair["delta1"], pair["delta2"], at=interior)


def relabelled_kicked_path(n, offset):
    """kicked_path(n) and its tangent pair on the labels offset..offset+n, so
    that a label is not its simplex id."""
    _, psi, kick = kicked_path(n)
    graph = SimplicialComplex([(offset + v, offset + v + 1) for v in range(n)])
    sys = build_translation_invariant(graph, standard_map_density(kick), allow_ends=True)
    shift = lambda values: {offset + v: x for v, x in values.items()}
    return sys, shift(psi), *map(shift, tangent_pair(psi, kick, n))


@pytest.mark.parametrize("which", ["delta1", "delta2"])
def test_a_variation_missing_at_a_support_vertex_is_named_by_its_label(which):
    sys, psi, d1, d2 = relabelled_kicked_path(30, 10)
    interior = list(range(11, 40))
    assert sys.graph.vertex_sid(17) != 17
    pair = {"delta1": d1, "delta2": d2}
    del pair[which][17]
    with pytest.raises(DomainError, match=f"^{which} undefined at vertex 17$"):
        variational_swronskian(sys, psi, d1, d2, at=interior)


def test_a_variation_label_outside_the_graph_still_raises():
    sys, psi, d1, d2 = relabelled_kicked_path(30, 10)
    d2[99] = np.array([0.0])
    with pytest.raises(DomainError, match="vertex 99 not in complex"):
        variational_swronskian(sys, psi, d1, d2, at=list(range(11, 40)))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-8])
def test_kernel_tol_must_be_finite_and_not_negative(tol):
    sys, psi, kick = kicked_path(30)
    d1, d2 = tangent_pair(psi, kick, 30)
    with pytest.raises(DomainError, match=r"^kernel_tol -?(nan|inf|1e-08) is not a finite number >= 0$"):
        variational_swronskian(sys, psi, d1, d2, at=list(range(1, 30)), kernel_tol=tol)


def oracle_kernel_residual(op, support, values):
    """max |L delta| over the support ids whose every block source has a value,
    from ``oracles.block_apply``, and the block scale."""
    covered = [a for a in support if all(b in values for (t, b) in op.blocks if t == a)]
    img = orc.block_apply(op, values, at=covered)
    scale = max(float(np.abs(block).max()) for block in op.blocks.values())
    return max(float(np.abs(x).max()) for x in img.values()), scale


def test_the_kernel_check_is_the_block_apply_residual_against_its_bound():
    sys, psi, kick = kicked_path(30)
    interior = list(range(1, 30))
    d1, d2 = tangent_pair(psi, kick, 30)
    d1[12] = d1[12] + 1e-3
    op = linearize(sys, psi, at=interior).operator
    sid = op.complex.vertex_sid
    residual, scale = oracle_kernel_residual(op, [sid(v) for v in interior],
                                             {sid(v): x for v, x in d1.items()})
    assert 1e-4 < residual < 1e-2
    at_bound = residual / max(1.0, scale)
    w = variational_swronskian(sys, psi, d1, d2, at=interior, kernel_tol=at_bound * (1 + 1e-6))
    assert w.operator is op
    with pytest.raises(DomainError, match=re.escape(f"delta1 is not a kernel variation "
                                                    f"(residual {residual:.3e})")):
        variational_swronskian(sys, psi, d1, d2, at=interior, kernel_tol=at_bound * (1 - 1e-6))


def test_the_kernel_check_skips_fringe_vertices_the_variation_does_not_cover():
    sys, psi, kick = kicked_path(30)
    interior = list(range(1, 30))
    d1, d2 = tangent_pair(psi, kick, 30)
    full = variational_swronskian(sys, psi, d1, d2, at=interior)
    # defined on the support only: the stencils of 1 and 29 reach 0 and 30
    short1, short2 = ({v: d[v] for v in interior} for d in (d1, d2))
    op = full.operator
    sid = op.complex.vertex_sid
    for fringe in (1, 29):
        with pytest.raises(DomainError, match="psi undefined on simplex"):
            orc.block_apply(op, {sid(v): x for v, x in short1.items()}, at=[sid(fringe)])
    residual, _ = oracle_kernel_residual(op, [sid(v) for v in interior],
                                         {sid(v): x for v, x in short1.items()})
    assert residual <= 1e-12
    short = variational_swronskian(sys, psi, short1, short2, at=interior, kernel_tol=1e-12)
    assert short.chain.coeffs == full.chain.coeffs


def test_variational_swronskian_makes_no_apply_call(monkeypatch):
    sys, psi, kick = kicked_path(30)
    d1, d2 = tangent_pair(psi, kick, 30)
    calls = []

    def counted(name, real):
        def spy(*args, **kw):
            calls.append(name)
            return real(*args, **kw)
        return spy

    for name in ("apply", "_act"):
        monkeypatch.setattr(DiscreteOperator, name, counted(name, getattr(DiscreteOperator, name)))
    variational_swronskian(sys, psi, d1, d2, at=list(range(1, 30)))
    assert calls == ["_act", "_act"]  # one product over the stack per variation


def test_linearize_reuses_its_operator_for_equal_content():
    sys, psi, _ = kicked_path(20)
    interior = list(range(1, 20))
    first = linearize(sys, psi, at=interior)
    again = linearize(sys, {v: x.copy() for v, x in psi.items()}, at=list(interior))
    assert again.operator is first.operator
    assert again is not first
    assert again.max_el_residual == first.max_el_residual
    again.warning = "edited"
    assert linearize(sys, psi, at=interior).warning is None


def test_linearize_rebuilds_when_what_it_reads_changes():
    sys, psi, _ = kicked_path(20)
    interior = list(range(1, 20))

    def rebuilt(changed_psi=psi, at=interior):
        base = linearize(sys, psi, at=interior).operator
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            op = linearize(sys, changed_psi, at=at).operator
        return op is not base

    assert rebuilt({**psi, 4: psi[4] + 1e-12})
    # the same interactions, but the unstationary ends are now checked too
    assert rebuilt(at=list(range(21)))
    base = linearize(sys, psi, at=interior).operator
    psi[4] += 1e-12  # in place
    assert linearize(sys, psi, at=interior).operator is not base


def test_linearize_keys_its_reuse_on_the_values_read():
    sys, psi, _ = kicked_path(20)
    interior = list(range(1, 20))
    base = linearize(sys, psi, at=interior).operator
    # the same numbers in other shapes read as the same field
    same = {**psi, 4: psi[4].reshape(1, 1), 5: float(psi[5][0]), 6: psi[6].tolist()}
    assert linearize(sys, same, at=interior).operator is base
    old = psi[4][0]
    psi[4][0] = old + 1e-12  # an entry edited in place
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        edited = linearize(sys, psi, at=interior).operator
    assert edited is not base
    psi[4][0] = old
    assert linearize(sys, psi, at=interior).operator is not edited


BAD_VALUES = [
    (None, "psi undefined at vertex 7"),
    (np.array([np.nan]), "psi is not finite at vertex 7"),
    (np.array([1.0, 2.0]), "psi value at vertex 7 has 2 entries, expected 1"),
    (np.zeros(0), "psi value at vertex 7 has 0 entries, expected 1"),
    ([[0.1], [0.2, 0.3]], "psi value at vertex 7 is not a vector of numbers"),
    # a float is read by a same-kind cast: text, null and complex do not cast
    (["0.5"], "psi value at vertex 7 is not a vector of numbers"),
    ([None], "psi value at vertex 7 is not a vector of numbers"),
    (np.array([0.5], dtype=np.complex64), "psi value at vertex 7 is complex; values must be real"),
]


@pytest.mark.parametrize("bad, msg", BAD_VALUES,
                         ids=["missing", "nan", "long", "empty", "ragged", "text", "null", "complex64"])
def test_linearize_names_a_bad_value(bad, msg):
    sys, psi, kick = kicked_path(30)
    interior = list(range(1, 30))
    d1, d2 = tangent_pair(psi, kick, 30)
    if bad is None:
        del psi[7]
    else:
        psi[7] = bad
    for call in (lambda: linearize(sys, psi, at=interior),
                 lambda: variational_swronskian(sys, psi, d1, d2, at=interior)):
        with pytest.raises(DomainError, match=re.escape(msg)):
            call()


def test_a_bad_length_is_named_before_an_earlier_non_finite_value():
    sys, psi, _ = kicked_path(30)
    psi[3], psi[7] = np.array([np.inf]), np.array([1.0, 2.0])
    with pytest.raises(DomainError, match="psi value at vertex 7 has 2 entries, expected 1"):
        linearize(sys, psi, at=list(range(1, 30)))


def test_linearize_reemits_its_warning_on_reuse():
    sys, psi, _ = kicked_path(6)
    bad = dict(psi)
    bad[3] = bad[3] + 0.2
    with pytest.warns(UserWarning, match="misses stationarity"):
        first = linearize(sys, bad)
    with pytest.warns(UserWarning, match="misses stationarity"):
        again = linearize(sys, dict(bad))
    assert again.operator is first.operator
    assert again.warning == first.warning


@pytest.mark.parametrize("n", [30, 200, 500])
def test_variational_chain_is_unchanged_by_reuse(n):
    rng = np.random.default_rng(n)
    kick = float(rng.uniform(0.3, 0.8))
    sys, psi, _ = kicked_path(n, kick, *rng.uniform(-0.3, 0.3, 2))
    interior = list(range(1, n))
    d1, d2 = tangent_pair(psi, kick, n)
    lin = linearize(sys, psi, at=interior)
    reused = variational_swronskian(sys, psi, d1, d2, at=interior)
    assert reused.operator is lin.operator
    sys._linearized = (None, None)
    built = variational_swronskian(sys, psi, d1, d2, at=interior)
    assert reused.operator is not built.operator
    assert list(reused.chain.coeffs) == list(built.chain.coeffs)
    assert (np.array(list(reused.chain.coeffs.values())).tobytes()
            == np.array(list(built.chain.coeffs.values())).tobytes())


# -- stacked evaluation against the one-interaction-at-a-time oracle -------------


RING_EXPR = "0.5 * (x0 - x1) ** 2 + 0.5 * (x0 - x2) ** 2 + 0.25 * np.cos(x0) * (x1 - x2) ** 2"


def user_density():
    """x^2 y + sin(x - y) with analytic derivatives over row stacks or floats."""
    def grad(xs, s):
        x, y = xs
        return (2 * x * y + np.cos(x - y)) if s == 0 else (x**2 - np.cos(x - y))

    def hess(xs, a, b):
        x, y = xs
        h = 2 * y - np.sin(x - y) if a == b == 0 else -np.sin(x - y) if a == b else 2 * x + np.sin(x - y)
        return h[:, :, None] if isinstance(x, np.ndarray) else h

    return Density(2, value=lambda x, y: float(x[0] ** 2 * y[0] + np.sin(x[0] - y[0])), grad=grad, hess=hess)


def order4_ring():
    # every vertex meets three interactions; the expression density runs the FD row loop
    return build_homogeneous_order4(ex.circle(8), expression_density(3, RING_EXPR)), 1


def quadratic_dim2():
    return build_translation_invariant(ex.circle(6), quadratic_pair_density(1.3), chart_dim=2), 2


def mixed_densities(graph=None):
    # on a path (a graph with ends) every edge keeps its vertex order
    graph, ends = (ex.circle(9), False) if graph is None else (graph, True)
    dens = [quadratic_pair_density(0.7), standard_map_density(0.6), user_density()]
    edges = [graph.simplex(eid).vertices for eid in graph.edge_sids]
    inters = [(vs if k % 2 or ends else vs[::-1], dens[k % 3]) for k, vs in enumerate(edges)]
    return DiscreteLagrangianSystem(graph, inters, allow_ends=ends), 1


@pytest.mark.parametrize("build", [order4_ring, quadratic_dim2, mixed_densities])
def test_linearize_and_el_residual_agree_with_the_per_slot_oracle(build):
    sys, dim = build()
    rng = np.random.default_rng(3)
    psi = {v: rng.uniform(-0.5, 0.5, dim) for v in sys.graph.vertex_labels}
    grads, raw = orc.lagrangian_derivatives(sys, psi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # psi is not stationary
        lin = linearize(sys, psi)
    sid = sys.graph.vertex_sid
    want = {(sid(u), sid(w)): 0.5 * (m + raw[(w, u)].T) for (u, w), m in raw.items()}
    scale = max(float(np.abs(m).max()) for m in want.values())
    assert list(lin.operator.blocks) == [k for k, m in want.items() if np.any(m)]
    for k, m in want.items():
        assert np.abs(lin.operator.blocks.get(k, 0.0) - m).max() <= 1e-14 * scale
    for v, g in grads.items():
        assert np.abs(el_residual(sys, psi, v) - g).max() <= 1e-14 * max(1.0, np.abs(g).max())
    worst = max(float(np.abs(g).max()) for g in grads.values())
    assert abs(lin.max_el_residual - worst) <= 1e-14 * worst


def test_el_residual_and_dynamical_step_on_mixed_chart_dims():
    den = Density(2, lambda x, y: float(np.sum(x) * np.sum(y) ** 2 + 0.5 * x @ x + 0.5 * y @ y))
    sys = DiscreteLagrangianSystem(
        ex.circle(3), [((0, 1), den), ((1, 2), den), ((0, 2), den)],
        chart_dims={0: 1, 1: 1, 2: 2})
    psi = {0: np.array([-1.0]), 1: np.array([0.4]), 2: np.array([0.2, 0.3])}
    for v in (0, 1, 2):
        want = orc.lagrangian_derivatives(sys, psi, rows={v}, cols=())[0][v]
        assert np.abs(el_residual(sys, psi, v) - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
    with pytest.raises(DomainError, match="mixed chart dimensions"):
        linearize(sys, psi)
    # Newton for the value at 1 from the stationarity equation at 0, by the oracle
    x = np.array([1.0])
    for _ in range(50):
        g, h = orc.lagrangian_derivatives(sys, {**psi, 1: x}, rows={0}, cols={1})
        if np.linalg.norm(g[0]) <= NEWTON_TOL:
            break
        x = x - np.linalg.solve(h[(0, 1)], g[0])
    got = dynamical_step(sys, {0: psi[0], 2: psi[2]}, 0, 1, x0=np.array([1.0]))
    assert abs(x[0] - np.sqrt(1.75)) <= 1e-6
    assert np.abs(got - x).max() <= 1e-14 * np.abs(x).max()
    # one equation at 0 for the two unknowns at 2 has no Newton step: a shape
    # error naming both chart dimensions, not a singular cross Hessian
    with pytest.raises(DomainError, match="chart dimensions differ: 1 at vertex 0, 2 at vertex 2"):
        dynamical_step(sys, {0: psi[0], 1: psi[1]}, 0, 2, x0=[0.1, 0.2])


def test_standard_map_rows_match_the_closed_form():
    kick = 0.7
    den = standard_map_density(kick)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-3.0, 3.0, (2, 64, 1))
    want = {
        (0,): [xi - yi - kick * math.sin(xi) for xi, yi in zip(x[:, 0], y[:, 0])],
        (1,): list(y[:, 0] - x[:, 0]),
        (0, 0): [1.0 - kick * math.cos(xi) for xi in x[:, 0]],
        (0, 1): [-1.0] * 64, (1, 0): [-1.0] * 64, (1, 1): [1.0] * 64,
    }
    for slots, closed in want.items():
        rows = den.grad([x, y], *slots) if len(slots) == 1 else den.hess([x, y], *slots)
        closed = np.array(closed)
        assert rows.shape == (64,) + (1,) * len(slots)
        assert np.all(np.abs(rows.reshape(64) - closed) <= 1e-15 * np.maximum(1.0, np.abs(closed)))


SCALAR_DENSITIES = {
    "standard-map": standard_map_density(0.5),
    "expression": expression_density(2, "0.5*(x0-x1)**2"),
}


@pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
def test_scalar_slot_densities_reject_vector_charts_by_name(name):
    sys = build_translation_invariant(ex.circle(4), SCALAR_DENSITIES[name], chart_dim=2)
    psi = {v: np.array([0.1 * v, 0.2]) for v in sys.graph.vertex_labels}
    want = f"the {name} density takes scalar slots"
    for call in (lambda: local_action(sys, psi), lambda: linearize(sys, psi),
                 lambda: el_residual(sys, psi, 0), lambda: dynamical_step(sys, psi, 0, 1)):
        with pytest.raises(DomainError, match=re.escape(want)):
            call()
