"""End-to-end acceptance checks at the advertised tolerances and budgets.

Every test prints one summary line (visible with -s); the asserts pin
the same numbers, so a FAIL line always comes with a failing test.
Randomized suites use fixed seeds.
"""

import time

import numpy as np

import oracles as orc
from swron import (
    DiscreteOperator,
    asymptotic_subspace,
    band_scan,
    build_hodge,
    build_translation_invariant,
    classify_monodromy,
    cover_apply,
    direct_image,
    el_residual,
    find_critical_points,
    harmonic_basis,
    leading_determinant_product,
    linearize,
    local_action,
    periodized_cover_matrix,
    periodized_line_matrix,
    quadratic_pair_density,
    regular_discrete_spectrum,
    scattering_matrix,
    standard_map_density,
    swronskian,
    swronskian_form,
    to_vertex_operator,
    transfer_map,
    variational_swronskian,
    verify_cycle,
)
from swron import examples as ex
from swron.verify import coupled_free_sites, kernel_solutions


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")


def tailed_fixtures():
    return [
        ("two-tail line", ex.pure_line_graph(), 2),
        ("3-tail star", ex.star_tailed(3), 3),
        ("4-tail star", ex.star_tailed(4), 4),
        ("two-tail ring core", ex.two_tail_ring_core(6), 2),
    ]


def test_criterion_01_swronskian_cycles():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    all_ok = True
    worst = 0.0
    for _ in range(200):
        cx = ex.random_complex(rng, 60)
        vec_dim = int(rng.integers(1, 4))
        max_steps = int(rng.integers(1, 4))
        raw = ex.random_operator(rng, cx, vec_dim=vec_dim, max_steps=max_steps)
        vop, sub, centers = to_vertex_operator(raw)
        domain = [sub.vertex_sid(v) for v in sub.vertex_labels]
        order = [sub.vertex_sid(centers[s.id]) for s in raw.complex.simplices]
        n_free = max(2, (2 + vop.vec_dim - 1) // vop.vec_dim + 1)
        free = coupled_free_sites(vop, order, n_free)
        for lam in rng.uniform(-3.0, 3.0, size=20):
            (psi, phi), imposed = kernel_solutions(
                vop, float(lam), free, rng, sids=domain
            )
            w = swronskian(vop, float(lam), psi, phi)
            rep = verify_cycle(w, tol_rel=1e-9, interior=imposed)
            all_ok = all_ok and rep.passed
            if rep.scale > 0:
                worst = max(worst, rep.max_boundary_residual / rep.scale)
    elapsed = time.perf_counter() - t0
    report(1, all_ok and elapsed < 30.0,
           f"200 cases x 20 lambda, worst |dW|/|W| {worst:.2e}, {elapsed:.1f}s")
    assert all_ok
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_02_form_matrix_pattern_and_determinant():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    pattern_ok = det_ok = oracle_ok = True
    worst_det = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        op = ex.random_line_operator(rng, k, l, n_site_terms=int(rng.integers(0, 3)))
        m = int(rng.integers(-2, 3))
        sw = swronskian_form(op, m)
        n = k * l
        pattern_ok = pattern_ok and bool(np.all(sw.matrix[:n, :n] == 0))
        pattern_ok = pattern_ok and bool(np.all(sw.matrix[n:, n:] == 0))
        upper = sw.matrix[:n, n:]
        pattern_ok = pattern_ok and np.array_equal(sw.matrix[n:, :n], -upper.T)
        for pi, p in enumerate(range(-k + 1, 1)):
            for qi, q in enumerate(range(1, k + 1)):
                got = upper[pi * l:(pi + 1) * l, qi * l:(qi + 1) * l]
                pattern_ok = pattern_ok and np.array_equal(got, op.block(m + p, q - p))
        det = sw.determinant()
        want = leading_determinant_product(op, m)
        gap = abs(det - want) / max(1.0, abs(want))
        worst_det = max(worst_det, gap)
        det_ok = det_ok and gap <= 1e-10
        cx, vop, base = orc.path_hosted_operator(op, m - op.k - 1, m + op.k + 1)
        for a, (p, i) in enumerate(sw.columns):
            for b, (q, j) in enumerate(sw.columns):
                entry = orc.chain_form_entry(cx, vop, base, m, m + p, i, m + q, j)
                oracle_ok = oracle_ok and entry == sw.matrix[a, b]
    elapsed = time.perf_counter() - t0
    ok = pattern_ok and det_ok and oracle_ok and elapsed < 10.0
    report(2, ok, f"100 operators, worst det gap {worst_det:.2e}, {elapsed:.1f}s")
    assert pattern_ok
    assert det_ok
    assert oracle_ok
    assert elapsed < 10.0


def test_criterion_03_transfer_preserves_form():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        op = ex.random_line_operator(rng, k, l, n_site_terms=int(rng.integers(0, 3)))
        lams = np.concatenate([
            rng.uniform(-3, 3, 25),
            rng.uniform(-3, 3, 25) + 1j * rng.uniform(-1, 1, 25),
        ])
        for lam in lams:
            m = int(rng.integers(-2, 3))
            worst = max(worst, transfer_map(op, complex(lam), m).symplectic_defect())
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-10 and elapsed < 10.0,
           f"100 operators x 50 lambda, worst defect {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_04_direct_image_equivalence():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    exact_ok = True
    worst_spec = 0.0
    for cover in (ex.cover_z(), ex.cover_ladder(), ex.cover_spiral()):
        blocks = ex.cover_laplacian_blocks(cover)
        lop, di = direct_image(cover, blocks, 1)
        lo, hi = -8, 8
        psi = {
            (a, n): float(rng.integers(-5, 6)) * np.ones(1)
            for a in cover.orbits
            for n in range(lo, hi + 1)
        }
        omin = min(di.offsets.values())
        omax = max(di.offsets.values())
        pad = lop.k + 2
        line_img = lop.apply(
            di.to_line(psi), range(lo + pad + omin, hi - pad + omax + 1)
        )
        back = di.to_cover(line_img)
        targets = [
            (a, n) for a in cover.orbits for n in range(lo + pad, hi - pad + 1)
        ]
        cov_img = cover_apply(cover, blocks, 1, psi, targets)
        for key in targets:
            exact_ok = exact_ok and np.array_equal(back[key], cov_img[key])
        cmat, _ = periodized_cover_matrix(cover, blocks, 1, 5)
        lmat = periodized_line_matrix(lop, 5)
        a_eigs = np.sort(np.linalg.eigvalsh(cmat))
        b_eigs = np.sort(np.linalg.eigvalsh(lmat))
        worst_spec = max(worst_spec, float(np.max(np.abs(a_eigs - b_eigs))))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and worst_spec <= 1e-10 and elapsed < 5.0
    report(4, ok, f"3 covers, commutation exact, spectra gap {worst_spec:.2e}, "
                  f"{elapsed:.1f}s")
    assert exact_ok
    assert worst_spec <= 1e-10
    assert elapsed < 5.0


def test_criterion_05_classification_identity():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    identity_ok = True
    checked = 0
    ops = [ex.free_line_operator(1), ex.free_line_operator(2),
           ex.free_line_operator(3)]
    for _ in range(3):
        ops.append(ex.random_line_operator(
            rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))))
    for op in ops:
        kl = op.k * op.l
        for lam in np.linspace(-4.0, 4.0, 81):
            clf = classify_monodromy(transfer_map(op, float(lam), 0),
                                     float(lam), kl=kl)
            if not clf.critical:
                identity_ok = identity_ok and (
                    2 * clf.s + 4 * clf.p + 2 * clf.q == 2 * kl
                )
                checked += 1
    for graph in (ex.pure_line_graph(), ex.star_tailed(3),
                  ex.two_tail_ring_core(6)):
        scan = band_scan(graph, -3.0, 3.0, 41)
        for row in scan.rows:
            for cl, tail in zip(row.result.subspace.classifications, graph.tails):
                if not cl.critical:
                    kl = tail.op.k * tail.op.l
                    identity_ok = identity_ok and (
                        2 * cl.s + 4 * cl.p + 2 * cl.q == 2 * kl
                    )
                    checked += 1
    crit = find_critical_points(ex.free_line_operator(1), -3.0, 3.0, 121)
    lams = sorted(cp.lam for cp in crit)
    crit_ok = (len(lams) == 2 and abs(lams[0] + 2.0) <= 1e-8
               and abs(lams[1] - 2.0) <= 1e-8)
    elapsed = time.perf_counter() - t0
    ok = identity_ok and crit_ok and elapsed < 5.0
    report(5, ok, f"{checked} non-critical grid points, band edges "
                  f"{lams[0]:+.9f}/{lams[1]:+.9f}, {elapsed:.1f}s")
    assert identity_ok
    assert crit_ok
    assert elapsed < 5.0


def test_criterion_06_asymptotic_subspace():
    t0 = time.perf_counter()
    dims_ok = True
    worst_lag = 0.0
    for name, graph, want in tailed_fixtures():
        for lam in np.linspace(-1.9, 1.9, 20):
            sub = asymptotic_subspace(graph, float(lam))
            dims_ok = dims_ok and sub.dim == want == sub.expected_dim
            worst_lag = max(worst_lag, sub.lagrangian_residual)
    elapsed = time.perf_counter() - t0
    ok = dims_ok and worst_lag <= 1e-8 and elapsed < 60.0
    report(6, ok, f"4 graphs x 20 lambda, worst Lagrangian residual "
                  f"{worst_lag:.2e}, {elapsed:.1f}s")
    assert dims_ok
    assert worst_lag <= 1e-8
    assert elapsed < 60.0


def test_criterion_07_scattering_unitary_symmetric():
    t0 = time.perf_counter()
    defined_ok = True
    worst_u = worst_s = worst_d = worst_o = 0.0
    fixtures = tailed_fixtures() + [("well", ex.potential_line(1.0), 2)]
    for name, graph, want in fixtures:
        depth0 = graph.default_depth()
        for lam in np.linspace(-1.9, 1.9, 20):
            res = scattering_matrix(graph, float(lam))
            defined_ok = defined_ok and res.s_matrix is not None
            if res.s_matrix is not None:
                worst_u = max(worst_u, res.unitarity_residual)
                worst_s = max(worst_s, res.symmetry_residual)
        for lam in (-1.3, 0.5, 1.7):
            res = scattering_matrix(graph, lam, depth0)
            a = res.s_matrix
            b = scattering_matrix(graph, lam, 2 * depth0).s_matrix
            worst_d = max(worst_d, float(np.max(np.abs(a - b))))
            # the depth-free S against the truncated modal system at the
            # old default depth (50 k + junction rows per tail)
            s, outs = orc.truncated_modal_s_matrix(graph, lam)
            channels = [(j, m.mu, m.w) for j, mset in enumerate(res.subspace.modes)
                        for m in mset if m.kind == "out"]
            oracle = orc.in_channel_gauge(s, outs, channels)
            worst_o = max(worst_o, float(np.max(np.abs(a - oracle))))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst_swap = 0.0
    for lam in (-1.3, 0.2, 1.5):
        s = scattering_matrix(ex.pure_line_graph(), lam).s_matrix
        oracle = orc.site_basis_s_matrix(lam, 60)
        worst_swap = max(worst_swap,
                         float(np.max(np.abs(s - swap))),
                         float(np.max(np.abs(oracle - swap))),
                         float(np.max(np.abs(s - oracle))))
    elapsed = time.perf_counter() - t0
    ok = (defined_ok and worst_u <= 1e-7 and worst_s <= 1e-7
          and worst_swap <= 1e-8 and worst_d <= 1e-6 and worst_o <= 1e-10
          and elapsed < 60.0)
    report(7, ok, f"unitarity {worst_u:.2e}, symmetry {worst_s:.2e}, "
                  f"swap {worst_swap:.2e}, depth-doubling {worst_d:.2e}, "
                  f"truncation oracle {worst_o:.2e}, {elapsed:.1f}s")
    assert defined_ok
    assert worst_u <= 1e-7
    assert worst_s <= 1e-7
    assert worst_swap <= 1e-8
    assert worst_d <= 1e-6
    assert worst_o <= 1e-10
    assert elapsed < 60.0


def degree_laplacian_operator(cx, k, lap):
    # distance-2 block operator within one degree, suitable for pair chains
    sids = [s.id for s in cx.simplices_of_dim(k)]
    blocks = {}
    for i, a in enumerate(sids):
        for j, b in enumerate(sids):
            if lap[i, j] != 0.0:
                blocks[(a, b)] = np.array([[lap[i, j]]])
    return DiscreteOperator(cx, 1, blocks, order=2, check_distance=False), sids


def test_criterion_08_harmonic_dimensions_and_zero_mode_chains():
    t0 = time.perf_counter()
    fixtures = [
        ("interval", ex.interval(4), [1, 0]),
        ("circle", ex.circle(6), [1, 1]),
        ("wedge", ex.wedge_two_circles(3, 4), [1, 2]),
        ("sphere", ex.sphere_complex(), [1, 0, 1]),
        ("torus", ex.torus_complex(), [1, 2, 1]),
    ]
    dims_ok = True
    worst = 0.0
    nonvacuous = 0.0
    rng = np.random.default_rng(808)
    for name, cx, want in fixtures:
        bases = harmonic_basis(cx)
        dims = [b.shape[1] for b in bases]
        dims_ok = dims_ok and dims == want == orc.betti_via_ranks(cx)
        hodge = build_hodge(cx)
        for k, basis in enumerate(bases):
            if basis.shape[1] == 0:
                continue
            op, sids = degree_laplacian_operator(cx, k, hodge.laplacians[k])
            vop, sub, centers = to_vertex_operator(op)

            def cochain(col):
                return {sub.vertex_sid(centers[sid]): np.array([col[i]])
                        for i, sid in enumerate(sids)}

            for a in range(basis.shape[1]):
                for b in range(basis.shape[1]):
                    w = swronskian(vop, 0.0, cochain(basis[:, a]),
                                   cochain(basis[:, b]))
                    worst = max(worst, w.max_abs())
            # guard against a vacuous check: random pairs must not vanish
            r = swronskian(vop, 0.0,
                           cochain(rng.standard_normal(len(sids))),
                           cochain(rng.standard_normal(len(sids))))
            nonvacuous = max(nonvacuous, r.max_abs())
    elapsed = time.perf_counter() - t0
    ok = dims_ok and worst <= 1e-10 and nonvacuous > 1e-3 and elapsed < 10.0
    report(8, ok, f"5 complexes, worst zero-mode chain {worst:.2e}, "
                  f"{elapsed:.1f}s")
    assert dims_ok
    assert worst <= 1e-10
    assert nonvacuous > 1e-3
    assert elapsed < 10.0


def test_criterion_09_bound_state_against_truncation_oracle():
    t0 = time.perf_counter()
    states = regular_discrete_spectrum(ex.potential_line(1.0), -3.2, -2.05, 61)
    regular = [s for s in states if not s.singular]
    want = orc.well_bound_state(1.0, depth=200)
    gap = abs(regular[0].lam - want) if len(regular) == 1 else float("inf")
    found_ok = len(regular) == 1 and gap <= 1e-6 and not regular[0].uncertain
    empty_below = regular_discrete_spectrum(ex.pure_line_graph(), -3.2, -2.05, 41)
    empty_above = regular_discrete_spectrum(ex.pure_line_graph(), 2.05, 3.2, 41)
    empty_ok = empty_below == [] and empty_above == []
    elapsed = time.perf_counter() - t0
    ok = found_ok and empty_ok and elapsed < 10.0
    report(9, ok, f"well state gap {gap:.2e} vs depth-200 oracle, "
                  f"free line empty, {elapsed:.1f}s")
    assert found_ok
    assert empty_ok
    assert elapsed < 10.0


def kicked_orbit(n, kick):
    psi = {0: np.array([0.1]), 1: np.array([0.25])}
    for v in range(1, n):
        nxt = 2.0 * psi[v][0] - psi[v - 1][0] - kick * np.sin(psi[v][0])
        psi[v + 1] = np.array([nxt])
    return psi


def test_criterion_10_nonlinear_variational_checks():
    t0 = time.perf_counter()
    kick = 0.8
    n = 30
    graph = ex.interval(n)
    sys_k = build_translation_invariant(graph, standard_map_density(kick),
                                        allow_ends=True)
    psi = kicked_orbit(n, kick)
    interior = list(range(1, n))

    # residual against a finite-difference action gradient off the orbit
    rng = np.random.default_rng(1010)
    cfg = {v: psi[v] + 0.1 * rng.standard_normal(1) for v in psi}
    worst_grad = 0.0
    for v in range(2, 9):
        def action_at(t, v=v):
            work = dict(cfg)
            work[v] = t
            return local_action(sys_k, work, around=[v])
        want = orc.central_gradient(action_at, cfg[v])
        got = el_residual(sys_k, cfg, v)
        rel = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
        worst_grad = max(worst_grad, rel)

    # linearization against differenced residuals on the orbit
    lin = linearize(sys_k, psi, at=interior)
    op = lin.operator
    cx = op.complex
    worst_hess = 0.0
    h = 1e-6
    for u in range(3, 9):
        for w in (u - 1, u, u + 1):
            up, dn = dict(psi), dict(psi)
            up[w] = psi[w] + h
            dn[w] = psi[w] - h
            fd = (el_residual(sys_k, up, u) - el_residual(sys_k, dn, u)) / (2 * h)
            block = op.blocks[(cx.vertex_sid(u), cx.vertex_sid(w))]
            worst_hess = max(worst_hess, float(np.max(np.abs(block[0, 0] - fd))))

    # chain constancy, exactly solvable quadratic case
    sys_q = build_translation_invariant(ex.interval(n), quadratic_pair_density(),
                                        allow_ends=True)
    gq = sys_q.graph
    flat = {v: np.array([0.3 + 0.2 * v]) for v in range(n + 1)}
    d1 = {v: np.array([1.0]) for v in range(n + 1)}
    d2 = {v: np.array([float(v)]) for v in range(n + 1)}
    w_q = variational_swronskian(sys_q, flat, d1, d2, at=interior)
    coeffs_q = [w_q.chain.coeffs[gq.edge_sid(v, v + 1)]
                for v in range(2, n - 2)]
    spread_q = max(abs(c - coeffs_q[0]) for c in coeffs_q)

    # chain constancy along the kicked orbit
    gk = sys_k.graph
    g1 = {0: np.array([1.0]), 1: np.array([0.0])}
    g2 = {0: np.array([0.0]), 1: np.array([1.0])}
    for d in (g1, g2):
        for v in range(1, n):
            c = 2.0 - kick * np.cos(psi[v][0])
            d[v + 1] = c * d[v] - d[v - 1]
    w_k = variational_swronskian(sys_k, psi, g1, g2, at=interior)
    coeffs_k = [w_k.chain.coeffs[gk.edge_sid(v, v + 1)]
                for v in range(2, n - 2)]
    spread_k = max(abs(c - coeffs_k[0]) for c in coeffs_k)

    elapsed = time.perf_counter() - t0
    ok = (worst_grad <= 1e-5 and worst_hess <= 1e-5 and spread_q <= 1e-8
          and spread_k <= 1e-6 and elapsed < 20.0)
    report(10, ok, f"grad {worst_grad:.2e}, hessian {worst_hess:.2e}, "
                   f"spread quad {spread_q:.2e} / map {spread_k:.2e}, "
                   f"{elapsed:.1f}s")
    assert worst_grad <= 1e-5
    assert worst_hess <= 1e-5
    assert spread_q <= 1e-8
    assert spread_k <= 1e-6
    assert elapsed < 20.0
