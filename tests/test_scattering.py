import numpy as np
import pytest

import oracles as orc
from swron import (
    transfer_map,
    DomainError,
    Tail,
    TailedGraph,
    asymptotic_subspace,
    band_scan,
    classify_monodromy,
    find_critical_points,
    regular_discrete_spectrum,
    scattering_matrix,
    swronskian_form,
    tail_modes,
    tailed_graph_from_json,
    tailed_graph_to_json,
    wave_basis,
)
from swron import examples as ex


def test_classify_free_line():
    op = ex.free_line_operator(1)
    inside = classify_monodromy(transfer_map(op, 0.5, 0))
    assert inside.counts() == (1, 0, 0)
    assert inside.identity_holds
    outside = classify_monodromy(transfer_map(op, 2.5, 0))
    assert outside.counts() == (0, 0, 1)
    assert outside.identity_holds


def test_classification_identity_random_ops():
    rng = np.random.default_rng(1)
    for _ in range(6):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 3))
        op = ex.random_line_operator(rng, k, l)
        for lam in rng.uniform(-4, 4, size=6):
            clf = classify_monodromy(transfer_map(op, float(lam), 0))
            if clf.critical:
                continue
            s, p, q = clf.counts()
            assert 2 * s + 4 * p + 2 * q == 2 * k * l
            assert clf.identity_holds


def test_free_line_critical_points():
    pts = find_critical_points(ex.free_line_operator(1), -3, 3, 121)
    lams = sorted(p.lam for p in pts)
    assert len(lams) == 2
    assert abs(lams[0] + 2.0) <= 1e-8
    assert abs(lams[1] - 2.0) <= 1e-8


def test_tail_mode_normalization():
    lam = 0.6
    theta = np.arccos(lam / 2)
    op = ex.free_line_operator(1)
    clf, modes = tail_modes(op, lam, origin=1)
    out = [m for m in modes if m.kind == "out"][0]
    inc = [m for m in modes if m.kind == "in"][0]
    for n in (0, 3, 7):
        want = np.exp(1j * theta * (n + 1)) / np.sqrt(2 * np.sin(theta))
        assert abs(out.value(n)[0] - want) <= 1e-12
        assert abs(inc.value(n)[0] - np.conj(want)) <= 1e-12
    # bilinear pair form of (in, out) window coordinates is exactly i
    sw = swronskian_form(op, 0).matrix
    xo = out.values(0, 1).T.reshape(-1)
    xi = inc.values(0, 1).T.reshape(-1)
    assert abs(xi @ sw @ xo - 1j) <= 1e-12


def test_wave_basis_rejects_degenerate_points():
    op = ex.free_line_operator(1)
    with pytest.raises(DomainError):
        wave_basis(op, 2.0)
    with pytest.raises(DomainError):
        wave_basis(op, 3.0)


def test_tailed_graph_validation():
    with pytest.raises(DomainError):
        TailedGraph({0: 1}, {}, [Tail(ex.free_tail(), {(5, 0): [[1.0]]})])
    with pytest.raises(DomainError):
        TailedGraph({0: 2}, {}, [Tail(ex.free_tail(), {(0, 0): [[1.0]]})])
    with pytest.raises(DomainError):
        TailedGraph({0: 1}, {(0, 0): [[1.0, 2.0]]}, [])
    with pytest.raises(DomainError):
        TailedGraph(
            {},
            {},
            [Tail(ex.free_tail(), {}), Tail(ex.free_tail(), {})],
            cross_links=[((0, 0), (0, 0), [[1.0]])],
        )


def test_expected_dim_counts_tail_orders():
    graph = ex.star_tailed(4)
    assert graph.expected_dim() == 4
    assert ex.pure_line_graph().expected_dim() == 2


def test_asymptotic_subspace_dimensions():
    for graph, want in (
        (ex.pure_line_graph(), 2),
        (ex.star_tailed(3), 3),
        (ex.two_tail_ring_core(6), 2),
    ):
        for lam in (0.37, -1.1):
            sub = asymptotic_subspace(graph, lam)
            assert sub.dim == want == sub.expected_dim
            assert sub.lagrangian_residual <= 1e-10
    # out of band the dimension count still holds
    sub = asymptotic_subspace(ex.pure_line_graph(), -2.6)
    assert sub.dim == 2


def test_pure_line_scattering_is_a_swap():
    for lam in (-1.3, 0.2, 1.5):
        res = scattering_matrix(ex.pure_line_graph(), lam)
        assert not res.flags
        assert np.max(np.abs(res.s_matrix - np.array([[0, 1], [1, 0]]))) <= 1e-10
        assert res.unitarity_residual <= 1e-12
        assert res.symmetry_residual <= 1e-12


def test_well_scattering_matches_site_oracle():
    lam = 0.7
    res = scattering_matrix(ex.potential_line(1.0), lam)
    want = orc.site_basis_s_matrix(lam, 60, well=1.0)
    assert np.max(np.abs(res.s_matrix - want)) <= 1e-8
    assert res.unitarity_residual <= 1e-10
    assert res.symmetry_residual <= 1e-10


def test_scattering_flags_critical_and_closed_points():
    res = scattering_matrix(ex.pure_line_graph(), 2.0)
    assert "critical" in res.flags
    assert res.s_matrix is None
    res = scattering_matrix(ex.pure_line_graph(), 2.7)
    assert "no-channels" in res.flags
    assert res.s_matrix is None


def test_well_bound_state_against_dense_oracle():
    states = regular_discrete_spectrum(ex.potential_line(1.0), -3.2, -2.05, 61)
    regular = [s for s in states if not s.singular]
    assert len(regular) == 1
    want = orc.well_bound_state(1.0, depth=120)
    assert abs(regular[0].lam - want) <= 1e-8
    assert not regular[0].uncertain


def test_free_line_spectrum_empty():
    assert regular_discrete_spectrum(ex.pure_line_graph(), -3.2, -2.05, 41) == []


def test_singular_core_state_detected():
    # a core vertex invisible to every tail keeps its eigenvalue
    graph = TailedGraph(
        {0: 1, 1: 1},
        {(1, 1): [[0.7]]},
        [Tail(ex.free_tail(), {(0, 0): [[1.0]]}, origin=1)],
    )
    states = regular_discrete_spectrum(graph, 0.5, 0.9, 41)
    singular = [s for s in states if s.singular]
    assert len(singular) == 1
    assert abs(singular[0].lam - 0.7) <= 1e-12


def test_band_scan_shape_and_intervals(tmp_path):
    scan = band_scan(ex.pure_line_graph(), -2.2, 2.2, 23)
    assert len(scan.rows) == 23
    insides = [r for r in scan.rows if abs(r.lam) < 1.9]
    assert all(r.counts[0] == (1, 0, 0) for r in insides)
    spans = scan.open_intervals()
    assert len(spans) == 1
    lo, hi = spans[0]
    assert lo <= -1.7 and hi >= 1.7
    p = tmp_path / "scan.csv"
    scan.to_csv(str(p))
    lines = p.read_text().strip().splitlines()
    assert len(lines) == 24
    head = lines[0].split(",")
    assert head[:6] == ["lambda", "s", "p", "q", "critical_flag", "singular_flag"]
    assert "S_re[0c0->1c0]" in head
    data = scan.to_json_dict()
    assert len(data["rows"]) == 23
    assert data["open_intervals"]


def test_tailed_graph_json_roundtrip():
    for graph in (
        ex.pure_line_graph(),
        ex.potential_line(0.8),
        ex.two_tail_ring_core(6),
    ):
        back = tailed_graph_from_json(tailed_graph_to_json(graph))
        assert back.n_tails == graph.n_tails
        assert back.expected_dim() == graph.expected_dim()
        assert back.core_dims == graph.core_dims
        assert np.array_equal(back.core_matrix(), graph.core_matrix())
        for t1, t2 in zip(back.tails, graph.tails):
            assert t1.origin == t2.origin
            assert set(t1.attach) == set(t2.attach)
        assert len(back.cross_links) == len(graph.cross_links)
        lam = 0.43
        a = scattering_matrix(graph, lam, depth=25)
        b = scattering_matrix(back, lam, depth=25)
        assert np.max(np.abs(a.s_matrix - b.s_matrix)) <= 1e-12


# -- the exact junction reduction against the truncated modal oracle -----------


def two_channel_graph(seed: int = 11) -> TailedGraph:
    """Hub of fiber dimension 2 with three random order-2, two-channel tails."""
    rng = np.random.default_rng(seed)
    tails = [
        Tail(ex.random_line_operator(rng, 2, 2), {(0, 0): rng.standard_normal((2, 2))})
        for _ in range(3)
    ]
    return TailedGraph({0: 2}, {(0, 0): np.diag(rng.standard_normal(2))}, tails)


def cross_linked_graph() -> TailedGraph:
    """An order-2 and an order-1 tail on one hub, with a cross link from
    site 1 of the first to site 0 of the second (junction rows 2 and 1)."""
    op2 = ex.random_line_operator(np.random.default_rng(2), 2, 1)
    return TailedGraph(
        {0: 1},
        {(0, 0): [[0.3]]},
        [
            Tail(op2, {(0, 0): [[1.0]]}, origin=1),
            Tail(ex.free_tail(), {(0, 0): [[1.0]]}, origin=1),
        ],
        cross_links=[((0, 1), (1, 0), [[0.5]])],
    )


def with_decay(graph: TailedGraph, tail: int, decay: list) -> TailedGraph:
    """Reload ``graph`` with a near-junction "decay" table on one tail."""
    data = tailed_graph_to_json(graph)
    data["tails"][tail]["decay"] = decay
    return tailed_graph_from_json(data)


ORACLE_GRAPHS = {
    "star4": ex.star_tailed(4),
    "ring6": ex.two_tail_ring_core(6),
    "well": ex.potential_line(1.0),
    "line": ex.pure_line_graph(),
    "two_channel": two_channel_graph(),
    "cross_link": cross_linked_graph(),
    "decay": with_decay(
        ex.potential_line(1.0),
        0,
        [{"site": 0, "blocks": {"0": [[0.4]], "1": [[0.9]]}},
         {"site": 1, "blocks": {"0": [[-0.3]]}}],
    ),
}


def out_channels(res) -> list:
    return [
        (j, m.mu, m.w)
        for j, mset in enumerate(res.subspace.modes)
        for m in mset
        if m.kind == "out"
    ]


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_junction_rows_match_truncated_oracle(name):
    graph = ORACLE_GRAPHS[name]
    for lam in (-1.3, 0.5, 1.7):
        res = scattering_matrix(graph, lam)
        assert res.s_matrix is not None, (lam, res.flags)
        assert res.subspace.depth == graph.default_depth()
        s, outs = orc.truncated_modal_s_matrix(graph, lam)
        want = orc.in_channel_gauge(s, outs, out_channels(res))
        assert np.max(np.abs(res.s_matrix - want)) <= 1e-10


def test_informative_rows_per_tail():
    graph = cross_linked_graph()
    assert graph.tail_rows() == [2, 1]
    assert graph.tail_rows(5) == [5, 5]
    assert graph.default_depth() == 2
    assert ex.star_tailed(4).default_depth() == 1
    assert two_channel_graph().default_depth() == 2


def test_explicit_depth_only_adds_rows():
    graph = ORACLE_GRAPHS["two_channel"]
    base = scattering_matrix(graph, 0.5)
    deep = scattering_matrix(graph, 0.5, depth=40)
    assert deep.subspace.depth == 40
    assert np.max(np.abs(base.s_matrix - deep.s_matrix)) <= 1e-10


def test_band_scan_bisects_each_tail_operator_once(monkeypatch):
    import swron.scattering as sc

    calls = []
    real = sc.find_critical_points

    def counting(op, *args, **kw):
        calls.append(op)
        return real(op, *args, **kw)

    monkeypatch.setattr(sc, "find_critical_points", counting)
    scan = band_scan(ex.star_tailed(5), -2.5, 2.5, 11)
    assert len(calls) == 1
    per_tail = find_critical_points(ex.free_tail(), -2.5, 2.5, 11)
    assert [cp.lam for cp in scan.criticals] == [cp.lam for cp in per_tail] * 5


# -- loader paths ---------------------------------------------------------------


def test_noop_decay_override_reproduces_s():
    graph = ex.potential_line(1.0)
    same = with_decay(graph, 1, [{"site": 0, "blocks": {"0": [[0.0]], "1": [[1.0]]}}])
    assert same.core_size == graph.core_size + 1
    for lam in (-1.3, 0.5, 1.7):
        a = scattering_matrix(graph, lam).s_matrix
        b = scattering_matrix(same, lam).s_matrix
        assert np.max(np.abs(a - b)) <= 1e-12


def test_well_override_equals_explicit_core():
    hub = ex.star_tailed(2)
    loaded = with_decay(hub, 0, [{"site": 0, "blocks": {"0": [[-1.0]]}}])
    explicit = TailedGraph(
        {0: 1, 1: 1},
        {(1, 1): [[-1.0]], (0, 1): [[1.0]]},
        [
            Tail(ex.free_tail(), {(1, 0): [[1.0]]}, origin=2),
            Tail(ex.free_tail(), {(0, 0): [[1.0]]}, origin=1),
        ],
    )
    assert loaded.core_dims == explicit.core_dims
    assert np.array_equal(loaded.core_matrix(), explicit.core_matrix())
    for t1, t2 in zip(loaded.tails, explicit.tails):
        assert t1.origin == t2.origin
        assert set(t1.attach) == set(t2.attach)
        assert all(np.array_equal(t1.attach[key], t2.attach[key]) for key in t1.attach)
    for lam in (-1.3, 0.5, 1.7):
        a = scattering_matrix(loaded, lam).s_matrix
        b = scattering_matrix(explicit, lam).s_matrix
        assert np.array_equal(a, b)


def test_cross_link_inside_absorbed_region_rejected():
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][0]["decay"] = [{"site": 1, "blocks": {"0": [[0.2]]}}]
    data["cross_links"] = [{"from": [0, 1], "to": [1, 0], "matrix": [[0.5]]}]
    with pytest.raises(DomainError):
        tailed_graph_from_json(data)
    data["cross_links"] = [{"from": [0, 2], "to": [1, 0], "matrix": [[0.5]]}]
    assert tailed_graph_from_json(data).cross_links[0][0] == (0, 0)


@pytest.mark.parametrize(
    "field, value", [("shift", 2), ("shift", 0), ("quotient", "orbits"), ("quotient", 3)]
)
def test_bad_covering_provenance_rejected(field, value):
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][1][field] = value
    with pytest.raises(DomainError):
        tailed_graph_from_json(data)


def test_covering_provenance_accepted():
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][0]["shift"] = 1
    data["tails"][0]["quotient"] = {"orbits": [0], "edges": [[0, 0, 1]]}
    data["tails"][1]["shift"] = None
    assert tailed_graph_from_json(data).n_tails == 2
