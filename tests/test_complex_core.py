import numpy as np
import pytest

import oracles as orc
from swron import (
    Chain1,
    DomainError,
    SimplicialComplex,
    barycentric_subdivision,
    canonical_path,
    complex_from_json,
    complex_to_json,
    load_complex,
    save_complex,
)
from swron import examples as ex


def test_closure_and_f_vector():
    cx = ex.filled_triangle()
    assert cx.f_vector() == (3, 3, 1)
    assert cx.euler_characteristic() == 1
    assert cx.has_simplex((0, 1))
    assert cx.has_simplex((2,))


def test_ids_roundtrip():
    cx = ex.circle(4)
    for s in cx.simplices:
        assert cx.id_of(s.vertices) == s.id
    for v in cx.vertex_labels:
        assert cx.simplex(cx.vertex_sid(v)).vertices == (v,)
    eid = cx.edge_sid(0, 1)
    assert set(cx.simplex(eid).vertices) == {0, 1}


def test_bad_simplices_rejected():
    with pytest.raises(DomainError):
        SimplicialComplex([(-1, 0)])
    with pytest.raises(DomainError):
        SimplicialComplex([(0, 0)])
    cx = ex.interval(2)
    with pytest.raises(DomainError):
        cx.id_of((0, 2))


def test_boundary_of_boundary_vanishes():
    for cx in (ex.sphere_complex(), ex.torus_complex(), ex.filled_triangle()):
        for k in range(2, cx.dim + 1):
            prod = cx.boundary_matrix(k - 1) @ cx.boundary_matrix(k)
            assert not np.any(prod)


def test_distance_metric_axioms():
    rng = np.random.default_rng(3)
    cx = ex.random_complex(rng, 40)
    sids = [s.id for s in cx.simplices]
    pick = rng.choice(sids, size=min(8, len(sids)), replace=False)
    for a in pick:
        assert cx.distance(a, a) == 0
        for b in pick:
            dab = cx.distance(a, b)
            assert dab == cx.distance(b, a)
            for c in pick[:4]:
                assert dab <= cx.distance(a, c) + cx.distance(c, b)


def test_girth():
    assert ex.circle(5).girth() == 5
    assert ex.interval(4).girth() == float("inf")


def test_canonical_path_endpoints_and_determinism():
    cx = ex.circle(6)
    path = canonical_path(cx, 0, 2)
    chain = Chain1(cx)
    for eid, sign in path.steps:
        chain.add(eid, sign)
    bd = {v: c for v, c in chain.boundary().items() if c != 0}
    assert bd == {2: 1, 0: -1}
    assert len(path) == cx.distance(cx.vertex_sid(0), cx.vertex_sid(2))
    again = canonical_path(cx, 0, 2)
    assert again.steps == path.steps


def test_canonical_path_lex_least_tie_break():
    # opposite vertices of a 4-cycle: two minimal paths, the one through
    # the smaller edge ids wins
    cx = ex.circle(4)
    path = canonical_path(cx, 0, 2)
    eids = [eid for eid, _ in path.steps]
    other = canonical_path(cx, 2, 0)
    assert len(path) == len(other) == 2
    assert eids == sorted(eids)
    assert eids[0] == min(cx.edge_sids)


def test_path_reversed_flips_signs():
    cx = ex.interval(5)
    p = canonical_path(cx, 1, 4)
    r = p.reversed()
    assert [(e, -s) for e, s in p.steps][::-1] == r.steps


def test_subdivision_doubles_distance():
    cx = ex.filled_triangle()
    sub, centers = barycentric_subdivision(cx)
    assert len(sub.vertex_labels) == len(cx)
    for a in cx.simplices:
        for b in cx.simplices:
            da = cx.distance(a.id, b.id)
            dv = sub.distance(
                sub.vertex_sid(centers[a.id]), sub.vertex_sid(centers[b.id])
            )
            assert dv == 2 * da


def test_complex_json_roundtrip(tmp_path):
    cx = ex.wedge_two_circles(3, 4)
    p = tmp_path / "cx.json"
    save_complex(cx, str(p))
    back = load_complex(str(p))
    assert back.f_vector() == cx.f_vector()
    assert set(s.vertices for s in back.simplices) == set(
        s.vertices for s in cx.simplices
    )
    with pytest.raises(DomainError):
        complex_from_json({"wrong": []})


def test_complex_json_rejects_a_tails_key():
    # periodic tails live in tailed-graph files; an old complex file that
    # carries them is refused by name rather than loaded without them
    data = complex_to_json(ex.interval(1))
    assert "tails" not in data
    data["tails"] = [{"orbits": 1, "edges": [[0, 0, 1]], "attach": [[1, 0]]}]
    with pytest.raises(DomainError, match="'tails'"):
        complex_from_json(data)


def oracle_complexes():
    """Seeded random complexes (<= 30 simplices), their barycentric
    subdivisions, and one complex with two components."""
    out = [SimplicialComplex([(0, 1, 2), (3, 4)])]
    for seed in range(6):
        cx = ex.random_complex(np.random.default_rng(40 + seed), 30)
        out += [cx, barycentric_subdivision(cx)[0]]
    return out


def test_distance_and_balls_match_floyd_warshall_oracle():
    for cx in oracle_complexes():
        steps = orc.incidence_steps(cx)
        n = len(cx)
        got = np.array([[cx.distance(a, b) for b in range(n)] for a in range(n)])
        assert np.array_equal(got, steps / 2)
        for a in range(n):
            for m in (0, 1, 2, 3):
                want = {b: int(steps[a, b]) for b in range(n) if steps[a, b] <= m}
                assert cx.steps_within(a, m) == want


def test_canonical_path_matches_lex_least_oracle():
    cases = []
    for cx in oracle_complexes():
        labels = cx.vertex_labels
        cases += [(cx, a, b) for a in labels for b in labels]
    cases += [(ex.circle(4), a, b) for a in range(4) for b in range(4)]
    line = ex.interval(200)
    cases += [(line, a, b) for a, b in [(0, 1), (1, 0), (100, 101), (101, 100),
                                        (100, 103), (103, 100), (199, 200)]]
    for cx, a, b in cases:
        want = orc.lex_least_path(cx, a, b)
        if want is None:
            with pytest.raises(DomainError, match="different components"):
                canonical_path(cx, a, b)
        else:
            assert canonical_path(cx, a, b).steps == want
