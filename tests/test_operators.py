import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
from swron import (
    DiscreteOperator,
    DomainError,
    LineOperator,
    SimplicialComplex,
    TailedGraph,
    build_hodge,
    build_translation_invariant,
    direct_image,
    factorize_triangle,
    harmonic_basis,
    linearize,
    operator_from_json,
    operator_to_json,
    standard_map_density,
    to_vertex_operator,
)
from swron import examples as ex
from swron.operators import cochain_from_vector


def random_setup(seed, vec_dim=2):
    rng = np.random.default_rng(seed)
    cx = ex.random_complex(rng, 40)
    op = ex.random_operator(rng, cx, vec_dim=vec_dim, max_steps=2)
    return rng, cx, op


def test_cochain_values_share_nothing_a_write_can_reach():
    vec = np.arange(12.0)
    values = cochain_from_vector(vec, [7, 2, 9, 4], 3)
    assert [v.tolist() for v in values.values()] == vec.reshape(4, 3).tolist()
    values[2][1] = -1.0
    assert vec.tolist() == np.arange(12.0).tolist()
    assert [values[s].tolist() for s in (7, 9, 4)] == [[0.0, 1.0, 2.0], [6.0, 7.0, 8.0], [9.0, 10.0, 11.0]]


def test_apply_matches_dense():
    rng, cx, op = random_setup(0)
    psi = orc.random_cochain(cx, op.vec_dim, rng)
    sids = [s.id for s in cx.simplices]
    dense, _ = op.dense(sids)
    vec = orc.cochain_as_vector(psi, sids, op.vec_dim)
    img_vec = orc.cochain_as_vector(op.apply(psi), sids, op.vec_dim)
    assert np.allclose(img_vec, dense @ vec, atol=1e-12)


def test_apply_at_subset():
    rng, cx, op = random_setup(1)
    psi = orc.random_cochain(cx, op.vec_dim, rng)
    some = [s.id for s in cx.simplices][:3]
    img = op.apply(psi, at=some)
    assert set(img) == set(some)
    full = op.apply(psi)
    for sid in some:
        assert np.allclose(img[sid], full[sid])


def test_symmetry_and_validate():
    _, _, op = random_setup(2)
    assert op.is_symmetric()
    assert op.validate().symmetric


def test_blocks_are_read_only_and_indexed_by_target():
    _, cx, op = random_setup(5)
    key = next(iter(op.blocks))
    with pytest.raises(ValueError):
        op.blocks[key][0, 0] = 1.0
    for s in cx.simplices:
        assert op.stencil(s.id) == sorted(b for (a, b) in op.blocks if a == s.id)


def test_asymmetry_detected():
    cx = ex.interval(1)
    a, b = cx.vertex_sid(0), cx.vertex_sid(1)
    op = DiscreteOperator(cx, 1, {(a, b): [[1.0]], (b, a): [[2.0]]})
    assert not op.is_symmetric()
    assert not op.validate().symmetric


def test_block_beyond_order_rejected():
    cx = ex.interval(3)
    v = [cx.vertex_sid(i) for i in range(4)]
    blocks = {(v[0], v[3]): [[1.0]], (v[3], v[0]): [[1.0]],
              (v[1], v[2]): [[1.0]], (v[2], v[1]): [[1.0]]}
    with pytest.raises(DomainError, match="exceed declared order 4") as err:
        DiscreteOperator(cx, 1, blocks, order=4)
    # the message names the offending blocks, and only those
    msg = str(err.value)
    assert str((v[0], v[3])) in msg and str((v[3], v[0])) in msg
    assert str((v[1], v[2])) not in msg


def test_vertex_hosting_matches_original():
    rng, cx, op = random_setup(3)
    vop, sub, centers = to_vertex_operator(op)
    assert vop.is_vertex_operator()
    psi = orc.random_cochain(cx, op.vec_dim, rng)
    direct = op.apply(psi)
    domain = [sub.vertex_sid(v) for v in sub.vertex_labels]
    hosted = vop.apply({sub.vertex_sid(centers[sid]): v for sid, v in psi.items()}, at=domain)
    back = {sid: hosted[sub.vertex_sid(c)] for sid, c in centers.items()}
    for sid in direct:
        assert np.allclose(back[sid], direct[sid], atol=1e-12)


def test_hodge_square_is_block_laplacian():
    cx = ex.wedge_two_circles()
    hodge = build_hodge(cx, vec_dim=2)
    by_degree = [
        s.id for k in range(cx.dim + 1) for s in cx.simplices_of_dim(k)
    ]
    dense, _ = hodge.operator.dense(by_degree)
    assert np.allclose(dense, dense.T)
    square = dense @ dense
    n = dense.shape[0]
    want = np.zeros((n, n))
    pos = 0
    for lap in hodge.laplacians:
        m = lap.shape[0]
        want[pos : pos + m, pos : pos + m] = lap
        pos += m
    assert pos == n
    assert np.allclose(square, want, atol=1e-12)


def test_graph_laplacian_psd():
    cx = ex.circle(6)
    lap = ex.graph_laplacian(cx)
    dense, _ = lap.dense([cx.vertex_sid(v) for v in cx.vertex_labels])
    vals = np.linalg.eigvalsh(dense)
    assert vals.min() > -1e-12


def test_harmonic_dims_match_rank_oracle():
    drawn = [ex.random_complex(np.random.default_rng(seed), 40) for seed in range(10)]
    for cx in [ex.interval(3), ex.circle(5), ex.sphere_complex(), *drawn]:
        for vec_dim in (1, 2):
            dims = [b.shape[1] for b in harmonic_basis(cx, vec_dim)]
            assert dims == [vec_dim * b for b in orc.betti_via_ranks(cx)]


def test_harmonic_vectors_annihilated():
    cx = ex.torus_complex()
    hodge = build_hodge(cx)
    bases = harmonic_basis(cx)
    for k, basis in enumerate(bases):
        for col in basis.T:
            lap = hodge.laplacians[k]
            assert np.max(np.abs(lap @ col)) <= 1e-10


def test_triangle_factorization_is_q_q_transpose_plus_v():
    cx, black = ex.triangle_patch(2)
    coeff = {}
    for t in black:
        for p in cx.simplex(t).vertices:
            coeff[(p, t)] = 1.0 + 0.1 * p
    pot = {v: 0.3 for v in cx.vertex_labels}
    fac = factorize_triangle(cx, black, coeff, pot)
    assert fac.operator.is_symmetric()
    sids = [s.id for s in cx.simplices]
    q, idx = fac.q_op.dense(sids)
    dense, _ = fac.operator.dense(sids)
    want = q @ q.T
    for v in cx.vertex_labels:
        pos = idx[cx.vertex_sid(v)]
        want[pos, pos] += 0.3
    assert np.allclose(dense, want, atol=1e-12)


def test_triangle_factorization_rejects_bad_coloring():
    cx, black = ex.triangle_patch(2)
    both = [s.id for s in cx.simplices_of_dim(2)]
    coeff = {(p, t): 1.0 for t in both for p in cx.simplex(t).vertices}
    with pytest.raises(DomainError):
        factorize_triangle(cx, both, coeff)


def test_operator_json_roundtrip(tmp_path):
    rng, cx, op = random_setup(4)
    data = operator_to_json(op)
    back = operator_from_json(cx, data)
    assert back.vec_dim == op.vec_dim
    assert set(back.blocks) == set(op.blocks)
    for key, b in op.blocks.items():
        assert np.array_equal(back.blocks[key], b)


def test_operator_json_asymmetry_hook():
    cx = ex.interval(1)
    a, b = cx.vertex_sid(0), cx.vertex_sid(1)
    op = DiscreteOperator(cx, 1, {(a, b): [[1.0]], (b, a): [[1.0]]})
    data = operator_to_json(op)
    data["blocks"][0]["matrix"] = [[2.0]]
    with pytest.raises(DomainError):
        operator_from_json(cx, data)
    fixed = operator_from_json(cx, data, on_asymmetry="symmetrize")
    assert fixed.is_symmetric()
    assert fixed.blocks[(a, b)][0, 0] == 1.5
    # an infinite gap is never averaged away
    data["blocks"][0]["matrix"] = [[float("inf")]]
    with pytest.raises(DomainError, match="break symmetry by inf"):
        operator_from_json(cx, data, on_asymmetry="symmetrize")


def two_vertex_json(order, cross=True):
    cx = ex.interval(1)
    a, b = cx.vertex_sid(0), cx.vertex_sid(1)
    blocks = [{"from": a, "to": a, "matrix": [[1.0]]}]
    if cross:
        blocks += [{"from": a, "to": b, "matrix": [[1.0]]},
                   {"from": b, "to": a, "matrix": [[1.0]]}]
    data = {"vec_dim": 1, "blocks": blocks}
    if order is not None:
        data["order"] = order
    return cx, data


def test_operator_json_declared_order_is_honoured():
    cx, data = two_vertex_json(0)
    with pytest.raises(DomainError, match="exceed declared order 0"):
        operator_from_json(cx, data)
    cx, data = two_vertex_json(0, cross=False)
    assert operator_from_json(cx, data).order == 0
    cx, data = two_vertex_json(3)
    assert operator_from_json(cx, data).order == 3
    cx, data = two_vertex_json(None)
    assert operator_from_json(cx, data).order == 2


def test_negative_declared_order_rejected():
    cx, data = two_vertex_json(-1)
    with pytest.raises(DomainError, match="declared order -1 is negative"):
        operator_from_json(cx, data)
    with pytest.raises(DomainError, match="negative"):
        DiscreteOperator(cx, 1, {(0, 0): [[1.0]]}, order=-2)


# -- order and homogeneity from one search per block row ------------------------


def oracle_operators():
    """random_operator and to_vertex_operator outputs on seeded random
    complexes (<= 30 simplices), with their incidence step oracles."""
    out = []
    for seed in range(6):
        rng = np.random.default_rng(60 + seed)
        cx = ex.random_complex(rng, 30)
        op = ex.random_operator(rng, cx, max_steps=1 + seed % 3,
                                density=0.3 + 0.1 * seed)
        vop, sub, _ = to_vertex_operator(op)
        out += [(op, orc.incidence_steps(cx)), (vop, orc.incidence_steps(sub))]
    return out


def test_order_and_homogeneity_match_distance_oracle():
    for op, steps in oracle_operators():
        off = {int(steps[a, b]) for a, b in op.blocks if a != b}
        report = op.validate()
        assert report.order == max(off, default=0)
        assert report.homogeneous == (len(off) == 1)
        if op.is_vertex_operator():
            assert op.order >= report.order
        else:
            assert op.order == report.order


def test_cross_component_block_rejected_with_and_without_order():
    cx = SimplicialComplex([(0, 1), (2, 3)])
    a, c = cx.vertex_sid(0), cx.vertex_sid(2)
    blocks = {(a, c): [[1.0]], (c, a): [[1.0]]}
    for order in (None, 5):
        with pytest.raises(DomainError, match="joins different components"):
            DiscreteOperator(cx, 1, blocks, order=order)


def test_construction_searches_once_per_row_and_validate_never(monkeypatch):
    # rows between two vertices search the 1-skeleton from the row's vertex label
    searched = []
    search, skeleton_search = SimplicialComplex._search, SimplicialComplex._skeleton_search

    def spy(self, sid, *args, **kw):
        searched.append(sid)
        return search(self, sid, *args, **kw)

    def skeleton_spy(self, label, *args, **kw):
        searched.append(self.vertex_sid(label))
        return skeleton_search(self, label, *args, **kw)

    monkeypatch.setattr(SimplicialComplex, "_search", spy)
    monkeypatch.setattr(SimplicialComplex, "_skeleton_search", skeleton_spy)
    for op, _ in oracle_operators():
        searched.clear()
        rebuilt = DiscreteOperator(op.complex, op.vec_dim, op.blocks)
        rows = {a for a, _ in op.blocks}
        assert len(searched) == len(set(searched)) and set(searched) <= rows
        searched.clear()
        rebuilt.validate()
        op.validate()
        assert searched == []
    cx = ex.interval(4)
    v = [cx.vertex_sid(i) for i in range(5)]
    searched.clear()
    with pytest.raises(DomainError, match="exceed declared order"):
        DiscreteOperator(cx, 1, {(v[0], v[4]): [[1.0]], (v[4], v[0]): [[1.0]]},
                         order=2)
    assert sorted(searched) == sorted([v[0], v[4]])


def test_every_block_pair_reads_the_oracle_order():
    for seed in range(3):
        tops = [s.vertices for s in ex.random_complex(np.random.default_rng(70 + seed), 30).simplices]
        cx = SimplicialComplex(tops + [(90, 91), (91, 92)])  # and a second component
        steps = orc.incidence_steps(cx)
        # the subdivision's vertex rows read the 1-skeleton search, not the incidence one
        _, sub, centers = to_vertex_operator(DiscreteOperator(cx, 1, {}))
        sub_steps = orc.incidence_steps(sub)
        for a in range(len(cx)):
            for b in range(a + 1, len(cx)):
                blocks = {(a, b): [[1.0]], (b, a): [[1.0]]}
                ca, cb = (sub.vertex_sid(centers[s]) for s in (a, b))
                if np.isfinite(steps[a, b]):
                    op = DiscreteOperator(cx, 1, blocks)
                    assert op.validate().order == steps[a, b]
                    vop = to_vertex_operator(op)[0]
                    assert vop.validate().order == sub_steps[ca, cb] == 2 * steps[a, b]
                else:
                    for domain, pair in ((cx, blocks), (sub, {(ca, cb): [[1.0]], (cb, ca): [[1.0]]})):
                        with pytest.raises(DomainError, match="joins different components"):
                            DiscreteOperator(domain, 1, pair)


def test_order_and_errors_for_near_and_far_sources():
    cx = SimplicialComplex([(0, 1, 2), (2, 3), (3, 4), (5, 6)])
    steps = orc.incidence_steps(cx)
    a, v = cx.vertex_sid(0), cx.vertex_sid
    sources = [cx.id_of((0, 1)), cx.id_of((0, 1, 2)), v(1), cx.id_of((1, 2)), v(3), v(4)]
    assert [int(steps[a, b]) for b in sources] == [1, 1, 2, 2, 4, 6]
    for b in sources:
        blocks = {(a, a): [[2.0]], (a, b): [[1.0]], (b, a): [[1.0]]}
        k = int(steps[a, b])
        report = DiscreteOperator(cx, 1, blocks).validate()
        assert (report.order, report.homogeneous) == (k, True)
        assert DiscreteOperator(cx, 1, blocks, order=k).order == k
        with pytest.raises(DomainError, match=re.escape(
                f"blocks {[(a, b), (b, a)]} exceed declared order {k - 1}")):
            DiscreteOperator(cx, 1, blocks, order=k - 1)
    near, far = sources[0], sources[-1]
    mixed = {(a, near): [[1.0]], (near, a): [[1.0]], (a, far): [[1.0]], (far, a): [[1.0]]}
    report = DiscreteOperator(cx, 1, mixed).validate()
    assert (report.order, report.homogeneous) == (6, False)
    apart = {(a, near): [[1.0]], (near, a): [[1.0]], (a, v(5)): [[1.0]], (v(5), a): [[1.0]]}
    for order in (None, 1, 5):
        with pytest.raises(DomainError, match=re.escape(f"block ({a}, {v(5)}) joins different")):
            DiscreteOperator(cx, 1, apart, order=order)


# -- symmetry closure of block tables ---------------------------------------------

ASYM = np.array([[1.0, 2.0], [3.0, 4.0]])


def line_shift_table(table):
    op = LineOperator(1, 2, shift_blocks=table)
    return lambda s: op.block(0, s)


def line_site_table(table):
    sites = {}
    for (n, s), m in table.items():
        sites.setdefault(n, {})[s] = m
    op = LineOperator(1, 2, site_blocks=sites)
    return lambda ns: op.block(*ns)


def cover_table(table):
    line, _ = direct_image(ex.cover_z(), table, 2)
    return lambda abw: line.block(0, abw[2])


def tailed_core_table(table):
    graph = TailedGraph({0: 2, 1: 2}, table, [])
    return lambda uv: graph.core_blocks[uv]


# entry point -> (build, a key, its transpose partner, a self-partnered key)
CLOSURE_ENTRY_POINTS = {
    "line_shift": (line_shift_table, 1, -1, 0),
    "line_site": (line_site_table, (0, 1), (1, -1), (2, 0)),
    "cover": (cover_table, (0, 0, 1), (0, 0, -1), (0, 0, 0)),
    "tailed_core": (tailed_core_table, (0, 1), (1, 0), (1, 1)),
}


@pytest.mark.parametrize("entry", sorted(CLOSURE_ENTRY_POINTS))
def test_block_table_symmetry_closure(entry):
    build, key, partner, own = CLOSURE_ENTRY_POINTS[entry]
    lookup = build({key: ASYM})
    assert np.array_equal(lookup(key), ASYM)
    assert np.array_equal(lookup(partner), ASYM.T)
    with pytest.raises(DomainError):
        build({key: ASYM, partner: ASYM})
    with pytest.raises(DomainError):
        build({own: ASYM})


# -- the block stack against dict-loop oracles --------------------------------------


def kicked_operator(n=20, kick=0.8):
    """linearize output on a standard-map orbit of an n-edge path."""
    sys = build_translation_invariant(ex.interval(n), standard_map_density(kick),
                                      allow_ends=True)
    psi = {0: np.array([0.1]), 1: np.array([0.25])}
    for v in range(1, n):
        psi[v + 1] = np.array([2 * psi[v][0] - psi[v - 1][0] - kick * np.sin(psi[v][0])])
    return linearize(sys, psi, at=list(range(1, n))).operator


def one_ulp_operator():
    """A pair of blocks one ulp off each other's transpose."""
    cx = ex.interval(2)
    a, b, c = (cx.vertex_sid(v) for v in range(3))
    off = ASYM.T.copy()
    off[0, 1] = np.nextafter(off[0, 1], np.inf)
    return DiscreteOperator(cx, 2, {(a, b): ASYM, (b, a): off, (c, c): np.eye(2)})


def mixed_operator():
    """A real symmetric pair next to one complex diagonal block."""
    cx = ex.interval(2)
    a, b = cx.vertex_sid(0), cx.vertex_sid(1)
    return DiscreteOperator(cx, 2, {(a, b): ASYM, (b, a): ASYM.T,
                                    (a, a): np.diag([1j, 2.0])})


ACTION_CASES = {
    **{f"oracle{i}": lambda i=i: oracle_operators()[i][0] for i in range(12)},
    **{f"random{seed}": lambda seed=seed: random_setup(seed)[2] for seed in range(6)},
    "linearize": kicked_operator,
    "one_ulp": one_ulp_operator,
    "mixed": mixed_operator,
}


@pytest.mark.parametrize("name", sorted(ACTION_CASES))
def test_block_stack_matches_dict_loop_oracles(name):
    op = ACTION_CASES[name]()
    rng = np.random.default_rng(len(name))
    sids = [s.id for s in op.complex.simplices]
    psi = orc.random_cochain(op.complex, op.vec_dim, rng, complex_valued=True)
    some = sids[::3][::-1]
    for at in (None, some):
        got, want = op.apply(psi, at=at), orc.block_apply(op, psi, at=at)
        assert list(got) == list(want)
        assert max(np.abs(got[s] - want[s]).max() for s in want) <= 1e-12
    row = len(op.stack) // 2
    gone = set(op.source[row::3].tolist())
    partial = {sid: v for sid, v in psi.items() if sid not in gone}
    for at in (None, [int(op.target[row])] + some):
        with pytest.raises(DomainError) as got:
            op.apply(partial, at=at)
        with pytest.raises(DomainError) as want:
            orc.block_apply(op, partial, at=at)
        assert str(got.value) == str(want.value)
    dense, _ = op.dense(some)
    assert np.array_equal(dense, orc.block_dense(op, some))
    assert np.array_equal(op.dense()[0], orc.block_dense(op, sids))
    assert (op.is_real(), op.is_symmetric(), op.is_vertex_operator()) == orc.block_flags(op)
    for block in op.blocks.values():
        assert np.shares_memory(block, op.stack) and not block.flags.writeable
    with pytest.raises(ValueError):
        op.stack[0, 0, 0] = 1.0


def test_one_ulp_asymmetry_and_mixed_dtype_flags():
    assert not one_ulp_operator().is_symmetric()
    op = mixed_operator()
    assert op.is_symmetric() and not op.is_real() and op.stack.dtype == complex
    a, b = op.complex.vertex_sid(0), op.complex.vertex_sid(1)
    # the real blocks of a complex stack still serialize as plain lists
    assert operator_to_json(op) == {"order": 2, "vec_dim": 2, "blocks": [
        {"from": a, "to": a, "matrix": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
        {"from": b, "to": a, "matrix": ASYM.tolist()},
        {"from": a, "to": b, "matrix": ASYM.T.tolist()},
    ]}


# -- per-layer tracing --------------------------------------------------------------


def test_traced_entry_points_are_plain_functions():
    # bench/tracer.py times a layer by rebinding the listed attribute; a
    # property or cached attribute in its place would escape the timing
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, modname, attr_path in tracer.ENTRY_POINTS:
        owner = importlib.import_module(modname)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is not None and hasattr(owner, attr):
            value = inspect.getattr_static(owner, attr)
            assert inspect.isfunction(value), (modname, attr_path)
