import json

import numpy as np
import pytest

import oracles as orc
from swron import (
    DiscreteOperator,
    DomainError,
    SimplicialComplex,
    elementary_swronskian,
    interior_vertices,
    quantum_current,
    swronskian,
    to_vertex_operator,
    verify_cycle,
)
from swron import examples as ex
from swron.cli import main
from swron.complex_core import save_complex
from swron.operators import operator_to_json
from swron.swronskian import _PairTable
from swron.verify import _KernelSplit, coupled_free_sites, kernel_solutions


def two_site_operator():
    cx = ex.interval(1)
    a, b = cx.vertex_sid(0), cx.vertex_sid(1)
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    return cx, a, b, DiscreteOperator(cx, 2, {(a, b): block, (b, a): block.T})


def test_pair_coefficient_convention_pinned():
    # c_ab = psi(a) . (B phi(b)) - phi(a) . (B psi(b)) on the oriented edge
    cx, a, b, op = two_site_operator()
    psi = {a: np.array([1.0, 0.0]), b: np.array([0.0, 2.0])}
    phi = {a: np.array([0.0, 1.0]), b: np.array([3.0, 0.0])}
    block = op.blocks[(a, b)]
    want = psi[a] @ (block @ phi[b]) - phi[a] @ (block @ psi[b])
    chain = elementary_swronskian(op, psi, phi, a, b)
    eid = cx.edge_sid(0, 1)
    assert chain.coeffs[eid] == want
    # [1,0].([3,9]) - [0,1].([4,8])
    assert want == -5.0


def test_elementary_diagonal_pair_vanishes():
    cx, a, b, op = two_site_operator()
    psi = {a: np.array([1.0, 2.0])}
    phi = {a: np.array([3.0, 4.0])}
    chain = elementary_swronskian(op, psi, phi, a, a)
    assert chain.max_abs() == 0.0


def test_swronskian_is_skew():
    rng = np.random.default_rng(7)
    cx = ex.circle(6)
    op = ex.adjacency_operator(cx, vec_dim=2)
    psi = {cx.vertex_sid(v): rng.standard_normal(2) for v in cx.vertex_labels}
    phi = {cx.vertex_sid(v): rng.standard_normal(2) for v in cx.vertex_labels}
    w1 = swronskian(op, 0.3, psi, phi)
    w2 = swronskian(op, 0.3, phi, psi)
    for eid, c in w1.chain.coeffs.items():
        assert w2.chain.coeffs.get(eid, 0.0) == -c


def test_non_vertex_operator_rejected():
    cx = ex.filled_triangle()
    hop = __import__("swron").build_hodge(cx).operator
    psi = {s.id: np.zeros(1) for s in cx.simplices}
    with pytest.raises(DomainError):
        swronskian(hop, 0.0, psi, psi)


def test_kernel_pair_chain_is_closed():
    rng = np.random.default_rng(11)
    cx = ex.random_complex(rng, 40)
    raw = ex.random_operator(rng, cx, vec_dim=2, max_steps=2)
    vop, sub, centers = to_vertex_operator(raw)
    domain = [sub.vertex_sid(v) for v in sub.vertex_labels]
    free = [sub.vertex_sid(centers[s.id]) for s in cx.simplices][-3:]
    lam = 0.37
    (psi, phi), imposed = kernel_solutions(vop, lam, free, rng, sids=domain)
    w = swronskian(vop, lam, psi, phi)
    rep = verify_cycle(w, interior=imposed)
    assert rep.passed
    assert rep.max_boundary_residual <= 1e-9 * max(rep.scale, 1e-300)
    assert set(rep.excluded_vertices) == set(domain) - set(imposed)


def test_verify_cycle_catches_broken_solutions():
    rng = np.random.default_rng(13)
    cx = ex.circle(8)
    op = ex.graph_laplacian(cx)
    domain = [cx.vertex_sid(v) for v in cx.vertex_labels]
    (psi, phi), imposed = kernel_solutions(op, 0.5, domain[-3:], rng, sids=domain)
    psi[domain[0]] = psi[domain[0]] + 0.5
    w = swronskian(op, 0.5, psi, phi)
    rep = verify_cycle(w, interior=imposed)
    assert not rep.passed


def test_support_truncation_excludes_fringe():
    cx = ex.interval(9)
    op = ex.adjacency_operator(cx)
    theta = 0.9
    psi = {
        cx.vertex_sid(j): np.array([np.sin(theta * (j + 1))]) for j in range(10)
    }
    phi = {
        cx.vertex_sid(j): np.array([np.cos(theta * (j + 1))]) for j in range(10)
    }
    support = [cx.vertex_sid(j) for j in range(2, 8)]
    w = swronskian(op, 2 * np.cos(theta), psi, phi, support=support)
    inner = interior_vertices(op, support)
    assert set(inner) == {cx.vertex_sid(j) for j in range(3, 7)}
    rep = verify_cycle(w)
    assert rep.passed
    assert set(rep.excluded_vertices) == {cx.vertex_sid(2), cx.vertex_sid(7)}


def test_quantum_current_plane_wave():
    n = 20
    cx = ex.interval(n)
    op = ex.adjacency_operator(cx)
    theta = 0.7
    wave = {
        cx.vertex_sid(j): np.array([np.exp(1j * theta * j)]) for j in range(n + 1)
    }
    cur = quantum_current(op, 2 * np.cos(theta), wave)
    vals = list(cur.chain.coeffs.values())
    target = -2j * np.sin(theta)
    assert max(abs(v - target) for v in vals) <= 1e-12


def test_quantum_current_rejects_complex_lambda():
    cx = ex.interval(3)
    op = ex.adjacency_operator(cx)
    wave = {cx.vertex_sid(j): np.array([1.0]) for j in range(4)}
    with pytest.raises(DomainError):
        quantum_current(op, 1.0 + 0.2j, wave)


def test_complex_blocks_need_opt_in():
    cx = ex.interval(2)
    a, b, c = (cx.vertex_sid(v) for v in range(3))
    blocks = {
        (a, b): [[1.0 + 1.0j]],
        (b, a): [[1.0 + 1.0j]],
        (b, c): [[1.0]],
        (c, b): [[1.0]],
    }
    op = DiscreteOperator(cx, 1, blocks)
    vals = {s: np.ones(1) for s in (a, b, c)}
    with pytest.raises(DomainError):
        swronskian(op, 0.0, vals, vals)
    swronskian(op, 0.0, vals, vals, require_real=False)


def random_vertex_operator(rng, vec_dim, max_simplices=24):
    cx = ex.random_complex(rng, max_simplices)
    raw = ex.random_operator(rng, cx, vec_dim=vec_dim, max_steps=int(rng.integers(1, 4)))
    vop, sub, centers = to_vertex_operator(raw)
    domain = [sub.vertex_sid(v) for v in sub.vertex_labels]
    order = [sub.vertex_sid(centers[s.id]) for s in cx.simplices]
    free = coupled_free_sites(vop, order, max(2, (2 + vec_dim - 1) // vec_dim + 1))
    return vop, domain, free


def assert_same_chain(chain, want):
    assert set(chain.coeffs) == set(want)
    scale = max((abs(c) for c in want.values()), default=0.0)
    for eid, c in want.items():
        assert abs(chain.coeffs[eid] - c) <= 1e-12 * scale


@pytest.mark.parametrize("seed", [31, 32, 33])
@pytest.mark.parametrize("vec_dim", [1, 2, 3])
def test_pair_chain_matches_oracle(seed, vec_dim):
    rng = np.random.default_rng(seed)
    vop, domain, _ = random_vertex_operator(rng, vec_dim)
    psi = {s: rng.standard_normal(vec_dim) for s in domain}
    phi = {s: rng.standard_normal(vec_dim) + 1j * rng.standard_normal(vec_dim)
           for s in domain}
    # every pair at this vertex has c_ab == 0 exactly
    zero = domain[int(rng.integers(len(domain)))]
    psi[zero] = phi[zero] = np.zeros(vec_dim)
    cut = {s for s in domain if rng.random() < 0.7}
    for support in (None, cut):
        w = swronskian(vop, 0.0, psi, phi, support=support)
        assert_same_chain(w.chain, orc.pair_chain(vop, psi, phi, support))
    # the elementary chains summed over the pairs give the same chain
    total = {}
    for a, b in vop.blocks:
        if a < b and a in cut and b in cut:
            for eid, c in elementary_swronskian(vop, psi, phi, a, b).coeffs.items():
                total[eid] = total.get(eid, 0) + c
    w = swronskian(vop, 0.0, psi, phi, support=cut)
    assert_same_chain(w.chain, total)


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_pair_table_paths_are_the_lex_least_paths(seed):
    # the table's steps, in pair order, are the oracle paths one pair after
    # another; on the 4-cycle opposite corners have two minimal paths
    rng = np.random.default_rng(seed)
    square = ex.circle(4)
    corners = [square.vertex_sid(v) for v in range(4)]
    ops = [DiscreteOperator(square, 1, {(a, b): [[1.0]] for a in corners for b in corners})]
    for order in (1, 2, 3):
        cx = ex.random_complex(rng, 30)
        ops.append(to_vertex_operator(ex.random_operator(rng, cx, max_steps=order))[0])
    lengths = set()
    for vop in ops:
        table, want = _PairTable(vop), []
        for p, row in enumerate(table.rows.tolist()):
            a, b = (vop.complex.simplex(int(s)).vertices[0] for s in (vop.target[row], vop.source[row]))
            path = orc.lex_least_path(vop.complex, a, b)
            want += [(eid, p, sign) for eid, sign in path]
            lengths.add(len(path))
        got = zip(table.edges[table.edge_pos].tolist(), table.pair.tolist(), table.sign.tolist())
        assert list(got) == want
    assert 1 in lengths and max(lengths) >= 3  # edge pairs and farther ones


@pytest.mark.parametrize("vec_dim", [1, 2, 3])
def test_real_values_give_the_chain_of_their_complex_copies(vec_dim):
    # real values take real products; the chain must not differ in one bit
    # from the same values read as complex with zero imaginary part
    rng = np.random.default_rng(40 + vec_dim)
    vop, domain, _ = random_vertex_operator(rng, vec_dim)
    psi = {s: rng.standard_normal(vec_dim) for s in domain}
    phi = {s: rng.standard_normal(vec_dim) for s in domain}
    psi[domain[0]] = phi[domain[0]] = np.zeros(vec_dim)  # its pairs have c_ab == 0
    cut = {s for s in domain if rng.random() < 0.7}

    def bits(w):
        coeffs = w.chain.coeffs
        assert all(type(c) is complex for c in coeffs.values())
        return list(coeffs), np.array(list(coeffs.values()), dtype=complex).view(np.uint64).tolist()

    psi_c, phi_c = ({s: v.astype(complex) for s, v in f.items()} for f in (psi, phi))
    for support in (None, cut):
        want = bits(swronskian(vop, 0.0, psi_c, phi_c, support=support))
        assert want[0]
        w = swronskian(vop, 0.0, psi, phi, support=support)
        assert_same_chain(w.chain, orc.pair_chain(vop, psi, phi, support))
        assert bits(w) == want
        assert bits(swronskian(vop, 0.0, psi, phi_c, support=support)) == want


def test_zero_pair_touches_no_edge():
    cx = ex.interval(3)
    op = ex.adjacency_operator(cx)
    v = [cx.vertex_sid(j) for j in range(4)]
    psi = {v[0]: [1.0], v[1]: [2.0], v[2]: [0.5], v[3]: [0.0]}
    phi = {v[0]: [3.0], v[1]: [-1.0], v[2]: [0.25], v[3]: [0.0]}
    w = swronskian(op, 0.0, psi, phi)
    assert set(w.chain.coeffs) == {cx.edge_sid(0, 1), cx.edge_sid(1, 2)}
    assert_same_chain(w.chain, orc.pair_chain(op, psi, phi))


def test_support_vertex_missing_from_a_function():
    cx = ex.circle(5)
    op = ex.graph_laplacian(cx)
    domain = [cx.vertex_sid(v) for v in cx.vertex_labels]
    psi = {s: np.ones(1) for s in domain}
    phi = {s: np.ones(1) for s in domain[:-1]}
    with pytest.raises(DomainError, match=f"phi undefined on simplex {domain[-1]}"):
        swronskian(op, 0.0, psi, phi, support=domain)
    with pytest.raises(DomainError, match=f"psi undefined on simplex {domain[-1]}"):
        swronskian(op, 0.0, phi, psi, support=domain)


def test_kernel_solutions_with_every_sid_free():
    rng = np.random.default_rng(3)
    cx = ex.circle(4)
    op = ex.graph_laplacian(cx)
    domain = [cx.vertex_sid(v) for v in cx.vertex_labels]
    (psi, phi), imposed = kernel_solutions(op, 0.5, domain, rng, sids=domain)
    assert imposed == []
    assert set(psi) == set(phi) == set(domain)
    assert verify_cycle(swronskian(op, 0.5, psi, phi), interior=imposed).passed


def closes(op, lam, sols, imposed):
    w = swronskian(op, lam, sols[0], sols[1], require_real=False)
    return verify_cycle(w, interior=imposed).passed


@pytest.mark.parametrize("seed", [41, 42, 43, 44])
def test_schur_and_svd_span_one_kernel(seed):
    rng = np.random.default_rng(seed)
    vop, domain, free = random_vertex_operator(rng, int(rng.integers(1, 4)), 30)
    split = _KernelSplit(vop, domain, set(free))
    for lam in rng.uniform(-3.0, 3.0, 4):
        schur, svd = split.schur(lam), split.svd(lam)
        assert schur.shape == svd.shape
        q = np.linalg.qr(schur)[0]
        assert np.max(np.abs(q @ q.T - svd @ svd.conj().T)) <= 1e-10
    # lambda exactly at an eigenvalue of A_II and complex lambda: SVD
    for lam in (float(split.evals[len(split.evals) // 2]), 0.4 + 0.3j):
        assert split.schur(lam) is None
        sols, imposed = kernel_solutions(vop, lam, free, rng, sids=domain)
        assert closes(vop, lam, sols, imposed)


def test_kernel_grows_at_an_eigenvalue_of_the_imposed_block():
    # the triangle 0-1-2 is all imposed, so at its eigenvalue 0 the
    # constant on it joins the two directions of the free sites 3 and 4
    rng = np.random.default_rng(5)
    cx = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    op = ex.graph_laplacian(cx)
    domain = [cx.vertex_sid(v) for v in cx.vertex_labels]
    free = [cx.vertex_sid(3), cx.vertex_sid(4)]
    split = _KernelSplit(op, domain, set(free))
    lam = float(split.evals[0])
    assert split.schur(lam) is None
    sols, imposed = kernel_solutions(op, lam, free, rng, count=3, sids=domain)
    assert closes(op, lam, sols, imposed)
    with pytest.raises(DomainError, match="only 3 kernel directions"):
        kernel_solutions(op, lam, free, rng, count=4, sids=domain)
    # away from it the Schur path gives the two free directions
    assert split.schur(0.5).shape[1] == 2


def test_complex_operator_solve_takes_the_svd_path(tmp_path):
    cx = ex.circle(6)
    hop = 1.0 + 0.5j
    blocks = {}
    for u in range(6):
        a, b = cx.vertex_sid(u), cx.vertex_sid((u + 1) % 6)
        blocks[(a, b)] = blocks[(b, a)] = [[hop]]
        blocks[(a, a)] = [[0.3j * u]]
    op = DiscreteOperator(cx, 1, blocks)
    assert _KernelSplit(op, [cx.vertex_sid(v) for v in range(6)], set()).q is None
    save_complex(cx, str(tmp_path / "cx.json"))
    (tmp_path / "op.json").write_text(json.dumps(operator_to_json(op)))
    out = tmp_path / "report.json"
    rc = main([
        "swronskian", "--complex-file", str(tmp_path / "cx.json"),
        "--operator-file", str(tmp_path / "op.json"), "--solve",
        "--lambda", "0.3", "--output", str(out),
    ])
    report = json.loads(out.read_text())
    assert rc == 0 and report["passed"] is True
    assert report["chain"]["edges"]


@pytest.mark.parametrize("which", ["psi", "phi"])
def test_value_of_wrong_length_names_its_simplex(which):
    cx = ex.circle(5)
    op = ex.adjacency_operator(cx, vec_dim=2)
    domain = [cx.vertex_sid(v) for v in cx.vertex_labels]
    good = {s: np.ones(2) for s in domain}
    bad = {s: np.ones(3) for s in domain}
    psi, phi = (bad, good) if which == "psi" else (good, bad)
    with pytest.raises(DomainError, match=f"{which} value at simplex {domain[0]} has 3 entries"):
        swronskian(op, 0.0, psi, phi)
    one_short = {**good, domain[2]: np.ones(1)}
    want = f"simplex {domain[2]} has 1 entries, operator expects vec_dim 2"
    with pytest.raises(DomainError, match=want):
        swronskian(op, 0.0, one_short, one_short)
