import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
from swron import (
    DECAY,
    GROW,
    IN,
    OUT,
    transfer_map,
    DomainError,
    LineOperator,
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
)
from swron import examples as ex
from swron.scattering import _s_matrices, load_tailed_graph
from swron.line_lattice import line_operator_from_json, line_operator_to_json


def site_values(table, n: int) -> np.ndarray:
    """(modes, l) values at site n of a ModeTable's modes: w mu^(n - anchor)."""
    return table.w * (table.mu ** (n - table.anchor))[:, None]


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
    out, inc = (np.flatnonzero(modes.kind == kind)[0] for kind in (OUT, IN))
    for n in (0, 3, 7):
        want = np.exp(1j * theta * (n + 1)) / np.sqrt(2 * np.sin(theta))
        assert abs(site_values(modes, n)[out, 0] - want) <= 1e-12
        assert abs(site_values(modes, n)[inc, 0] - np.conj(want)) <= 1e-12
    # bilinear pair form of (in, out) window coordinates is exactly i
    sw = swronskian_form(op, 0).matrix
    x = np.concatenate([site_values(modes, n) for n in (0, 1)], axis=1)
    assert abs(x[inc] @ sw @ x[out] - 1j) <= 1e-12


def test_channel_modes_carry_unit_current():
    # the table's pair-form normalization against the oracle's group velocity
    channels = set()
    for k, l, lam, origin in np.ndindex(3, 3, 3, 2):
        op = ex.random_line_operator(np.random.default_rng(10 * k + l + 11), k + 1, l + 1)
        clf, modes = tail_modes(op, (-1.7, 0.3, 2.9)[lam], origin=3 * origin)
        # off criticality the grow and in modes number kl: the square grow/in system of S
        assert clf.critical or (modes.kind <= IN).sum() == (k + 1) * (l + 1)
        for i in np.flatnonzero(modes.kind == OUT):
            assert abs(orc.bloch_current(op, modes.mu[i], modes.w[i]) - 1.0) <= 1e-10
            # its incoming mate follows it, the exact conjugate
            assert modes.kind[i + 1] == IN
            assert modes.mu[i + 1] == np.conj(modes.mu[i]) and np.array_equal(modes.w[i + 1], modes.w[i].conj())
            channels.add((k + 1, l + 1))
    assert len(channels) >= 6, channels


def test_a_row_without_a_square_grow_in_system_has_no_s():
    # two kernels of dimension 2: the first has one grow and one in mode, the
    # second only one in mode, so its M would mix in an out mode
    rng = np.random.default_rng(5)
    coef, window = rng.standard_normal((2, 4, 2)), rng.standard_normal((2, 4, 4))
    kinds = np.array([[GROW, IN, OUT, DECAY], [OUT, IN, OUT, DECAY]], dtype=np.int8)
    first, second = _s_matrices(coef, window, kinds, [1, 2], np.eye(4))
    assert first is not None and first[0].shape == (1, 1) and second is None


@pytest.mark.parametrize("k, l", [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)])
def test_tail_mode_fiber_vectors(k, l):
    rng = np.random.default_rng(10 * k + l)
    op = ex.random_line_operator(rng, k, l)
    for lam in (-1.7, 0.3, 2.9):
        clf, modes = tail_modes(op, lam)
        # eigenvalues: the multiset of the oracle's companion matrix
        left = list(clf.eigenvalues)
        for mu, _ in orc.companion_bloch_modes(op, lam):
            near = min(range(len(left)), key=lambda i: abs(left[i] - mu))
            assert abs(left.pop(near) - mu) <= 1e-8 * max(1.0, abs(mu))
        assert modes.mu.shape == modes.kind.shape and modes.w.shape == (len(modes.mu), l)
        assert modes.kind.dtype == np.int8 and modes.k == k
        if not clf.critical:
            assert len(modes.mu) == 2 * k * l
        for mu, w, kind in zip(modes.mu, modes.w, modes.kind):
            sym = sum(op.block(0, s) * mu**s for s in range(-k, k + 1))
            scale = abs(lam) + sum(
                np.linalg.norm(op.block(0, s), 2) * abs(mu) ** s for s in range(-k, k + 1)
            )
            u = w / np.linalg.norm(w)  # channel modes carry 1/sqrt(current)
            assert np.linalg.norm((sym - lam * np.eye(l)) @ u) <= 1e-10 * scale
            top = u[np.argmax(np.abs(u))]
            assert top.real > 0 and abs(top.imag) <= 1e-12
            if kind in (DECAY, GROW):
                assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def test_repeated_channels_get_independent_fiber_vectors():
    # two identical decoupled channels: a doubly repeated pair of Bloch
    # eigenvalues whose eigenspace is two-dimensional
    _, modes = tail_modes(ex.free_line_operator(2), 0.5)
    outs = modes.w[modes.kind == OUT]
    assert outs.shape == (2, 2)
    assert np.linalg.matrix_rank(outs, tol=1e-8) == 2


COMPLEX_COUPLINGS = {
    "core": (dict(core_blocks={(0, 0): [[1 + 2j]]}), "core block (0, 0)"),
    "attach": (dict(attach={(0, 0): [[1.0 + 1e-3j]]}), "tail 0 attach block at (0, 0)"),
    "cross": (dict(cross_links=[((0, 0), (1, 0), [[0.5j]])]), "cross link block"),
}


@pytest.mark.parametrize("kind", sorted(COMPLEX_COUPLINGS))
def test_tailed_graph_rejects_complex_couplings(kind):
    # potential_line's tails; a complex coupling is an error, not a truncation
    kw, name = COMPLEX_COUPLINGS[kind]
    attach = kw.get("attach", {(0, 0): [[1.0]]})
    tails = [Tail(ex.free_tail(), attach, origin=1),
             Tail(ex.free_tail(), {(0, 0): [[1.0]]}, origin=1)]
    with pytest.raises(DomainError, match=re.escape(f"{name} has a nonzero imaginary part")):
        TailedGraph({0: 1}, kw.get("core_blocks", {(0, 0): [[-1.0]]}), tails,
                    kw.get("cross_links", ()))
    # a zero imaginary part is a real coupling
    graph = TailedGraph({0: 1}, {(0, 0): [[-1.0 + 0j]]}, tails[1:])
    assert graph.core_blocks[(0, 0)].dtype == float


def potential_line_json_with(kind: str, entry) -> dict:
    """potential_line's JSON with one coupling of ``kind`` set to ``entry``."""
    data = tailed_graph_to_json(ex.potential_line(1.0))
    if kind == "core":
        data["core"]["blocks"][0]["matrix"] = entry
    elif kind == "attach":
        data["tails"][0]["attach"][0]["matrix"] = entry
    elif kind == "decay":  # site 0 of tail 0 becomes core vertex 1
        data["tails"][0]["decay"] = [{"site": 0, "blocks": {"0": entry}}]
    else:
        data["cross_links"] = [{"from": [0, 0], "to": [1, 0], "matrix": entry}]
    return data


JSON_COUPLINGS = {
    "core": "core block (0, 0)",
    "attach": "tail 0 attach block at (0, 0)",
    "decay": "core block (1, 1)",
    "cross": "cross link block",
}


@pytest.mark.parametrize("kind", sorted(JSON_COUPLINGS))
def test_tailed_graph_json_complex_coupling_is_named(kind):
    # an [re, im] entry is decoded, so a complex coupling is reported as
    # complex, not as a matrix with a stray axis
    data = potential_line_json_with(kind, [[[-1.0, 2.0]]])
    msg = f"{JSON_COUPLINGS[kind]} has a nonzero imaginary part"
    with pytest.raises(DomainError, match=re.escape(msg)):
        tailed_graph_from_json(data)
    # [re, 0] entries are a real coupling
    graph = tailed_graph_from_json(potential_line_json_with(kind, [[[-1.0, 0.0]]]))
    assert all(m.dtype == float for m in graph.core_blocks.values())


def test_tailed_graph_validation():
    with pytest.raises(DomainError):
        TailedGraph({0: 1}, {}, [Tail(ex.free_tail(), {(5, 0): [[1.0]]})])
    attach_msg = "tail 0 attach block at (0, 0) has shape (1, 1)"
    with pytest.raises(DomainError, match=re.escape(attach_msg)):
        TailedGraph({0: 2}, {}, [Tail(ex.free_tail(), {(0, 0): [[1.0]]})])
    with pytest.raises(DomainError, match=re.escape("core block (0, 0) has shape (1, 2)")):
        TailedGraph({0: 1}, {(0, 0): [[1.0, 2.0]]}, [])
    with pytest.raises(DomainError, match=re.escape("cross link block has shape (1, 2)")):
        TailedGraph(
            {}, {}, [Tail(ex.free_tail(), {}), Tail(ex.free_tail(), {})],
            cross_links=[((0, 0), (1, 0), [[1.0, 2.0]])],
        )
    # a scalar stands for a (1, 1) coupling
    graph = TailedGraph(
        {0: 1}, {(0, 0): 0.5}, [Tail(ex.free_tail(), {(0, 0): 1.0}), Tail(ex.free_tail(), {})],
        cross_links=[((0, 0), (1, 0), 0.25)],
    )
    assert graph.core_blocks[(0, 0)].shape == (1, 1)
    assert graph.tails[0].attach[(0, 0)].shape == (1, 1)
    assert graph.cross_links[0][2].shape == (1, 1)
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


def test_warm_scattering_point_runs_two_svds_and_no_inverse(monkeypatch):
    calls = []

    def counted(name, real):
        def spy(*args, **kw):
            calls.append(name)
            return real(*args, **kw)
        return spy

    for graph in (ex.potential_line(1.0), two_channel_graph()):
        assert scattering_matrix(graph, 0.5).s_matrix is not None  # warm-up
        with monkeypatch.context() as m:
            for name in ("svd", "inv", "cond"):
                m.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
            calls.clear()
            scattering_matrix(graph, 0.5)
        # the junction kernel and the square grow/in system
        assert calls == ["svd", "svd"]


def test_zero_incoming_rows_are_singular(monkeypatch):
    import swron.scattering as sc

    real = sc._null_spaces
    for graph in (ex.potential_line(1.0), two_channel_graph()):
        kinds = np.concatenate([t.kind for t in asymptotic_subspace(graph, 0.5).modes])
        incoming = graph.core_size + np.flatnonzero(kinds == IN)

        def zeroed(stack):
            # every kernel with its incoming coefficients set to zero
            out = [(kernel.copy(), sing) for kernel, sing in real(stack)]
            for kernel, _ in out:
                kernel[incoming] = 0.0
            return out

        with monkeypatch.context() as m:
            m.setattr(sc, "_null_spaces", zeroed)
            res = scattering_matrix(graph, 0.5)
        assert "singular" in res.flags
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
    assert_one_singular_state(graph)


def assert_one_singular_state(graph):
    """Exactly one state on (0.5, 0.9): the singular one at 0.7, which the
    regular path must not report a second time."""
    states = regular_discrete_spectrum(graph, 0.5, 0.9, 41)
    assert len(states) == 1 and states[0].singular
    assert abs(states[0].lam - 0.7) <= 1e-12
    return states[0]


def test_tail_free_combination_of_equal_core_levels_is_singular():
    # both vertices feed site 0, so only their difference is invisible to the tail
    graph = TailedGraph(
        {0: 1, 1: 1},
        {(0, 0): [[0.7]], (1, 1): [[0.7]]},
        [Tail(ex.free_tail(), {(0, 0): [[1.0]], (1, 0): [[1.0]]}, origin=1)],
    )
    state = assert_one_singular_state(graph)
    assert abs(abs(state.core_values @ [1.0, -1.0]) - np.sqrt(2.0)) <= 1e-12


def test_states_at_window_ends_are_found():
    graph = ex.potential_line(1.0)
    for lo, hi in ((-2.2361, -2.05), (-2.6, -2.2360)):
        states = regular_discrete_spectrum(graph, lo, hi, 61)
        assert len(states) == 1 and not states[0].singular
        assert abs(states[0].lam + np.sqrt(5.0)) <= 1e-9
    # -sqrt(5) = -2.23607 lies just above this window
    assert regular_discrete_spectrum(graph, -2.5, -2.2361, 61) == []


def test_refinement_stacks_every_minimum_together(monkeypatch):
    import swron.scattering as sc

    calls = []
    real = sc._junction_grid

    def spy(*args, **kw):
        calls.append(len(args[1]))
        return real(*args, **kw)

    monkeypatch.setattr(sc, "_junction_grid", spy)
    graph = TailedGraph(
        {0: 1, 1: 1},
        {(0, 0): [[-1.5]], (1, 1): [[-3.0]], (0, 1): [[0.3]]},
        [
            Tail(ex.free_tail(), {(0, 0): [[1.0]]}, origin=1),
            Tail(ex.free_tail(), {(1, 0): [[1.0]]}, origin=1),
        ],
    )
    states = regular_discrete_spectrum(graph, -5.0, -2.05, 61)
    want = orc.truncated_levels(graph, -5.0, -2.05)
    assert [round(st.lam, 4) for st in states] == [-3.3848, -2.1356]
    assert np.allclose([st.lam for st in states], want, rtol=0.0, atol=1e-9)
    # the grid, one stack per bracket step for both minima, the final stack
    assert len(calls) <= 16


def coupled_pair(eps: float) -> TailedGraph:
    """Two sites with term -2, each on its own free tail, coupled by eps: two
    levels about eps apart below the band."""
    return TailedGraph(
        {0: 1, 1: 1},
        {(0, 0): [[-2.0]], (1, 1): [[-2.0]], (0, 1): [[eps]]},
        [
            Tail(ex.free_tail(), {(0, 0): [[1.0]]}, origin=1),
            Tail(ex.free_tail(), {(1, 0): [[1.0]]}, origin=1),
        ],
    )


@pytest.mark.parametrize("samples", [7, 61])
@pytest.mark.parametrize("eps", [0.1, 0.02, 0.005, 1e-4])
def test_levels_closer_than_a_grid_step_are_both_found(eps, samples):
    graph = coupled_pair(eps)
    found = [st.lam for st in regular_discrete_spectrum(graph, -4.0, -2.05, samples)]
    want = orc.truncated_levels(graph, -4.0, -2.05)
    assert len(want) == 2
    assert len(found) == 2 and np.allclose(found, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("graph, window, want", [
    (ex.potential_line(1.0), (-15.0, -2.05), -np.sqrt(5.0)),
    (ex.star_tailed(3), (2.05, 40.0), 3.0 / np.sqrt(2.0)),
    (ex.two_tail_ring_core(6), (-40.0, -2.05), -np.sqrt(5.0)),
], ids=["well", "star3", "ring6"])
def test_wide_windows_count_every_state(graph, window, want):
    (state,) = regular_discrete_spectrum(graph, *window, 61)
    assert abs(state.lam - want) <= 1e-9 and not state.uncertain


def test_spectrum_has_no_detection_threshold():
    with pytest.raises(TypeError):
        regular_discrete_spectrum(ex.potential_line(1.0), -3.0, -2.05, 61, detect_tol=1e-8)


def test_state_between_the_last_sample_and_a_band_edge():
    # -sqrt(4.01) = -2.002498 lies between the samples -2.00333 and -2.0
    (state,) = regular_discrete_spectrum(ex.potential_line(0.1), -2.1, -1.9, 61)
    assert abs(state.lam + np.sqrt(4.01)) <= 1e-9
    assert state.uncertain


@pytest.mark.parametrize("lo, hi", [(-2.0, 0.0), (-2.0, 2.0), (-3.0, -2.0)])
def test_windows_ending_on_a_band_edge(lo, hi):
    for samples in (7, 31, 61):
        assert regular_discrete_spectrum(ex.pure_line_graph(), lo, hi, samples) == []


def one_pole_graph() -> TailedGraph:
    """A two-channel order-1 random tail on one core site.  The half-tail
    alone has a gap state at 0.2553, a pole of its Y_hi Y_lo^-1."""
    op = ex.random_line_operator(np.random.default_rng(0), 1, 2)
    return TailedGraph({0: 1}, {(0, 0): [[0.0]]}, [Tail(op, {(0, 0): [[1.0, 0.0]]})])


@pytest.mark.parametrize("samples", [7, 31, 61])
def test_pole_of_a_half_tail_is_not_a_state(samples):
    import swron.scattering as sc

    graph = one_pole_graph()
    pole = orc.gap_levels(TailedGraph({}, {}, [Tail(graph.tails[0].op)]), -0.8, 0.95)
    assert [round(x, 4) for x in pole] == [0.2553]
    want = orc.gap_levels(graph, -0.8, 0.95)
    assert [round(x, 6) for x in want] == [-0.653059, 0.940754]
    found = [st.lam for st in regular_discrete_spectrum(graph, -0.8, 0.95, samples)]
    assert len(found) == 2 and np.allclose(found, want, rtol=0.0, atol=1e-9)
    grid = np.linspace(-0.8, 0.95, samples)
    steps = np.diff(np.sum(sc._junction_eigs(graph, grid)[0] < 0, axis=1))
    (fall,) = np.flatnonzero(steps < 0)
    assert steps[fall] == -1 and grid[fall] < pole[0] < grid[fall + 1]


def random_tailed_graph(seed: int) -> TailedGraph:
    """One or two core vertices of fiber 1 or 2 and one or two random tails
    with k, l <= 2, each attached at site 0 to a random core vertex."""
    rng = np.random.default_rng(seed)
    dims = {v: int(rng.integers(1, 3)) for v in range(int(rng.integers(1, 3)))}
    blocks = {}
    for v, d in dims.items():
        m = rng.standard_normal((d, d))
        blocks[v, v] = m + m.T
    if len(dims) == 2:
        blocks[0, 1] = rng.standard_normal((dims[0], dims[1]))
    tails = []
    for _ in range(int(rng.integers(1, 3))):
        op = ex.random_line_operator(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        v = int(rng.integers(len(dims)))
        tails.append(Tail(op, {(v, 0): rng.standard_normal((dims[v], op.l))}))
    return TailedGraph(dims, blocks, tails)


def gap_windows(graph: TailedGraph, margin: float = 0.05) -> list[tuple[float, float]]:
    """Windows inside every tail's gaps, ``margin`` from each band: the
    bands are the ranges of the symbol eigenvalues over the Brillouin zone."""
    theta = np.linspace(0.0, np.pi, 2001)
    bands = []
    for tail in graph.tails:
        k = tail.op.k
        symbol = sum(np.exp(1j * s * theta)[:, None, None] * tail.op.block(0, s)
                     for s in range(-k, k + 1))
        branches = np.linalg.eigvalsh(symbol)
        bands += zip(branches.min(axis=0), branches.max(axis=0))
    bands.sort()
    edges = [list(bands[0])]
    for a, b in bands[1:]:
        if a <= edges[-1][1]:
            edges[-1][1] = max(edges[-1][1], b)
        else:
            edges.append([a, b])
    inner = [(b0 + margin, a1 - margin)
             for (_, b0), (a1, _) in zip(edges, edges[1:]) if a1 - b0 > 4 * margin]
    return [(edges[0][0] - 6.0, edges[0][0] - margin), *inner,
            (edges[-1][1] + margin, edges[-1][1] + 6.0)]


def test_random_gapped_windows_match_the_truncation_oracle():
    windows = 0
    for seed in range(8):
        graph = random_tailed_graph(seed)
        levels = np.array(orc.gap_levels(graph, -np.inf, np.inf))
        for lo, hi in gap_windows(graph):
            windows += 1
            want = levels[(lo <= levels) & (levels <= hi)]
            found = [st.lam for st in regular_discrete_spectrum(graph, lo, hi, 61)]
            assert len(found) == len(want), (seed, lo, hi, found, want)
            assert np.allclose(found, want, rtol=0.0, atol=1e-8), (seed, lo, hi)
    assert windows == 20


def test_a_pole_and_a_state_within_one_step_cancel():
    # the limit of the count: on this window a half-tail pole and the state at
    # -2.142527 share every step of the 61-sample grid, so nu never changes;
    # a finer grid separates them
    import swron.scattering as sc

    graph = random_tailed_graph(41)
    (lo, hi), = [w for w in gap_windows(graph) if w[0] < -2.142527 < w[1]]
    (want,) = orc.gap_levels(graph, lo, hi)
    nu = np.sum(sc._junction_eigs(graph, np.linspace(lo, hi, 61))[0] < 0, axis=1)
    assert np.all(nu == nu[0])
    (state,) = regular_discrete_spectrum(graph, lo, hi, 201)
    assert abs(state.lam - want) <= 1e-8


SPECTRUM_GRAPHS = {
    "well": lambda: ex.potential_line(1.0),
    "star3": lambda: ex.star_tailed(3),
    "ring6": lambda: ex.two_tail_ring_core(6),
}


def site_residuals(graph, st):
    """Eigen-equation residuals of a bound state on the core and on the
    first 2k sites of every tail, from the raw blocks, with the tail
    values summed from the decaying modes of tail_modes; returns
    (largest residual, largest value)."""
    lam, off = st.lam, graph.core_offset
    core = {v: st.core_values[off[v] : off[v] + d] for v, d in graph.core_dims.items()}
    tails = []
    for tail, coeffs in zip(graph.tails, st.modal):
        modes = tail_modes(tail.op, lam)[1]
        decay = modes.kind == DECAY
        assert decay.sum() == len(coeffs)
        sites = range(3 * tail.op.k + 1)
        tails.append([coeffs @ (modes.w * modes.mu[:, None] ** n)[decay] for n in sites])
    res = {("core", v): -lam * x for v, x in core.items()}
    for (u, v), m in graph.core_blocks.items():
        res["core", u] = res["core", u] + m @ core[v]
    for j, (tail, psi) in enumerate(zip(graph.tails, tails)):
        k = tail.op.k
        for n in range(2 * k):
            res[j, n] = -lam * psi[n] + sum(
                tail.op.block(0, s) @ psi[n + s] for s in range(-k, k + 1) if n + s >= 0)
        for (v, n), m in tail.attach.items():
            res["core", v] = res["core", v] + m @ psi[n]
            res[j, n] = res[j, n] + m.T @ core[v]
    for (j1, n1), (j2, n2), m in graph.cross_links:
        res[j1, n1] = res[j1, n1] + m @ tails[j2][n2]
        res[j2, n2] = res[j2, n2] + m.T @ tails[j1][n1]
    values = list(core.values()) + [x for psi in tails for x in psi]
    return max(np.max(np.abs(r)) for r in res.values()), max(np.max(np.abs(x)) for x in values)


@pytest.mark.parametrize("name", sorted(SPECTRUM_GRAPHS))
def test_bound_state_vectors_solve_the_raw_equations(name):
    graph = SPECTRUM_GRAPHS[name]()
    states = [st for lo, hi in ((-6.0, -2.05), (2.05, 6.0))
              for st in regular_discrete_spectrum(graph, lo, hi, 61)]
    assert states
    for st in states:
        worst, size = site_residuals(graph, st)
        assert worst <= 1e-9 * size * max(1.0, abs(st.lam)), (st.lam, worst, size)


TRUNCATION_GRAPHS = {
    "star3": lambda: ex.star_tailed(3),
    "star4": lambda: ex.star_tailed(4),
    "star5": lambda: ex.star_tailed(5),
    "ring6": lambda: ex.two_tail_ring_core(6),
    "well2.5": lambda: ex.potential_line(2.5),
}


@pytest.mark.parametrize("window", [(-6.0, -2.05), (2.05, 6.0)])
@pytest.mark.parametrize("name", sorted(TRUNCATION_GRAPHS))
def test_regular_states_match_truncated_levels(name, window):
    graph = TRUNCATION_GRAPHS[name]()
    found = [st.lam for st in regular_discrete_spectrum(graph, *window, 61) if not st.singular]
    want = orc.truncated_levels(graph, *window)
    assert len(found) == len(want)
    assert np.allclose(found, want, rtol=0.0, atol=1e-9)


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
        a = scattering_matrix(graph, lam)
        b = scattering_matrix(back, lam)
        assert np.max(np.abs(a.s_matrix - b.s_matrix)) <= 1e-12


@pytest.mark.parametrize("where, entry, want", [
    ("core", {"from": 0, "to": 0, "matrix": [[5.0]]}, "core block (0, 0) appears twice"),
    ("attach", {"vertex": 0, "site": 0, "matrix": [[5.0]]},
     "tail 1 attach entry at (vertex, site) (0, 0) appears twice"),
])
def test_repeated_tailed_graph_entry_is_named(where, entry, want):
    # a second entry for one key would silently replace the first
    data = tailed_graph_to_json(ex.potential_line(1.0))
    (data["core"]["blocks"] if where == "core" else data["tails"][1]["attach"]).append(entry)
    with pytest.raises(DomainError, match=re.escape(want)):
        tailed_graph_from_json(data)


@pytest.mark.parametrize("vertex", [0, {"label": 0, "dim": 2}])
def test_repeated_core_vertex_is_named(vertex):
    # a second entry for one label would silently replace the first
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["core"]["vertices"].append(vertex)
    with pytest.raises(DomainError, match=re.escape("core vertex 0 appears twice")):
        tailed_graph_from_json(data)


@pytest.mark.parametrize("ends", [((0, 0), (1, 0)), ((1, 0), (0, 0))])
def test_repeated_cross_link_is_named(ends):
    # a second link between the same two sites, in either order, would be summed
    data = tailed_graph_to_json(ex.pure_line_graph())
    data["cross_links"].append({"from": list(ends[0]), "to": list(ends[1]), "matrix": [[1.0]]})
    want = f"cross link between tail sites {ends[0]} and {ends[1]} appears twice"
    with pytest.raises(DomainError, match=re.escape(want)):
        tailed_graph_from_json(data)
    with pytest.raises(DomainError, match=re.escape(want)):
        TailedGraph({}, {}, [Tail(ex.free_tail()), Tail(ex.free_tail())], [((0, 0), (1, 0), 1.0), (*ends, 0.5)])


def test_a_core_vertex_of_dimension_below_one_is_named():
    # a dimension below 1 would shift the next vertex to offset -1 and empty its rows
    tail = Tail(ex.free_tail(), {(1, 0): [[1.0]]})
    with pytest.raises(DomainError, match=re.escape("core vertex 0 has dimension -1, expected at least 1")):
        TailedGraph({0: -1, 1: 1}, {(1, 1): [[0.0]]}, [tail])
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["core"]["vertices"][0]["dim"] = 0
    with pytest.raises(DomainError, match=re.escape("core vertex 0 has dimension 0, expected at least 1")):
        tailed_graph_from_json(data)
    with pytest.raises(DomainError, match=re.escape("core vertex 0 has dimension -1")):
        load_tailed_graph(str(Path(__file__).parent / "data" / "negative_dim.json"))


def test_a_core_vertex_of_fractional_dimension_is_named():
    # int() used to truncate it: a "dim" of 1.5 loaded as 1
    tail = Tail(ex.free_tail(), {(1, 0): [[1.0]]})
    with pytest.raises(DomainError, match=re.escape("core vertex 0 has dimension 1.5, expected a whole number")):
        TailedGraph({0: 1.5, 1: 1}, {(1, 1): [[0.0]]}, [tail])
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["core"]["vertices"][0]["dim"] = 1.5
    with pytest.raises(DomainError, match=re.escape("core vertex 0 has dimension 1.5, expected a whole number")):
        tailed_graph_from_json(data)
    data["core"]["vertices"][0]["dim"] = 1.0
    assert tailed_graph_from_json(data).core_dims == ex.potential_line(1.0).core_dims


def test_a_fractional_tail_origin_is_named():
    # it was kept, and S carried fractional powers of mu
    def graph(origin):
        return TailedGraph({0: 1}, {(0, 0): [[0.5]]}, [Tail(ex.free_tail(), {(0, 0): [[1.0]]}),
                                                      Tail(ex.free_tail(), {(0, 0): [[1.0]]}, origin=origin)])

    with pytest.raises(DomainError, match=re.escape("tail 1 has origin 2.5, expected a whole number")):
        graph(2.5)
    with pytest.raises(DomainError, match=re.escape("origin 0.5, expected a whole number")):
        tail_modes(ex.free_tail(), 0.5, origin=0.5)
    # a whole float is its int, at any sign
    assert [t.origin for t in graph(-2.0).tails] == [0, -2] and type(graph(-2.0).tails[1].origin) is int
    assert scattering_matrix(graph(2.0), 0.5).s_matrix.tobytes() == scattering_matrix(graph(2), 0.5).s_matrix.tobytes()
    whole, three = tail_modes(ex.free_tail(), 0.5, origin=3.0)[1], tail_modes(ex.free_tail(), 0.5, origin=3)[1]
    assert whole.w.tobytes() == three.w.tobytes()


def test_the_committed_repeated_link_is_rejected():
    # tests/data/repeated_link.json is the pure line with its cross link listed again, reversed
    want = tailed_graph_to_json(ex.pure_line_graph())
    want["cross_links"].append({"from": [1, 0], "to": [0, 0], "matrix": [[1.0]]})
    path = Path(__file__).parent / "data" / "repeated_link.json"
    assert json.loads(path.read_text()) == want
    with pytest.raises(DomainError, match=re.escape("cross link between tail sites (1, 0) and (0, 0)")):
        load_tailed_graph(str(path))


def test_a_tailed_graph_keeps_its_own_tails():
    def graph_of(first):
        return TailedGraph({0: 1}, {(0, 0): [[-1.0]]}, [first, Tail(ex.free_tail(), {(0, 0): [[1.0]]})])

    attach = {(0, 0): [[1.0]]}
    tail = Tail(ex.free_tail(), attach)
    graph, twin = graph_of(tail), graph_of(Tail(ex.free_tail(), {(0, 0): [[1.0]]}))
    assert tail.attach is attach and attach == {(0, 0): [[1.0]]}  # the caller's Tail is unchanged
    assert graph.tails[0] is not tail and graph.tails[0].attach[(0, 0)].shape == (1, 1)
    tail.origin, attach[(0, 0)] = 3, [[2.0]]  # edits after construction leave the graph alone
    assert graph.tails[0].origin == 0 and graph.tails[0].attach[(0, 0)][0, 0] == 1.0
    assert np.array_equal(scattering_matrix(graph, 0.5).s_matrix, scattering_matrix(twin, 0.5).s_matrix)


def test_core_vertices_may_be_plain_labels():
    # a bare label is a vertex of fiber dimension 1
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["core"]["vertices"] = [0]
    assert tailed_graph_to_json(tailed_graph_from_json(data)) == tailed_graph_to_json(ex.potential_line(1.0))


# -- the exact junction reduction against the truncated modal oracle -----------


def two_channel_graph(seed: int = 11) -> TailedGraph:
    """Hub of fiber dimension 2 with three random order-2, two-channel tails."""
    rng = np.random.default_rng(seed)
    tails = [
        Tail(ex.random_line_operator(rng, 2, 2), {(0, 0): rng.standard_normal((2, 2))})
        for _ in range(3)
    ]
    return TailedGraph({0: 2}, {(0, 0): np.diag(rng.standard_normal(2))}, tails)


def test_band_scan_csv_reads_s_by_channel_position(tmp_path):
    # outside every band S is withheld; the three tails differ in counts
    scan = band_scan(two_channel_graph(), -8.0, 8.0, 33)
    path = tmp_path / "scan.csv"
    scan.to_csv(str(path))
    with open(path, newline="") as fh:
        head, *body = list(csv.reader(fh))
    labels = list(dict.fromkeys(f"{j}c{i}" for r in scan.rows for j, i in r.result.channels))
    assert [h for h in head if h.startswith("S_")] == [
        f"S_{part}[{a}->{b}]" for a in labels for b in labels for part in ("re", "im")]
    assert len(body) == len(scan.rows)
    seen = set()
    for row, rec in zip(scan.rows, body):
        res, cell = row.result, dict(zip(head, rec))
        assert float(cell["lambda"]) == row.lam
        for ix, key in enumerate("spq"):
            vals = [str(c[ix]) for c in row.counts]
            assert cell[key] == (vals[0] if len(set(vals)) == 1 else "|".join(vals))
        names = [f"{j}c{i}" for j, i in res.channels]
        for a in labels:
            for b in labels:
                got = (cell[f"S_re[{a}->{b}]"], cell[f"S_im[{a}->{b}]"])
                if res.s_matrix is None or a not in names or b not in names:
                    assert got == ("", "")
                    seen.add("empty" if res.s_matrix is None else "absent")
                else:
                    x = res.s_matrix[names.index(b), names.index(a)]
                    assert tuple(map(float, got)) == (x.real, x.imag)
        seen.add("split" if len(set(row.counts)) > 1 else "equal")
    assert {"empty", "absent", "split"} <= seen


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
    return [(j, mu, w) for j, t in enumerate(res.subspace.modes)
            for mu, w in zip(t.mu[t.kind == OUT], t.w[t.kind == OUT])]


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_junction_rows_match_truncated_oracle(name):
    graph = ORACLE_GRAPHS[name]
    for lam in (-1.3, 0.5, 1.7):
        res = scattering_matrix(graph, lam)
        assert res.s_matrix is not None, (lam, res.flags)
        s, outs = orc.truncated_modal_s_matrix(graph, lam)
        want = orc.in_channel_gauge(s, outs, out_channels(res))
        assert np.max(np.abs(res.s_matrix - want)) <= 1e-10


def test_informative_rows_per_tail():
    import swron.scattering as sc

    # the junction stack holds every core row and k_j l_j rows of tail j
    cases = [(cross_linked_graph(), 1 + 2 + 1), (ex.star_tailed(4), 1 + 4),
             (two_channel_graph(), 2 + 3 * 4)]
    for graph, rows in cases:
        assert rows == graph.core_size + sum(t.op.k * t.op.l for t in graph.tails)
        for decay_only in (False, True):
            stacks = sc._junction_grid(graph, np.array([-3.5, 0.5]), decay_only)[1]
            assert [matrix.shape[1] for _, matrix, *_ in stacks] == [rows] * len(stacks)


def test_mode_values_are_evaluated_once_per_tail_and_stack(monkeypatch):
    import swron.scattering as sc

    graph = two_channel_graph()
    assert scattering_matrix(graph, 0.5).s_matrix is not None  # warm the form caches
    calls, real = [], sc._site_values

    def spy(modes):
        calls.append(modes.kind.shape[0])  # the lambda rows of the stack
        return real(modes)

    monkeypatch.setattr(sc, "_site_values", spy)
    assert scattering_matrix(graph, 0.5).s_matrix is not None
    assert calls == [1, 1, 1], calls
    calls.clear()
    band_scan(graph, -3.0, 3.0, 31)
    assert calls == [31, 31, 31], calls


def mixed_shape_graph() -> TailedGraph:
    """A hub of fiber dimension 2 with a scalar free tail and three
    two-channel tails, two of them with equal operators at origins 0 and 2
    (the second rebuilt from the first's JSON, so they share only their
    blocks): two tail shapes, three distinct operators."""
    two = two_channel_graph().tails
    twin = line_operator_from_json(line_operator_to_json(two[0].op))
    attach = {(0, 0): np.array([[1.0, 0.5], [0.2, -0.7]])}
    tails = [Tail(ex.free_tail(), {(0, 0): np.array([[1.0], [0.5]])}, origin=1),
             Tail(two[0].op, attach, origin=0), Tail(two[1].op, attach), Tail(twin, attach, origin=2)]
    return TailedGraph({0: 2}, {(0, 0): np.diag([0.3, -0.2])}, tails)


@pytest.mark.parametrize("graph, solves", [(two_channel_graph, 1), (mixed_shape_graph, 2)])
def test_one_eig_per_tail_shape(monkeypatch, graph, solves):
    graph, distinct = graph(), 3  # both graphs have three distinct tail operators
    band_scan(graph, -3.0, 3.0, 31)  # warm the critical-point sets, which also call eig
    calls, real = [], np.linalg.eig

    def spy(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    scattering_matrix(graph, 0.5)
    assert len(calls) == solves and sum(calls) == distinct, calls
    calls.clear()
    band_scan(graph, -3.0, 3.0, 31)
    assert len(calls) == solves and sum(calls) == 31 * distinct, calls


def unstacked(graph: TailedGraph) -> TailedGraph:
    """``graph`` with one Bloch solve per distinct tail operator: the
    reference that the solves stacked by tail shape must reproduce."""
    import swron.scattering as sc

    solves, where = graph._solves
    firsts = np.cumsum([0] + [len(solve.ops) for solve in solves])
    graph.__dict__["_solves"] = ([sc._solve([op], solve.origins) for solve in solves for op in solve.ops],
                                 [(firsts[a] + g, 0, origin) for a, g, origin in where])
    return graph


def scattering_bytes(res) -> tuple:
    sub = res.subspace
    return (None if res.s_matrix is None else res.s_matrix.tobytes(), sorted(res.flags), res.channels,
            res.unitarity_residual, res.symmetry_residual, res.pairing_defect, sub.lagrangian_residual,
            sub.dim, [c.counts() for c in sub.classifications],
            [(t.mu.tobytes(), t.w.tobytes(), t.kind.tobytes(), t.k) for t in sub.modes])


@pytest.mark.parametrize("make", [two_channel_graph, mixed_shape_graph, ex.pure_line_graph])
def test_stacked_tail_solves_match_the_per_operator_solves_bit_for_bit(make):
    import swron.scattering as sc

    graph, ref = make(), unstacked(make())
    lams = np.linspace(-2.9, 2.9, 23)
    for lam in lams[::4]:
        assert scattering_bytes(scattering_matrix(graph, lam)) == scattering_bytes(scattering_matrix(ref, lam))
    got, want = band_scan(graph, -2.9, 2.9, 23), band_scan(ref, -2.9, 2.9, 23)
    assert [scattering_bytes(r.result) for r in got.rows] == [scattering_bytes(r.result) for r in want.rows]
    for outside in (np.linspace(-9.0, -6.0, 5), np.zeros(0)):  # an empty stack too
        for a, b in zip(sc._junction_eigs(graph, outside), sc._junction_eigs(ref, outside)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def embedded_state_graph() -> TailedGraph:
    """A hub coupled to the closed channel of a two-channel tail (on-site
    diag(0, 2.5)) and a core vertex coupled to nothing.  At lambda = 0 the
    hub and the closed channel hold a state, mu = -1/2 on the tail, inside
    the open channel's band: the grow/in system is singular.  At -1 the
    lone vertex adds a kernel dimension."""
    op = LineOperator(1, 2, {0: np.diag([0.0, 2.5]), 1: np.eye(2)})
    return TailedGraph({0: 1, 1: 1}, {(0, 0): [[0.5]], (1, 1): [[-1.0]]},
                       [Tail(op, {(0, 0): [[0.0, 1.0]]})])


def scaled_ring() -> TailedGraph:
    return scaled(ex.two_tail_ring_core(6), 1e-18)


STACKED_SCANS = {  # graph, lo, hi; one shape stack of 31 rows each
    "embedded": (embedded_state_graph, -3.0, 3.0),
    "two_channel": (two_channel_graph, -3.0, 3.0),
    "ring_1e-18": (scaled_ring, -3e-18, 3e-18),
}


@pytest.mark.parametrize("name", sorted(STACKED_SCANS))
def test_scan_rows_are_the_points_of_scattering_matrix(name):
    make, lo, hi = STACKED_SCANS[name]
    graph = make()
    rows = band_scan(graph, lo, hi, 31).rows
    for row in rows:
        res, want = row.result, scattering_matrix(graph, row.lam)
        assert (res.flags, res.channels) == (want.flags, want.channels), row.lam
        assert (res.subspace.dim, res.subspace.flags) == (want.subspace.dim, want.subspace.flags)
        assert (res.s_matrix is None) == (want.s_matrix is None)
        if want.s_matrix is not None:
            assert np.max(np.abs(res.s_matrix - want.s_matrix)) <= 1e-13
        for key in ("unitarity_residual", "symmetry_residual", "pairing_defect"):
            got, ref = getattr(res, key), getattr(want, key)
            assert (got is None) == (ref is None) and (ref is None or abs(got - ref) <= 1e-13), key
        assert abs(res.subspace.lagrangian_residual - want.subspace.lagrangian_residual) <= 1e-13
    flags = set().union(*(row.result.flags for row in rows))
    channels = {len(row.result.channels) for row in rows if row.result.s_matrix is not None}
    if name == "embedded":
        assert flags == {"no-channels", "critical", "singular", "kernel-dim-mismatch"}
        assert [row.lam for row in rows if "singular" in row.result.flags] == [0.0]
        assert channels == {1, 2}
    elif name == "two_channel":
        assert len(channels) >= 3 and not flags
    else:
        assert {"no-channels", "critical", "kernel-dim-mismatch"} <= flags
        assert len({row.result.subspace.dim for row in rows}) > 1


@pytest.mark.parametrize("name", sorted(STACKED_SCANS))
def test_scan_takes_s_per_stack(monkeypatch, name):
    # one junction SVD per shape stack, and one SVD of the grow/in systems
    # per kernel dimension that has S rows: not one per row
    import swron.scattering as sc

    make, lo, hi = STACKED_SCANS[name]
    graph, stacks, svds = make(), [], []
    real_assemble, real_svd = sc._assemble, np.linalg.svd

    def assemble(graph, lams, modes):
        stacks.append(len(lams))
        return real_assemble(graph, lams, modes)

    def svd(a, *args, **kw):
        if np.ndim(a) == 3 and len(a):  # a stack; critical-point sets take 2-D SVDs
            svds.append(len(a))
        return real_svd(a, *args, **kw)

    monkeypatch.setattr(sc, "_assemble", assemble)
    monkeypatch.setattr(np.linalg, "svd", svd)
    scan = band_scan(graph, lo, hi, 31)
    assert stacks == [31]
    with_s = {row.result.subspace.dim for row in scan.rows if row.result.s_matrix is not None}
    assert svds[0] == 31 and len(svds) == 1 + len(with_s) <= 2, svds


def test_subspace_windows_hold_mode_values_past_the_junction():
    graph = cross_linked_graph()
    sub = asymptotic_subspace(graph, 0.5)
    for tail, modes, x in zip(graph.tails, sub.modes, sub.windows):
        k = tail.op.k
        assert x.shape == (2 * k * tail.op.l, len(modes.mu))
        want = np.concatenate([site_values(modes, n) for n in range(2 * k)], axis=1)
        assert np.allclose(x, want.T, rtol=1e-13, atol=0.0)


def test_tail_modes_are_the_modes_the_subspace_reads():
    # tail 1 of the pure line has phase origin 0 and a growing mode below the band
    graph = ex.pure_line_graph()
    _, modes = tail_modes(graph.tails[1].op, -3.0)
    read = asymptotic_subspace(graph, -3.0).modes[1]
    assert GROW in modes.kind
    assert [a.tobytes() for a in modes[:3]] == [a.tobytes() for a in read[:3]] and modes.k == read.k


@pytest.mark.parametrize("lam", [-3.5, 0.5, 1.3])
def test_mode_pair_form_is_the_same_on_every_window(lam):
    # each tail's deepest coupling is at site k - 1: the window 0..2k-1 and the
    # window k..3k-1 past every coupling give one mode-pair form
    graph = cross_linked_graph()
    sub = asymptotic_subspace(graph, lam)
    for tail, modes, x in zip(graph.tails, sub.modes, sub.windows):
        k, sw = tail.op.k, swronskian_form(tail.op, 0).matrix
        deep = np.concatenate([site_values(modes, n) for n in range(k, 3 * k)], axis=1).T
        want = deep.T @ sw @ deep
        assert np.max(np.abs(x.T @ sw @ x - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_mode_frame():
    import swron.scattering as sc

    with pytest.raises(TypeError):
        tail_modes(ex.free_tail(), -3.0, anchor=3)
    graph = ex.potential_line(1.0)
    assert not hasattr(graph, "junction_depth") and not hasattr(graph.tails[0], "junction_depth")
    assert not hasattr(sc, "Mode")


def scaled(graph: TailedGraph, c: float) -> TailedGraph:
    """``graph`` with every block (core, attach, cross link, tail shift) times c."""
    data = tailed_graph_to_json(graph)
    mats = data["core"]["blocks"] + data["cross_links"]
    mats += [item for tail in data["tails"] for item in tail["attach"]]
    for item in mats:
        item["matrix"] = (c * np.array(item["matrix"])).tolist()
    for tail in data["tails"]:
        blocks = tail["operator"]["blocks"]
        blocks.update({s: (c * np.array(m)).tolist() for s, m in blocks.items()})
    return tailed_graph_from_json(data)


@pytest.mark.parametrize("c", [1e5, 1e8, 1e13])
def test_refinements_stop_at_large_lambda(monkeypatch, c):
    import swron.line_lattice as ll
    import swron.scattering as sc

    def capped(module, name):
        real, calls = getattr(module, name), []

        def spy(*args, **kw):
            calls.append(args)
            if len(calls) > 200:
                raise AssertionError(f"{name} called more than 200 times")
            return real(*args, **kw)

        monkeypatch.setattr(module, name, spy)

    capped(sc, "_junction_grid")
    capped(ll, "_classify_grid")
    states = regular_discrete_spectrum(scaled(ex.potential_line(1.0), c), -4 * c, -2.05 * c, 61)
    assert len(states) == 1
    assert abs(states[0].lam / c + np.sqrt(5)) <= 1e-9
    pts = find_critical_points(scaled(ex.pure_line_graph(), c).tails[0].op, -3 * c, 3 * c, 121)
    assert [round(p.lam / c, 8) for p in pts] == [-2.0, 2.0]


@pytest.mark.parametrize("c", [1e-13, 1e4])
def test_decisions_do_not_depend_on_the_scale(c):
    # every block and lambda times c: S is unchanged and lambda results scale by c
    for graph in (ex.pure_line_graph(), ex.two_tail_ring_core(6)):
        want = scattering_matrix(graph, 0.5).s_matrix
        res = scattering_matrix(scaled(graph, c), 0.5 * c)
        assert not res.flags
        assert np.max(np.abs(res.s_matrix - want)) <= 1e-8
    states = regular_discrete_spectrum(scaled(ex.two_tail_ring_core(6), c), -1.5 * c, 1.5 * c, 31)
    assert [(round(st.lam / c, 9), st.singular) for st in states] == [(-1.0, True), (1.0, True)]


def test_tail_couplings_at_sites_beyond_order_rejected():
    free = ex.free_tail
    with pytest.raises(DomainError, match="decay"):
        TailedGraph(
            {0: 1}, {}, [Tail(free(), {(0, 0): [[1.0]]}), Tail(free(), {(0, 1): [[1.0]]})]
        )
    with pytest.raises(DomainError, match="decay"):
        TailedGraph(
            {0: 1},
            {},
            [Tail(free(), {(0, 0): [[1.0]]}), Tail(free(), {(0, 0): [[1.0]]})],
            cross_links=[((0, 1), (1, 0), [[0.5]])],
        )
    # site 1 of an order-2 tail is a tail coupling
    assert cross_linked_graph().cross_links[0][0] == (0, 1)


def test_band_scan_builds_each_tail_set_once(monkeypatch):
    import swron.scattering as sc

    built, real_build = [], sc._symbol_criticals

    def build(op):
        if op._criticals is None:
            built.append(op)
        return real_build(op)

    monkeypatch.setattr(sc, "_symbol_criticals", build)
    graph = ex.star_tailed(5)
    scan = band_scan(graph, -2.5, 2.5, 11)
    assert built == [graph.tails[0].op]  # five tails, one key
    band_scan(graph, -2.4, 2.4, 7)
    regular_discrete_spectrum(graph, -3.0, -2.05, 11)
    assert len(built) == 1  # the set is cached on the operator
    shifted = LineOperator(1, 1, {0: [[0.5]], 1: [[1.0]]})
    mixed = TailedGraph({0: 1}, {}, [Tail(ex.free_tail(), {(0, 0): [[1.0]]}),
                                     Tail(shifted, {(0, 0): [[1.0]]}),
                                     Tail(ex.free_tail(), {(0, 0): [[1.0]]})])
    assert [cp.lam for cp in band_scan(mixed, -3.0, 3.0, 11).criticals] == [
        -2.0, 2.0, -1.5, 2.5, -2.0, 2.0]
    assert len(built) == 3
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


def test_decay_rows_follow_the_line_operator_shift_rule():
    well = ex.potential_line(1.0)
    too_far = [{"site": 0, "blocks": {"0": [[0.5]], "2": [[7.0]]}}]
    with pytest.raises(DomainError, match="shift 2 exceeds half-width 1"):
        with_decay(well, 0, too_far)
    asymmetric = [{"site": 0, "blocks": {"1": [[0.5]]}}, {"site": 1, "blocks": {"-1": [[0.7]]}}]
    with pytest.raises(DomainError, match=re.escape("blocks (0, 1) and (1, -1) break symmetry")):
        with_decay(well, 0, asymmetric)


def test_bad_decay_table_names_its_tail():
    star = ex.star_tailed(3)
    with pytest.raises(DomainError, match=re.escape('tail 2 "decay" table: shift 2 exceeds')):
        with_decay(star, 2, [{"site": 0, "blocks": {"2": [[0.3]]}}])


def test_asymmetric_decay_table_names_its_tail():
    star = ex.star_tailed(3)
    asymmetric = [{"site": 0, "blocks": {"1": [[0.5]]}}, {"site": 1, "blocks": {"-1": [[0.7]]}}]
    want = 'tail 2 "decay" table: blocks (0, 1) and (1, -1) break symmetry by 2.000e-01'
    with pytest.raises(DomainError, match=re.escape(want)):
        with_decay(star, 2, asymmetric)


@pytest.mark.parametrize("site", [-1, -3])
def test_negative_decay_site_is_named(site):
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][0]["decay"] = [{"site": site, "blocks": {"0": [[0.2]]}}]
    want = f'tail 0 "decay" table: site {site} is negative'
    with pytest.raises(DomainError, match=re.escape(want)):
        tailed_graph_from_json(data)


def test_repeated_decay_site_is_named():
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][1]["decay"] = [{"site": n, "blocks": {"0": [[0.2]]}} for n in (0, 1, 0)]
    want = 'tail 1 "decay" table: site 0 appears twice'
    with pytest.raises(DomainError, match=re.escape(want)):
        tailed_graph_from_json(data)


@pytest.mark.parametrize("end", ["from", "to"])
@pytest.mark.parametrize("tail", [5, 2, -1])
def test_cross_link_with_unknown_tail_is_named(end, tail):
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][1]["decay"] = [{"site": 0, "blocks": {"0": [[0.2]]}}]
    data["cross_links"] = [{"from": [0, 0], "to": [1, 1], "matrix": [[0.5]]}]
    data["cross_links"][0][end] = [tail, 0]
    with pytest.raises(DomainError, match=re.escape(f"cross link uses unknown tail {tail}")):
        tailed_graph_from_json(data)


def test_depth_is_not_an_option():
    graph = ex.potential_line(1.0)
    with pytest.raises(TypeError):
        scattering_matrix(graph, 0.5, 3)
    with pytest.raises(TypeError):
        band_scan(graph, -1.0, 1.0, 5, depth=3)
    assert not hasattr(graph, "tail_rows") and not hasattr(graph, "default_depth")


def test_asymptotic_operator_key_loads_like_operator():
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][1]["asymptotic_operator"] = data["tails"][1].pop("operator")
    graph, alias = ex.potential_line(1.0), tailed_graph_from_json(data)
    assert tailed_graph_to_json(alias) == tailed_graph_to_json(graph)
    for lam in (-1.3, 0.5, 1.7):
        assert np.array_equal(scattering_matrix(alias, lam).s_matrix,
                              scattering_matrix(graph, lam).s_matrix)


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
