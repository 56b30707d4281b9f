"""Lambda grids: argument checks, classification margins, and agreement of
the batched grid path with the per-point API and with independent oracles."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
import swron.line_lattice as ll
import swron.scattering as sc
from swron import (
    DomainError,
    Tail,
    TailedGraph,
    band_scan,
    classify_monodromy,
    find_critical_points,
    regular_discrete_spectrum,
    scattering_matrix,
    transfer_map,
)
from swron import examples as ex
from swron.cli import main
from swron.line_lattice import LineOperator, line_operator_to_json


def two_channel_graph(seed: int) -> TailedGraph:
    """Hub of fiber dimension 2 with three order-2, two-channel random tails."""
    rng = np.random.default_rng(seed)
    tails = [
        Tail(ex.random_line_operator(rng, 2, 2), {(0, 0): rng.standard_normal((2, 2))})
        for _ in range(3)
    ]
    return TailedGraph({0: 2}, {(0, 0): np.diag(rng.standard_normal(2))}, tails)


FIXTURES = {
    "star4": lambda: ex.star_tailed(4),
    "ring6": lambda: ex.two_tail_ring_core(6),
    "well": lambda: ex.potential_line(1.0),
    "line": ex.pure_line_graph,
    "two_channel": lambda: two_channel_graph(5),
}


# -- grid arguments ----------------------------------------------------------------


@pytest.mark.parametrize("lo, hi", [(3.0, -3.0), (1.0, 1.0)])
def test_grid_entry_points_reject_reversed_intervals(lo, hi):
    want = f"a lambda grid needs lo < hi, got lo={lo} and hi={hi}"
    with pytest.raises(DomainError, match=re.escape(want)):
        find_critical_points(ex.free_line_operator(1), lo, hi, 11)
    with pytest.raises(DomainError, match=re.escape(want)):
        regular_discrete_spectrum(ex.potential_line(1.0), lo, hi, 61)
    with pytest.raises(DomainError, match=re.escape(want)):
        band_scan(ex.potential_line(1.0), lo, hi, 11)


@pytest.mark.parametrize("lo, hi", [(-math.inf, -2.05), (-3.0, math.nan)])
def test_grid_entry_points_reject_non_finite_ends(lo, hi):
    want = f"a lambda grid needs finite ends, got lo={lo} and hi={hi}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=re.escape(want)):
            find_critical_points(ex.free_line_operator(1), lo, hi, 11)
        with pytest.raises(DomainError, match=re.escape(want)):
            regular_discrete_spectrum(ex.potential_line(1.0), lo, hi, 61)
        with pytest.raises(DomainError, match=re.escape(want)):
            band_scan(ex.potential_line(1.0), lo, hi, 11)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_a_non_finite_lambda_is_named(lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=f"lambda must be finite, got {lam}"):
            scattering_matrix(ex.potential_line(1.0), lam)
        with pytest.raises(DomainError, match=f"lambda must be finite, got {lam}"):
            sc.tail_modes(ex.free_tail(), lam)


@pytest.mark.parametrize("lam", [0.5 + 0.1j, 0.5 + 0j, np.complex128(0.5 + 0.1j), np.array(0.5 + 0.1j), "half", None])
def test_a_lambda_that_is_not_a_real_number_is_named(lam):
    # float() raised a bare TypeError, or dropped the imaginary part of a numpy complex
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: scattering_matrix(ex.potential_line(1.0), lam),
                     lambda: sc.asymptotic_subspace(ex.potential_line(1.0), lam),
                     lambda: sc.tail_modes(ex.free_tail(), lam)):
            with pytest.raises(DomainError, match=re.escape(f"lambda must be a real number, got {lam!r}")):
                call()


@pytest.mark.parametrize("command", ["scatter", "spectrum", "classify"])
def test_grid_commands_reject_an_infinite_end(tmp_path, capsys, command):
    if command == "classify":
        path = tmp_path / "free.json"
        path.write_text(json.dumps(line_operator_to_json(ex.free_line_operator(1))))
        args = ["classify", "--operator-file", str(path)]
    else:
        args = [command, "--graph-file", str(Path(__file__).parent / "data" / "well.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args + ["--lo=-inf", "--hi", "-2.05", "--samples", "11"]) == 2
    assert "a lambda grid needs finite ends, got lo=-inf and hi=-2.05" in capsys.readouterr().err


def test_classify_command_rejects_reversed_interval(tmp_path, capsys):
    opath = tmp_path / "free.json"
    opath.write_text(json.dumps(line_operator_to_json(ex.free_line_operator(1))))
    rc = main(["classify", "--operator-file", str(opath), "--lo", "3", "--hi", "-3"])
    assert rc == 2
    assert "needs lo < hi, got lo=3.0 and hi=-3.0" in capsys.readouterr().err


def test_classify_command_classifies_its_grid_once(tmp_path, monkeypatch):
    import swron.cli as cli

    grids, real = [], ll._classify_grid

    def spy(op, lams):
        grids.append(len(lams))
        return real(op, lams)

    monkeypatch.setattr(cli, "_classify_grid", spy)
    monkeypatch.setattr(ll, "_classify_grid", spy)
    opath = tmp_path / "free.json"
    opath.write_text(json.dumps(line_operator_to_json(ex.free_line_operator(1))))
    out = tmp_path / "report.json"
    assert main(["classify", "--operator-file", str(opath), "--lo", "-3", "--hi", "3",
                 "--samples", "25", "--output", str(out)]) == 0
    assert len(grids) == 2 and grids[0] == 25  # the grid, then one filter of the candidates
    assert len(json.loads(out.read_text())["critical_points"]) == 2


def test_grid_sample_minimum_messages():
    with pytest.raises(DomainError, match="need at least two grid samples"):
        find_critical_points(ex.free_line_operator(1), -3, 3, 1)
    with pytest.raises(DomainError, match="need at least three grid samples"):
        regular_discrete_spectrum(ex.potential_line(1.0), -3.5, -2.1, 2)


@pytest.mark.parametrize("samples", [61.0, 24.5, "61"])
def test_grid_samples_that_are_not_an_integer_are_named(samples):
    # np.linspace raised a bare TypeError
    message = re.escape(f"grid samples must be an integer, got {samples!r}")
    with pytest.raises(DomainError, match=message):
        band_scan(ex.potential_line(1.0), -3.0, 3.0, samples)
    with pytest.raises(DomainError, match=message):
        regular_discrete_spectrum(ex.potential_line(1.0), -3.5, -2.1, samples)
    with pytest.raises(DomainError, match=message):
        find_critical_points(ex.free_line_operator(1), -3.0, 3.0, samples)
    assert len(band_scan(ex.potential_line(1.0), -3.0, 3.0, np.int64(5)).rows) == 5


# -- classification margins -----------------------------------------------------------


def test_classification_margins_on_the_free_line():
    op = ex.free_line_operator(1)
    # mu = lam/2 +- i sqrt(1 - lam^2/4): the pair splits by sqrt(4 - lam^2)
    edge = classify_monodromy(transfer_map(op, 2 - 1e-13, 0))
    assert edge.critical and edge.critical_reason == "eigenvalue-collision"
    assert edge.min_gap < ll.CRITICAL_GAP and edge.unit_gap < ll.CRITICAL_GAP
    assert edge.min_gap == pytest.approx(math.sqrt(4e-13), rel=0.1)
    assert edge.unit_gap == pytest.approx(math.sqrt(4e-13) / 2, rel=0.1)
    inside = classify_monodromy(transfer_map(op, 1.9, 0))
    assert not inside.critical
    assert inside.min_gap == pytest.approx(math.sqrt(4 - 1.9**2), rel=1e-12)
    assert inside.unit_gap == pytest.approx(math.sqrt(2 - 1.9), rel=1e-12)
    assert inside.min_gap > 1e5 * ll.CRITICAL_GAP


def test_a_zero_current_channel_is_the_last_critical_reason():
    # rows: one clean open channel, and the +1 doublet of a band edge; the
    # rows ``dead`` carry an open channel without current (``_tail_grid``)
    mus = np.array([np.exp([0.5j, -0.5j]), [1.0 + 0j, 1.0 + 0j]])
    clean = ll._classify(mus, [0.1, 0.2], 1, *ll._moduli(mus))
    assert [c.critical_reason for c in clean] == [None, "eigenvalue-collision"]
    dead = ll._classify(mus, [0.1, 0.2], 1, *ll._moduli(mus), {0, 1})
    assert [c.critical_reason for c in dead] == ["zero-current-channel", "eigenvalue-collision"]
    assert [c.critical for c in clean + dead] == [False, True, True, True]
    assert [c.counts() for c in dead] == [c.counts() for c in clean]
    with pytest.raises(AttributeError):  # one fact, one field
        dead[0].critical = False


# -- batched grids against independent and per-point references --------------------


@pytest.mark.parametrize("seed", range(4))
def test_batched_counts_match_the_companion_oracle(seed):
    graph = two_channel_graph(seed)
    scan = band_scan(graph, -4.0, 4.0, 41)
    checked = 0
    for row in scan.rows:
        for tail, clf in zip(graph.tails, row.result.subspace.classifications):
            if clf.critical:
                continue
            assert clf.counts() == orc.channel_counts(tail.op, row.lam)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("name", FIXTURES)
def test_band_scan_matches_the_per_point_api(name):
    graph = FIXTURES[name]()
    scan = band_scan(graph, -2.6, 2.6, 23)
    for row in scan.rows:
        point = scattering_matrix(graph, row.lam)
        clfs = point.subspace.classifications
        assert row.counts == [c.counts() for c in clfs]
        assert [(c.critical, c.critical_reason) for c in row.result.subspace.classifications] == [
            (c.critical, c.critical_reason) for c in clfs
        ]
        assert row.result.flags == point.flags
        assert row.result.subspace.dim == point.subspace.dim
        assert row.result.channels == point.channels
        if point.s_matrix is None:
            assert row.result.s_matrix is None
        else:
            assert np.max(np.abs(row.result.s_matrix - point.s_matrix)) <= 1e-12
    want = []
    for tail in graph.tails:
        want += orc.serial_critical_points(tail.op, -2.6, 2.6, 23, tol=1e-12)
    got = [(cp.lam, cp.before, cp.after) for cp in scan.criticals]
    assert len(got) == len(want)
    for (a, *ca), (b, *cb) in zip(got, want):
        assert abs(a - b) <= 1e-10 and ca == cb


def assert_free_line_edges(op, criticals):
    """Exactly the band edges -2 and 2, with the oracle's counts on each side."""
    assert len(criticals) == 2
    for cp, edge in zip(criticals, (-2.0, 2.0)):
        assert abs(cp.lam - edge) <= 1e-14
        assert cp.before == orc.channel_counts(op, cp.lam - 1e-6)
        assert cp.after == orc.channel_counts(op, cp.lam + 1e-6)


@pytest.mark.parametrize("samples", [24, 25, 61, 101])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_identical_channels_get_exact_band_edges(l, samples):
    # l > 1 flags every in-band sample as a collision; 25 and 61 samples
    # put lambda = +-2 itself on the grid
    op = ex.free_line_operator(l)
    assert_free_line_edges(op, find_critical_points(op, -3, 3, samples))


def test_band_scan_of_identical_tails_gets_exact_band_edges():
    op = ex.free_line_operator(2)
    graph = TailedGraph({}, {}, [Tail(op, {}), Tail(op, {})], [((0, 0), (1, 0), np.eye(2))])
    scan = band_scan(graph, -2.6, 2.6, 23)
    assert all(row.critical for row in scan.rows)
    assert len(scan.criticals) == 4
    assert_free_line_edges(op, scan.criticals[:2])
    assert_free_line_edges(op, scan.criticals[2:])


@pytest.mark.parametrize("samples", [24, 61, 101])
def test_two_changes_a_quarter_apart_are_both_found(samples):
    # blocks 5 at shift 1 and 1 at shift 2: with z = mu + 1/mu the symbol is
    # lambda = z^2 + 5 z - 2, so two real pairs merge into a quadruple at
    # z = -2.5 (lambda = -8.25) and a band opens at z = -2 (lambda = -8);
    # 24 samples put both in one grid step, 61 put -8 on the grid.  The band
    # closes at z = 2, lambda = 12, the end of the window, which counts
    op = LineOperator(2, 1, {1: [[5.0]], 2: [[1.0]]})
    cps = find_critical_points(op, -12, 12, samples)
    assert [(cp.path, cp.spectrum_neutral) for cp in cps] == [(1, True), (3, False), (3, False)]
    for cp, edge in zip(cps, (-8.25, -8.0, 12.0)):
        assert abs(cp.lam - edge) <= 1e-8
        assert cp.before == orc.channel_counts(op, cp.lam - 1e-6)
        assert cp.after == orc.channel_counts(op, cp.lam + 1e-6)


NARROW = str(Path(__file__).parent / "data" / "narrow_band.json")


def narrow_band_operator() -> LineOperator:
    """Two decoupled channels: the free line, band [-2, 2], and on-site 2.5
    with hopping 0.01, band [2.48, 2.52], narrower than most grid steps."""
    return LineOperator(1, 2, {0: np.diag([0.0, 2.5]), 1: np.diag([1.0, 0.01])})


def narrow_band_graph() -> TailedGraph:
    """The narrow-band line with a well in both channels at one core site:
    bound states at -sqrt(5) and 2.5 - 0.01 sqrt(5), the second 0.0024
    below the narrow band."""
    def tail():
        return Tail(narrow_band_operator(), {(0, 0): np.diag([1.0, 0.01])}, origin=1)

    return TailedGraph({0: 2}, {(0, 0): np.diag([-1.0, 2.49])}, [tail(), tail()])


@pytest.mark.parametrize("samples", [24, 31, 61, 101])
def test_a_band_narrower_than_the_grid_step_is_found(samples):
    op = narrow_band_operator()
    cps = find_critical_points(op, -3, 3, samples)
    assert [cp.path for cp in cps] == [3, 3, 3, 3]
    for cp, edge in zip(cps, (-2.0, 2.0, 2.48, 2.52)):
        assert abs(cp.lam - edge) <= 1e-12
        assert cp.before == orc.channel_counts(op, cp.lam - 1e-6)
        assert cp.after == orc.channel_counts(op, cp.lam + 1e-6)
    scan = band_scan(narrow_band_graph(), -3, 3, samples)
    assert [cp.lam for cp in scan.criticals] == [cp.lam for cp in cps] * 2


@pytest.mark.parametrize("lo, hi, samples", [(2.05, 3.05, 11), (2.05, 2.95, 10), (2.05, 2.6, 61)])
def test_a_state_next_to_the_narrow_band_is_uncertain(lo, hi, samples):
    # the first two grids have no sample inside [2.48, 2.52]
    states = regular_discrete_spectrum(narrow_band_graph(), lo, hi, samples)
    assert [(round(st.lam, 12), st.uncertain) for st in states] == [
        (round(2.5 - 0.01 * math.sqrt(5.0), 12), True)]


def test_classify_command_reports_the_narrow_band(capsys):
    assert main(["classify", "--operator-file", NARROW, "--lo", "-3", "--hi", "3",
                 "--samples", "24"]) == 0
    cps = json.loads(capsys.readouterr().out)["critical_points"]
    assert [round(cp["lambda"], 12) for cp in cps] == [-2.0, 2.0, 2.48, 2.52]


CLOSE = str(Path(__file__).parent / "data" / "close_pair.json")


def close_pair_operator() -> LineOperator:
    """A random two-channel order-2 operator (the two-channel tail of the
    bench's ``sweep`` workload, seed 85, batch 80) whose counts change twice
    within 4.53e-8 near 3.69629: (1, 1, 1) -> (3, 0, 1) -> (1, 1, 1)."""
    return ex.random_line_operator(np.random.default_rng([85, 4, 80]), 2, 2)


@pytest.mark.parametrize("samples", [2, 24, 101])
def test_two_changes_5e_8_apart_are_both_found(samples):
    op = close_pair_operator()
    cps = find_critical_points(op, 3.6, 3.8, samples)
    assert [(cp.before, cp.after) for cp in cps] == [((1, 1, 1), (3, 0, 1)), ((3, 0, 1), (1, 1, 1))]
    assert abs(cps[0].lam - 3.696285946787507) <= 1e-12
    assert abs(cps[1].lam - 3.6962859920605595) <= 1e-12
    for cp in cps:
        assert cp.before == orc.channel_counts(op, cp.lam - 1e-8)
        assert cp.after == orc.channel_counts(op, cp.lam + 1e-8)


def test_classify_command_reports_the_close_pair(capsys):
    assert main(["classify", "--operator-file", CLOSE, "--lo", "3.6", "--hi", "3.8",
                 "--samples", "24"]) == 0
    cps = json.loads(capsys.readouterr().out)["critical_points"]
    assert len(cps) == 2 and 0 < cps[1]["lambda"] - cps[0]["lambda"] < 1e-7


def random_band_range(op) -> tuple[float, float]:
    """Lowest and highest band value, from eigvalsh of the symbol on 64 angles."""
    theta = np.linspace(0.0, np.pi, 64)
    shifts = np.arange(-op.k, op.k + 1)
    symbol = np.einsum("ts,sij->tij", np.exp(1j * theta[:, None] * shifts),
                       np.array([op.block(0, s) for s in shifts]))
    vals = np.linalg.eigvalsh(symbol)
    return float(vals.min()), float(vals.max())


def test_the_symbol_set_holds_every_bisected_point_of_random_operators():
    # 200 seeded operators, k in {1, 2} and l in {1, 2, 3}, scanned by the
    # bisection oracle at 201 samples over the band range widened by 3
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        op = ex.random_line_operator(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        lo, hi = random_band_range(op)
        got = find_critical_points(op, lo - 3, hi + 3, 201)
        lams = np.array([cp.lam for cp in got])
        want = orc.serial_critical_points(op, lo - 3, hi + 3, 201, tol=1e-12)
        for lam, before, after in want:
            near = int(np.argmin(np.abs(lams - lam)))
            assert abs(lams[near] - lam) <= 1e-10, (seed, lam)
            assert (got[near].before, got[near].after) == (before, after)
        for cp in got:
            if not any(abs(cp.lam - w[0]) <= 1e-10 for w in want):
                below = orc.channel_counts(op, cp.lam - 1e-6)
                assert below != orc.channel_counts(op, cp.lam + 1e-6), (seed, cp.lam)
        checked += len(want)
    assert checked > 1000


@pytest.mark.parametrize("c", [1e-13, 2.0**-40, 1e8])
def test_critical_points_scale_with_the_operator(c):
    # every tolerance is relative to max|B_s| and |lambda|: blocks times c
    # give the same counts at lambda times c
    for seed in range(10):
        rng = np.random.default_rng(seed)
        op = ex.random_line_operator(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        scaled = LineOperator(op.k, op.l, {s: c * op.block(0, s) for s in range(op.k + 1)})
        want = find_critical_points(op, -1e3, 1e3, 2)
        got = find_critical_points(scaled, -1e3 * c, 1e3 * c, 2)
        assert [(cp.before, cp.after) for cp in got] == [(cp.before, cp.after) for cp in want]
        for g, w in zip(got, want):
            assert abs(g.lam / c - w.lam) <= 1e-12 * max(1.0, abs(w.lam))


def test_a_turn_inside_the_band_is_refined_without_warnings():
    # lambda = 2 cos(2 theta) also turns at theta = pi / 2, where the
    # refinement meets the same zero slope twice; that must not divide 0 by 0
    op = LineOperator(2, 1, {2: [[1.0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cps = find_critical_points(op, -3, 3, 11)
    assert [cp.lam for cp in cps] == [-2.0, 2.0]
    for cp in cps:
        assert cp.before == orc.channel_counts(op, cp.lam - 1e-6)
        assert cp.after == orc.channel_counts(op, cp.lam + 1e-6)


def test_complex_blocks_have_no_critical_points():
    op = LineOperator(1, 1, {0: [[0.5]], 1: [[1.0 + 0.5j]]})
    with pytest.raises(DomainError, match="real blocks.*not Hermitian"):
        find_critical_points(op, -3, 3, 11)


def test_classify_reports_both_changes_inside_one_ladder_step(tmp_path):
    # two changes 2.7e-5 apart near -1.46 and two more near -0.87 and -0.74
    # each share a grid step of 0.3
    out = tmp_path / "classify.json"
    path = str(Path(__file__).parent / "data" / "ladder2.json")
    rc = main(["classify", "--operator-file", path, "--lo", "-6", "--hi", "6",
               "--samples", "41", "--output", str(out)])
    assert rc == 0
    cps = json.loads(out.read_text())["critical_points"]
    assert [cp["path"] for cp in cps] == [2, 3, 2, 3, 1, 3, 3]
    lams = [cp["lambda"] for cp in cps]
    assert lams == sorted(lams) and 0 < lams[1] - lams[0] < 1e-4
    for a, b in zip(cps, cps[1:]):
        assert a["after"] == b["before"]


@pytest.mark.parametrize("name", FIXTURES)
def test_spectrum_grid_matches_the_per_point_api(name):
    graph = FIXTURES[name]()
    for lo, hi in ((-6.0, -2.05), (2.05, 6.0)):
        grid = np.linspace(lo, hi, 61)
        batched = sc._junction_eigs(graph, grid)[0]
        per_point = np.vstack([sc._junction_eigs(graph, np.array([x]))[0] for x in grid])
        assert np.array_equal(np.isnan(batched), np.isnan(per_point))
        assert np.array_equal(np.sum(batched < 0, axis=1), np.sum(per_point < 0, axis=1))
        states = regular_discrete_spectrum(graph, lo, hi, 61)
        for st in states:
            if not st.singular:
                assert st.sigma_min <= 1e-8
