"""Lambda grids: argument checks, classification margins, and agreement of
the batched grid path with the per-point API and with independent oracles."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
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


def test_classify_command_rejects_reversed_interval(tmp_path, capsys):
    opath = tmp_path / "free.json"
    opath.write_text(json.dumps(line_operator_to_json(ex.free_line_operator(1))))
    rc = main(["classify", "--operator-file", str(opath), "--lo", "3", "--hi", "-3"])
    assert rc == 2
    assert "needs lo < hi, got lo=3.0 and hi=-3.0" in capsys.readouterr().err


def test_classify_command_classifies_its_grid_once(tmp_path, monkeypatch):
    import swron.cli as cli

    grids, real = [], sc._classify_grid

    def spy(op, lams):
        grids.append(len(lams))
        return real(op, lams)

    monkeypatch.setattr(cli, "_classify_grid", spy)
    monkeypatch.setattr(sc, "_classify_grid", spy)
    opath = tmp_path / "free.json"
    opath.write_text(json.dumps(line_operator_to_json(ex.free_line_operator(1))))
    out = tmp_path / "report.json"
    assert main(["classify", "--operator-file", str(opath), "--lo", "-3", "--hi", "3",
                 "--samples", "25", "--output", str(out)]) == 0
    assert grids.count(25) == 1 and max(grids[1:]) == 2  # then one stack per bisection step
    assert len(json.loads(out.read_text())["critical_points"]) == 2


def test_grid_sample_minimum_messages():
    with pytest.raises(DomainError, match="need at least two grid samples"):
        find_critical_points(ex.free_line_operator(1), -3, 3, 1)
    with pytest.raises(DomainError, match="need at least three grid samples"):
        regular_discrete_spectrum(ex.potential_line(1.0), -3.5, -2.1, 2)


# -- classification margins -----------------------------------------------------------


def test_classification_margins_on_the_free_line():
    op = ex.free_line_operator(1)
    # mu = lam/2 +- i sqrt(1 - lam^2/4): the pair splits by sqrt(4 - lam^2)
    edge = classify_monodromy(transfer_map(op, 2 - 1e-13, 0))
    assert edge.critical and edge.critical_reason == "eigenvalue-collision"
    assert edge.min_gap < sc.CRITICAL_GAP and edge.unit_gap < sc.CRITICAL_GAP
    assert edge.min_gap == pytest.approx(math.sqrt(4e-13), rel=0.1)
    assert edge.unit_gap == pytest.approx(math.sqrt(4e-13) / 2, rel=0.1)
    inside = classify_monodromy(transfer_map(op, 1.9, 0))
    assert not inside.critical
    assert inside.min_gap == pytest.approx(math.sqrt(4 - 1.9**2), rel=1e-12)
    assert inside.unit_gap == pytest.approx(math.sqrt(2 - 1.9), rel=1e-12)
    assert inside.min_gap > 1e5 * sc.CRITICAL_GAP


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


def serial_critical_points(op, lo, hi, samples, tol=1e-8):
    """The per-point bisection: one transfer_map and classify_monodromy per
    grid point and per step, each crossing refined on its own.  An unflagged
    midpoint with counts matching neither end holds a second change, and
    both halves are refined."""
    grid = np.linspace(lo, hi, samples)
    counts = [classify_monodromy(transfer_map(op, float(x), 0)).counts() for x in grid]

    def refine(la, lb, before, after):
        while lb - la > tol:
            mid = 0.5 * (la + lb)
            cm = classify_monodromy(transfer_map(op, mid, 0))
            if not cm.critical and cm.counts() not in (before, after):
                return refine(la, mid, before, cm.counts()) + refine(mid, lb, cm.counts(), after)
            if not cm.critical and cm.counts() == before:
                la = mid
            else:
                lb = mid
        return [(0.5 * (la + lb), before, after)]

    out = []
    for i in range(samples - 1):
        if counts[i] != counts[i + 1]:
            out += refine(float(grid[i]), float(grid[i + 1]), counts[i], counts[i + 1])
    return out


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
        want += serial_critical_points(tail.op, -2.6, 2.6, 23)
    got = [(cp.lam, cp.before, cp.after) for cp in scan.criticals]
    assert len(got) == len(want)
    for (a, *ca), (b, *cb) in zip(got, want):
        assert abs(a - b) <= 1e-12 and ca == cb


def assert_free_line_edges(op, criticals):
    """Exactly the band edges -2 and 2, with the oracle's counts on each side."""
    assert len(criticals) == 2
    for cp, edge in zip(criticals, (-2.0, 2.0)):
        assert abs(cp.lam - edge) <= 1e-8
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
    # 24 samples put both in one grid step, 61 put -8 on the grid
    op = LineOperator(2, 1, {1: [[5.0]], 2: [[1.0]]})
    cps = find_critical_points(op, -12, 12, samples)
    assert [(cp.path, cp.spectrum_neutral) for cp in cps] == [(1, True), (3, False)]
    for cp, edge in zip(cps, (-8.25, -8.0)):
        assert abs(cp.lam - edge) <= 1e-8
        assert cp.before == orc.channel_counts(op, cp.lam - 1e-6)
        assert cp.after == orc.channel_counts(op, cp.lam + 1e-6)


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
