"""Command line entry points: exit codes, report files, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from swron import examples as ex
from swron.cli import main
from swron.complex_core import complex_to_json, save_complex
from swron.line_lattice import line_operator_from_json, line_operator_to_json
from swron.operators import operator_to_json
from swron.scattering import Tail, TailedGraph, save_tailed_graph, tailed_graph_to_json


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def circle_fixture(tmp_path):
    cx = ex.circle(8)
    cpath = tmp_path / "circle.json"
    save_complex(cx, str(cpath))
    op = ex.graph_laplacian(cx)
    opath = write_json(tmp_path / "laplacian.json", operator_to_json(op))
    return str(cpath), opath


def free_tail():
    return ex.free_tail()


def well_graph():
    attach = {(0, 0): [[1.0]]}
    return TailedGraph(
        {0: 1},
        {(0, 0): [[-1.0]]},
        [Tail(free_tail(), attach, origin=1), Tail(free_tail(), attach, origin=1)],
    )


def embedded_vertex_graph():
    """Two free tails on hub 0 and a core vertex 1, on-site 0.5, coupled to
    nothing: at lambda = 0.5 the junction kernel has one extra dimension."""
    tails = [Tail(free_tail(), {(0, 0): [[1.0]]}, origin=1) for _ in range(2)]
    return TailedGraph({0: 1, 1: 1}, {(1, 1): [[0.5]]}, tails)


def pure_line_graph():
    return TailedGraph(
        {},
        {},
        [Tail(free_tail(), {}, origin=1), Tail(free_tail(), {}, origin=0)],
        cross_links=[((0, 0), (1, 0), [[1.0]])],
    )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_swronskian_solve_passes(tmp_path):
    cpath, opath = circle_fixture(tmp_path)
    out = tmp_path / "report.json"
    rc = main([
        "swronskian", "--complex-file", cpath, "--operator-file", opath,
        "--solve", "--lambda", "0.5", "--output", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["max_boundary_residual"] <= 1e-9 * max(1.0, report["scale"])
    assert report["chain"]["edges"]
    assert report["seed"] == 0


def test_swronskian_reports_are_deterministic(tmp_path):
    cpath, opath = circle_fixture(tmp_path)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main([
            "swronskian", "--complex-file", cpath, "--operator-file", opath,
            "--solve", "--lambda", "0.5", "--seed", "3", "--output", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_swronskian_non_solution_pair_fails(tmp_path, capsys):
    # a pair that does not solve the equation breaks the cycle: exit 1
    cpath, opath = circle_fixture(tmp_path)
    psi = write_json(tmp_path / "psi.json",
                     {"values": {str(s): [1.0] for s in range(8)}})
    phi = write_json(tmp_path / "phi.json",
                     {"values": {str(s): [float(s) ** 2] for s in range(8)}})
    rc = main([
        "swronskian", "--complex-file", cpath, "--operator-file", opath,
        "--lambda", "0.0", "--psi-file", psi, "--phi-file", phi,
    ])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False


@pytest.mark.parametrize("value", [[1.0, 2.0], [[1.0, 0.5, 2.0]]], ids=["length", "not-a-pair"])
def test_swronskian_cochain_value_of_wrong_shape_exits_2(tmp_path, capsys, value):
    # an entry axis of length 3 is not [re, im]; it used to be read as one
    cpath, opath = circle_fixture(tmp_path)
    psi = write_json(tmp_path / "psi.json", {"values": {str(s): value for s in range(8)}})
    phi = write_json(tmp_path / "phi.json", {"values": {str(s): [1.0] for s in range(8)}})
    rc = main(["swronskian", "--complex-file", cpath, "--operator-file", opath,
               "--psi-file", psi, "--phi-file", phi])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"psi value at simplex 0 has shape {np.shape(value)}, operator expects (1,)" in err


def test_swronskian_missing_file_exits_2(tmp_path, capsys):
    cpath, _ = circle_fixture(tmp_path)
    rc = main([
        "swronskian", "--complex-file", cpath,
        "--operator-file", str(tmp_path / "nope.json"), "--solve",
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_directory_as_graph_file_is_an_input_error(tmp_path, capsys):
    rc = main(["scatter", "--graph-file", str(tmp_path), "--lambda", "0.5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_directory_as_output_is_an_input_error(tmp_path, capsys):
    gpath = tmp_path / "well.json"
    save_tailed_graph(well_graph(), str(gpath))
    rc = main(["scatter", "--graph-file", str(gpath), "--lambda", "0.5", "--output", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_swronskian_rejects_malformed_complex(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"wrong": []})
    _, opath = circle_fixture(tmp_path)
    rc = main([
        "swronskian", "--complex-file", bad, "--operator-file", opath, "--solve",
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_scatter_single_point(tmp_path):
    gpath = tmp_path / "well.json"
    save_tailed_graph(well_graph(), str(gpath))
    out = tmp_path / "s.json"
    rc = main([
        "scatter", "--graph-file", str(gpath), "--lambda", "0.7",
        "--output", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["s_matrix"] is not None
    assert report["unitarity_residual"] <= 1e-7
    assert report["symmetry_residual"] <= 1e-7
    assert report["flags"] == []


def test_scatter_names_an_unknown_cross_link_tail(tmp_path, capsys):
    data = json.loads((Path(__file__).parent / "data" / "well.json").read_text())
    data["cross_links"] = [{"from": [5, 0], "to": [0, 0], "matrix": [[0.5]]}]
    gpath = write_json(tmp_path / "well.json", data)
    rc = main(["scatter", "--graph-file", gpath, "--lambda", "0.5"])
    assert rc == 2
    assert capsys.readouterr().err == "error: cross link uses unknown tail 5\n"


def test_scatter_rejects_the_committed_repeated_link(capsys):
    # tests/data/repeated_link.json is the pure line with its one cross link
    # listed a second time, reversed; CI expects exit 2 on it
    gpath = str(Path(__file__).parent / "data" / "repeated_link.json")
    assert main(["scatter", "--graph-file", gpath, "--lambda", "0.5"]) == 2
    assert capsys.readouterr().err == "error: cross link between tail sites (1, 0) and (0, 0) appears twice\n"


def test_scatter_rejects_the_committed_negative_dimension(capsys):
    # tests/data/negative_dim.json gives core vertex 0 dimension -1, which
    # would empty vertex 1's rows and scatter as the bare half-line; CI
    # expects exit 2 on it
    gpath = str(Path(__file__).parent / "data" / "negative_dim.json")
    assert main(["scatter", "--graph-file", gpath, "--lambda", "0.5"]) == 2
    assert capsys.readouterr().err == "error: core vertex 0 has dimension -1, expected at least 1\n"


def test_nonlinear_rejects_the_committed_fractional_chart(capsys):
    # tests/data/fractional_chart.json is kicked16.json with "chart_dims": 1.5,
    # which used to run as chart dimension 1; CI expects exit 2 on it
    spath = str(Path(__file__).parent / "data" / "fractional_chart.json")
    assert main(["nonlinear", "--system-file", spath]) == 2
    assert capsys.readouterr().err == "error: chart dimension 1.5 at vertex 0, expected a whole number\n"


def test_nonlinear_names_a_fractional_chart_dimension_at_one_vertex(tmp_path, capsys):
    data = kicked_system_json()
    data["chart_dims"] = {"3": 1.7}
    assert main(["nonlinear", "--system-file", write_json(tmp_path / "frac.json", data)]) == 2
    assert "chart dimension 1.7 at vertex 3, expected a whole number" in capsys.readouterr().err


def test_nonlinear_rejects_chart_dims_off_the_graph(tmp_path, capsys):
    data = explicit_system_json()
    data["chart_dims"]["40"] = 1
    assert main(["nonlinear", "--system-file", write_json(tmp_path / "off.json", data)]) == 2
    assert "chart_dims names vertex 40, which is not in the graph" in capsys.readouterr().err


def test_scatter_has_no_depth_flag():
    gpath = str(Path(__file__).parent / "data" / "well.json")
    with pytest.raises(SystemExit) as exit_info:
        main(["scatter", "--graph-file", gpath, "--lambda", "0.5", "--depth", "3"])
    assert exit_info.value.code == 2


def test_scatter_critical_point_is_flagged(tmp_path, capsys):
    gpath = tmp_path / "well.json"
    save_tailed_graph(well_graph(), str(gpath))
    rc = main(["scatter", "--graph-file", str(gpath), "--lambda", "2.0"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["s_matrix"] is None
    assert "critical" in report["flags"]


def test_scatter_scan_writes_csv(tmp_path):
    gpath = tmp_path / "line.json"
    save_tailed_graph(pure_line_graph(), str(gpath))
    csv_path = tmp_path / "scan.csv"
    out = tmp_path / "scan.json"
    rc = main([
        "scatter", "--graph-file", str(gpath), "--lo", "-1.5", "--hi", "1.5",
        "--samples", "7",
        "--csv", str(csv_path), "--output", str(out),
    ])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 8
    assert lines[0].split(",")[:4] == ["lambda", "s", "p", "q"]
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 7
    assert report["open_intervals"] == [[-1.5, 1.5]]


def test_scatter_point_and_scan_share_one_exit_rule(capsys):
    # tests/data/embedded_vertex.json is CI's scan with a kernel-dim-mismatch row
    gpath = str(Path(__file__).parent / "data" / "embedded_vertex.json")
    assert main(["scatter", "--graph-file", gpath, "--lambda", "0.5"]) == 1
    assert "kernel-dim-mismatch" in json.loads(capsys.readouterr().out)["flags"]
    assert main(["scatter", "--graph-file", gpath, "--lo=-1.5", "--hi=1.5", "--samples", "7"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["lambda"] for row in rows if row["flags"]] == [0.5]
    assert rows[4]["flags"] == ["kernel-dim-mismatch"]


def test_scatter_needs_point_or_scan(tmp_path, capsys):
    gpath = tmp_path / "line.json"
    save_tailed_graph(pure_line_graph(), str(gpath))
    rc = main(["scatter", "--graph-file", str(gpath)])
    assert rc == 2
    rc = main(["scatter", "--graph-file", str(gpath), "--lo", "-1.0"])
    assert rc == 2


def test_spectrum_finds_well_state(tmp_path):
    gpath = tmp_path / "well.json"
    save_tailed_graph(well_graph(), str(gpath))
    out = tmp_path / "spec.json"
    rc = main([
        "spectrum", "--graph-file", str(gpath), "--lo", "-3.0", "--hi", "-2.01",
        "--samples", "60", "--output", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    states = report["bound_states"]
    assert len(states) == 1
    assert abs(states[0]["lambda"] + math.sqrt(5.0)) <= 1e-4
    assert not states[0]["uncertain"]
    assert not states[0]["singular"]


def test_spectrum_has_no_detection_threshold():
    gpath = str(Path(__file__).parent / "data" / "well.json")
    with pytest.raises(SystemExit) as exit_info:
        main(["spectrum", "--graph-file", gpath, "--lo=-3", "--hi=-2.05", "--detect-tol", "1e-8"])
    assert exit_info.value.code == 2


def test_spectrum_from_a_band_edge_finds_nothing(tmp_path, capsys):
    gpath = tmp_path / "line.json"
    save_tailed_graph(pure_line_graph(), str(gpath))
    assert main(["spectrum", "--graph-file", str(gpath), "--lo=-2", "--hi=0"]) == 0
    assert json.loads(capsys.readouterr().out)["bound_states"] == []


def test_classify_scan(tmp_path):
    opath = write_json(tmp_path / "free.json",
                       line_operator_to_json(ex.free_line_operator(1)))
    csv_path = tmp_path / "counts.csv"
    out = tmp_path / "classify.json"
    rc = main([
        "classify", "--operator-file", str(opath), "--lo", "-3.0", "--hi", "3.0",
        "--samples", "25", "--csv", str(csv_path), "--output", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["identity_holds"] is True
    assert report["kl"] == 1
    by_lam = {row["lambda"]: row for row in report["counts"]}
    assert (by_lam[-3.0]["s"], by_lam[-3.0]["p"], by_lam[-3.0]["q"]) == (0, 0, 1)
    assert (by_lam[0.0]["s"], by_lam[0.0]["p"], by_lam[0.0]["q"]) == (1, 0, 0)
    crit = sorted(cp["lambda"] for cp in report["critical_points"])
    assert len(crit) == 2
    assert abs(crit[0] + 2.0) <= 1e-6 and abs(crit[1] - 2.0) <= 1e-6
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 26
    assert lines[0] == "lambda,s,p,q,critical_flag"


def test_classify_rejects_varying_operator(tmp_path, capsys):
    data = line_operator_to_json(ex.free_line_operator(1))
    data["constant"] = False
    data["site_blocks"] = {"0": {"0": [[5.0]]}}
    opath = write_json(tmp_path / "vary.json", data)
    rc = main([
        "classify", "--operator-file", str(opath), "--lo", "-1.0", "--hi", "1.0",
    ])
    assert rc == 2
    assert "constant" in capsys.readouterr().err


def test_direct_image_ladder(tmp_path):
    # tests/data/ladder_cover.json is the cover CI repacks through the CLI
    cover = {
        "orbits": [0, 1],
        "edges": [[0, 0, 1], [1, 1, 1], [0, 1, 0]],
        "vec_dim": 1,
        "blocks": [
            {"from": 0, "to": 0, "shift": 1, "matrix": [[-1.0]]},
            {"from": 1, "to": 1, "shift": 1, "matrix": [[-1.0]]},
            {"from": 0, "to": 1, "shift": 0, "matrix": [[-1.0]]},
            {"from": 0, "to": 0, "shift": 0, "matrix": [[3.0]]},
            {"from": 1, "to": 1, "shift": 0, "matrix": [[3.0]]},
        ],
    }
    path = Path(__file__).parent / "data" / "ladder_cover.json"
    assert json.loads(path.read_text()) == cover
    cpath = str(path)
    out = tmp_path / "di.json"
    tcsv = tmp_path / "t.csv"
    rc = main([
        "direct-image", "--cover-file", cpath, "--output", str(out),
        "--transfer-csv", str(tcsv), "--lambda", "0.0",
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["commutation_gap"] == 0.0
    assert report["line_operator"]["l"] == 2
    assert report["offsets"] == {"0": 0, "1": 0}
    assert tcsv.read_text().startswith("lambda_re")


def test_direct_image_complex_cover_block(tmp_path):
    # cover blocks go through the [re, im] decoder, as direct_image allows
    cover = {
        "orbits": [0, 1],
        "edges": [[0, 0, 1], [1, 1, 1], [0, 1, 0]],
        "blocks": [
            {"from": 0, "to": 0, "shift": 1, "matrix": [[-1.0]]},
            {"from": 1, "to": 1, "shift": 1, "matrix": [[-1.0]]},
            {"from": 0, "to": 1, "shift": 0, "matrix": [[[-1.0, 0.5]]]},
        ],
    }
    out = tmp_path / "di.json"
    rc = main(["direct-image", "--cover-file", write_json(tmp_path / "c.json", cover),
               "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["commutation_gap"] == 0.0
    line = line_operator_from_json(report["line_operator"])
    assert np.array_equal(line.block(0, 0), [[0, -1 + 0.5j], [-1 + 0.5j, 0]])


def test_direct_image_rejects_bad_cover(tmp_path, capsys):
    cpath = write_json(tmp_path / "bad.json", {"orbits": [0], "edges": []})
    rc = main(["direct-image", "--cover-file", cpath])
    assert rc == 2


def test_direct_image_rejects_a_repeated_cover_block(tmp_path, capsys):
    # a second block for one (from, to, shift) would replace the first
    cover = json.loads((Path(__file__).parent / "data" / "ladder_cover.json").read_text())
    cover["blocks"].append({**cover["blocks"][0], "matrix": [[5.0]]})
    rc = main(["direct-image", "--cover-file", write_json(tmp_path / "c.json", cover)])
    assert rc == 2
    assert capsys.readouterr().err == "error: cover block (from, to, shift) (0, 0, 1) appears twice\n"


def kicked_system_json(n=16, kick=0.4):
    psi = {0: 0.2, 1: 0.5}
    for v in range(1, n):
        psi[v + 1] = 2.0 * psi[v] - psi[v - 1] - kick * math.sin(psi[v])
    d1 = {0: 1.0, 1: 0.0}
    d2 = {0: 0.0, 1: 1.0}
    for d in (d1, d2):
        for v in range(1, n):
            c = 2.0 - kick * math.cos(psi[v])
            d[v + 1] = c * d[v] - d[v - 1]
    return {
        "graph": {"simplices": [[v, v + 1] for v in range(n)]},
        "builder": "translation-invariant",
        "density": {"name": "standard-map", "params": {"kick": kick}},
        "allow_ends": True,
        "configuration": {str(v): [x] for v, x in psi.items()},
        "interior": list(range(1, n)),
        "variations": [
            {str(v): [x] for v, x in d1.items()},
            {str(v): [x] for v, x in d2.items()},
        ],
    }


def test_nonlinear_variational_report(tmp_path):
    spath = write_json(tmp_path / "kicked.json", kicked_system_json())
    out = tmp_path / "nl.json"
    rc = main(["nonlinear", "--system-file", spath, "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["max_el_residual"] <= 1e-10
    vals = [complex(re, im) for re, im in report["chain"]["edges"].values()]
    assert all(abs(v - vals[0]) <= 1e-9 for v in vals)


DATA = Path(__file__).parent / "data"
TOLERANCE_RUNS = {
    "--kernel-tol": ["nonlinear", "--system-file", str(DATA / "kicked16.json")],
    "--residual-tol": ["scatter", "--graph-file", str(DATA / "well.json"), "--lambda", "0.5"],
    "--tol-rel": ["swronskian", "--complex-file", str(DATA / "torus7.json"),
                  "--operator-file", str(DATA / "torus7_operator.json"), "--solve"],
}


@pytest.mark.parametrize("flag", list(TOLERANCE_RUNS))
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_a_tolerance_that_is_not_finite_or_is_negative_exits_2(flag, value, capsys):
    assert main(TOLERANCE_RUNS[flag] + [f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {float(value)!r} is not a finite number >= 0\n"


@pytest.mark.parametrize("flag", list(TOLERANCE_RUNS))
def test_a_zero_tolerance_is_accepted(flag, capsys):
    assert main(TOLERANCE_RUNS[flag] + [f"{flag}=0"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)


def test_nonlinear_stationarity_only(tmp_path, capsys):
    data = kicked_system_json()
    del data["variations"]
    spath = write_json(tmp_path / "sys.json", data)
    rc = main(["nonlinear", "--system-file", spath])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["linearization"]["warning"] is None
    assert report["linearization"]["symmetric"] is True


def test_nonlinear_requires_configuration(tmp_path, capsys):
    data = kicked_system_json()
    del data["configuration"]
    spath = write_json(tmp_path / "sys.json", data)
    rc = main(["nonlinear", "--system-file", spath])
    assert rc == 2


def test_nonlinear_rejects_non_finite_input(tmp_path, capsys):
    data = kicked_system_json()
    data["configuration"]["8"] = [float("nan")]
    rc = main(["nonlinear", "--system-file", write_json(tmp_path / "nan.json", data)])
    assert rc == 2
    assert "configuration is not finite at vertex 8" in capsys.readouterr().err
    data = kicked_system_json()
    data["variations"][1]["3"] = [float("inf")]
    rc = main(["nonlinear", "--system-file", write_json(tmp_path / "inf.json", data)])
    assert rc == 2
    assert "variations[1] is not finite at vertex 3" in capsys.readouterr().err


def test_nonlinear_names_a_ragged_configuration_value(tmp_path, capsys):
    data = kicked_system_json()
    data["configuration"]["5"] = [[0.1], [0.2, 0.3]]
    rc = main(["nonlinear", "--system-file", write_json(tmp_path / "ragged.json", data)])
    assert rc == 2
    assert "configuration value at vertex 5 is not a vector of numbers" in capsys.readouterr().err


def test_nonlinear_rejects_dunder_expression(tmp_path, capsys):
    data = kicked_system_json()
    expr = "().__class__.__base__.__subclasses__().__len__() + 0*x0"
    data["density"] = {"name": "expression", "nvars": 2, "expr": expr}
    rc = main(["nonlinear", "--system-file", write_json(tmp_path / "escape.json", data)])
    assert rc == 2
    assert "private name '__len__'" in capsys.readouterr().err


@pytest.mark.parametrize("call", ["np.savetxt({path!r}, [x0])", "np.load({path!r})"])
def test_nonlinear_rejects_file_access_in_expressions(tmp_path, capsys, call):
    leak = tmp_path / "leak.txt"
    data = kicked_system_json()
    data["density"] = {"name": "expression", "nvars": 2,
                       "expr": f"({call.format(path=str(leak))} or 0) + x0"}
    rc = main(["nonlinear", "--system-file", write_json(tmp_path / "io.json", data)])
    assert rc == 2
    assert "may not use 'np." in capsys.readouterr().err
    assert not leak.exists()


def test_nonlinear_committed_fixture(capsys):
    # tests/data/kicked16.json is the system that CI runs through the CLI
    path = Path(__file__).parent / "data" / "kicked16.json"
    assert json.loads(path.read_text()) == kicked_system_json()
    assert main(["nonlinear", "--system-file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_nonlinear_empty_interior_is_the_empty_set(tmp_path, capsys):
    # only an absent "interior" means every vertex; at no vertex every
    # variation is a kernel variation and the residual is empty
    data = kicked_system_json()
    data["interior"] = []
    rc = main(["nonlinear", "--system-file", write_json(tmp_path / "none.json", data)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_el_residual"] == 0.0 and report["passed"] is True


def explicit_system_json(expression_edge=None):
    """kicked_system_json without its builder: one standard-map interaction
    per edge, the one at ``expression_edge`` given as an expression, and
    chart dimensions as a map."""
    data = kicked_system_json()
    del data["builder"], data["variations"]
    density = data.pop("density")
    edges = data["graph"]["simplices"]
    expr = {"name": "expression", "nvars": 2, "expr": "0.5 * (x0 - x1) ** 2 + 0.4 * math.cos(x0)"}
    data["interactions"] = [{"vertices": e, "density": expr if i == expression_edge else density}
                            for i, e in enumerate(edges)]
    data["chart_dims"] = {str(v): 1 for v in range(len(edges) + 1)}
    return data


def test_nonlinear_explicit_interactions_load_like_the_builder(tmp_path, capsys):
    data = kicked_system_json()
    del data["variations"]
    assert main(["nonlinear", "--system-file", write_json(tmp_path / "built.json", data)]) == 0
    built = capsys.readouterr().out
    assert main(["nonlinear", "--system-file", write_json(tmp_path / "explicit.json", explicit_system_json())]) == 0
    assert capsys.readouterr().out == built
    # one interaction as an expression: finite-difference derivatives
    path = write_json(tmp_path / "expr.json", explicit_system_json(expression_edge=7))
    assert main(["nonlinear", "--system-file", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["uses_fd"] is True and report["max_el_residual"] <= 1e-6
    assert report["linearization"]["symmetric"] is True


@pytest.mark.parametrize("field, value, want", [
    ("builder", "triangle-fan", "unknown builder 'triangle-fan'"),
    ("density", {"name": "quartic"}, "unknown density 'quartic'"),
])
def test_nonlinear_names_an_unknown_builder_or_density(tmp_path, capsys, field, value, want):
    data = kicked_system_json()
    data[field] = value
    assert main(["nonlinear", "--system-file", write_json(tmp_path / "bad.json", data)]) == 2
    assert want in capsys.readouterr().err


def test_swronskian_committed_torus_fixture(capsys):
    # tests/data/torus7*.json is the operator CI solves through the CLI
    data = Path(__file__).parent / "data"
    cx = ex.torus_complex()
    op = ex.random_operator(np.random.default_rng(3), cx, vec_dim=1, max_steps=1)
    assert json.loads((data / "torus7.json").read_text()) == complex_to_json(cx)
    assert json.loads((data / "torus7_operator.json").read_text()) == operator_to_json(op)
    assert main(["swronskian", "--complex-file", str(data / "torus7.json"),
                 "--operator-file", str(data / "torus7_operator.json"), "--solve"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_tailed_graph_committed_well_fixture(capsys):
    # tests/data/well.json is the tailed graph CI scatters through the CLI
    path = Path(__file__).parent / "data" / "well.json"
    assert json.loads(path.read_text()) == tailed_graph_to_json(ex.potential_line(1.0))
    assert main(["scatter", "--graph-file", str(path), "--lambda", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["s_matrix"] is not None
    assert main(["spectrum", "--graph-file", str(path), "--lo", "-3", "--hi", "-2.05",
                 "--samples", "61"]) == 0
    (state,) = json.loads(capsys.readouterr().out)["bound_states"]
    assert abs(state["lambda"] + math.sqrt(5.0)) <= 1e-6


def test_large_well_fixture_refines_to_an_end(capsys):
    # tests/data/well_1e8.json, the well with every block times 1e8, is the graph CI
    # refines at large lambda through the CLI
    data = Path(__file__).parent / "data"
    big = (data / "well_1e8.json").read_text()
    assert json.loads(big) == json.loads((data / "well.json").read_text(),
                                         parse_float=lambda x: 1e8 * float(x))
    assert main(["spectrum", "--graph-file", str(data / "well_1e8.json"), "--lo=-4e8",
                 "--hi=-2.05e8", "--samples", "61"]) == 0
    (state,) = json.loads(capsys.readouterr().out)["bound_states"]
    assert abs(state["lambda"] / 1e8 + math.sqrt(5.0)) <= 1e-9


def test_verify_all_suites_pass(capsys):
    rc = main(["verify", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "invariants hold" in out
    assert "FAIL" not in out


def test_verify_single_suite_with_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--suite", "swronskian", "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["results"]
    assert all(r["passed"] for r in report["results"])
    assert all(r["suite"] == "swronskian" for r in report["results"])


def test_verify_reads_the_committed_torus_complex(capsys, monkeypatch):
    import swron.complex_core as cc

    read, real = [], cc.load_complex
    monkeypatch.setattr(cc, "load_complex", lambda path: read.append(path) or real(path))
    path = str(Path(__file__).parent / "data" / "torus7.json")
    assert main(["verify", "--complex-file", path]) == 0
    assert read == [path]
    assert "FAIL" not in capsys.readouterr().out


def two_channel_line_operator():
    """The order-2, two-channel line operator of tests/data/ladder2.json."""
    blocks = {0: [[0.5, -0.3], [-0.3, -0.2]], 1: [[-1.0, 0.2], [0.4, -0.8]],
              2: [[0.3, 0.1], [-0.1, 0.25]]}
    return line_operator_from_json(
        {"k": 2, "l": 2, "blocks": {str(s): m for s, m in blocks.items()}})


def test_verify_runs_line_suites_on_the_committed_line_operator(capsys):
    path = Path(__file__).parent / "data" / "ladder2.json"
    assert json.loads(path.read_text()) == line_operator_to_json(two_channel_line_operator())
    rc = main(["verify", "--suite", "symplectic", "--suite", "classification",
               "--operator-file", str(path)])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL" not in out
    assert "[symplectic]" in out and "[classification]" in out
    # a supplied operator replaces the three random symplectic trials
    assert "pair form determinant #0" in out and "#1" not in out


def test_verify_rejects_a_block_operator_file(capsys):
    path = Path(__file__).parent / "data" / "torus7_operator.json"
    assert main(["verify", "--operator-file", str(path)]) == 2
    assert "line operator JSON lacks field 'k'" in capsys.readouterr().err


def test_nonlinear_names_a_value_of_the_wrong_length(tmp_path, capsys):
    data = json.loads((Path(__file__).parent / "data" / "kicked16.json").read_text())
    data["configuration"]["5"] = [0.1, 0.2]
    rc = main(["nonlinear", "--system-file", write_json(tmp_path / "long.json", data)])
    assert rc == 2
    assert "psi value at vertex 5 has 2 entries, expected 1" in capsys.readouterr().err


def test_nonlinear_ring_order4_fixture(capsys):
    # tests/data/ring_order4.json is CI's CLI run of a three-slot expression
    # density on circle(8) (finite differences, three interactions per vertex)
    path = Path(__file__).parent / "data" / "ring_order4.json"
    assert main(["nonlinear", "--system-file", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_el_residual"] == 0.0
    assert report["linearization"] == {"order": 4, "symmetric": True, "uses_fd": True, "warning": None}
