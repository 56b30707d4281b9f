"""The one JSON file format: committed fixtures byte for byte, save/load
round trips of every saver, and reports on stdout equal to reports in files."""

import re
from pathlib import Path

import numpy as np
import pytest

from swron import examples as ex
from swron.complex_core import DomainError, _write_json, save_complex
from swron.line_lattice import LineOperator, load_line_operator, save_line_operator
from swron.operators import DiscreteOperator, _matrix_from_json, load_operator, save_operator
from swron.scattering import save_tailed_graph, tailed_graph_from_json, tailed_graph_to_json
from test_cli import embedded_vertex_graph
from test_grids import close_pair_operator
from test_scattering import two_channel_graph

DATA = Path(__file__).parent / "data"


def test_savers_reproduce_committed_fixtures(tmp_path):
    cx = ex.torus_complex()
    op = ex.random_operator(np.random.default_rng(3), cx, vec_dim=1, max_steps=1)
    save_complex(cx, str(tmp_path / "torus7.json"))
    save_operator(op, str(tmp_path / "torus7_operator.json"))
    save_tailed_graph(ex.potential_line(1.0), str(tmp_path / "well.json"))
    save_tailed_graph(two_channel_graph(), str(tmp_path / "two_channel.json"))
    save_line_operator(close_pair_operator(), str(tmp_path / "close_pair.json"))
    save_tailed_graph(embedded_vertex_graph(), str(tmp_path / "embedded_vertex.json"))
    names = ("torus7.json", "torus7_operator.json", "well.json", "two_channel.json", "close_pair.json",
             "embedded_vertex.json")
    for name in names:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_decoder_reads_one_trailing_pair_axis_as_complex():
    assert np.array_equal(_matrix_from_json([[[1.0, 2.0]]]), [[1 + 2j]])
    assert np.array_equal(_matrix_from_json([[1.0, 2.0]], ndim=1), [1 + 2j])
    # a real matrix or vector, and a trailing axis that is not a pair, stay as read
    assert _matrix_from_json([[1.0, 2.0]]).dtype == float
    assert _matrix_from_json([1.0, 2.0], ndim=1).dtype == float
    assert _matrix_from_json([[[1.0, 2.0, 3.0]]]).shape == (1, 1, 3)


def complex_operator() -> DiscreteOperator:
    cx = ex.interval(1)
    a, b = cx.vertex_sid(0), cx.vertex_sid(1)
    return DiscreteOperator(cx, 1, {(a, b): [[1 + 2j]], (b, a): [[1 + 2j]], (a, a): [[0.5]]})


@pytest.mark.parametrize("op", [
    ex.random_operator(np.random.default_rng(4), ex.circle(6), vec_dim=2, max_steps=1),
    complex_operator(),
], ids=["real", "complex"])
def test_operator_save_load_roundtrip(tmp_path, op):
    path = tmp_path / "op.json"
    save_operator(op, str(path))
    back = load_operator(str(path), op.complex)
    assert set(back.blocks) == set(op.blocks)
    for key, m in op.blocks.items():
        assert back.blocks[key].dtype == m.dtype
        assert np.array_equal(back.blocks[key], m)
    save_operator(back, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("op", [
    ex.random_line_operator(np.random.default_rng(11), 2, 2, n_site_terms=2),
    LineOperator(1, 1, {0: [[0.5]], 1: [[1.0 + 0.25j]]}),
], ids=["real", "complex"])
def test_line_operator_save_load_roundtrip(tmp_path, op):
    path = tmp_path / "line.json"
    save_line_operator(op, str(path))
    back = load_line_operator(str(path))
    assert (back.k, back.l, back.constant) == (op.k, op.l, op.constant)
    for n in range(-3, 4):
        for s in range(-op.k, op.k + 1):
            assert back.block(n, s).dtype == op.block(n, s).dtype
            assert np.array_equal(back.block(n, s), op.block(n, s))
    save_line_operator(back, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_report_on_stdout_matches_report_file(tmp_path, capsys):
    report = {"z": [1.5, -0.0, 1e-300], "a": {"y": True, "b": None}, "m": "text"}
    _write_json(report, None)
    printed = capsys.readouterr().out
    _write_json(report, str(tmp_path / "r.json"))
    written = (tmp_path / "r.json").read_bytes()
    assert printed.encode() == written
    assert written.endswith(b"}\n") and written.index(b'"a"') < written.index(b'"z"')


def test_a_fractional_tail_origin_is_named_on_load():
    # int() truncated it: an "origin" of 2.5 loaded as 2
    data = tailed_graph_to_json(ex.potential_line(1.0))
    data["tails"][1]["origin"] = 2.5
    with pytest.raises(DomainError, match=re.escape("tail 1 has origin 2.5, expected a whole number")):
        tailed_graph_from_json(data)
    data["tails"][1]["origin"] = 2.0
    assert tailed_graph_from_json(data).tails[1].origin == 2
