"""JSON report assembly: determinism, numpy conversion, file output."""

import json

import numpy as np

import rbgroups as rb
from rbgroups.reports import (RunConfig, emit, group_block, operator_block,
                              render, to_jsonable, tool_block)


def test_run_config_block_drops_out():
    cfg = RunConfig(cap_order=9, out="/tmp/x.json")
    assert cfg.block() == {"cap_order": 9}


def test_tool_block():
    b = tool_block()
    assert b["name"] == "rbgroups"
    assert b["version"] == rb.__version__


def test_group_block():
    G = rb.named_group("symmetric:3")
    b = group_block(G, ref="symmetric:3")
    assert b["order"] == 6
    assert b["ref"] == "symmetric:3"
    assert len(b["fingerprint"]) == 16


def test_operator_block_roundtrips_json():
    G = rb.named_group("cyclic:4")
    op = rb.trivial_inv(G)
    b = operator_block(op)
    json.dumps(b)                      # must be serializable as-is
    assert b["images"] == [0, 3, 2, 1]


def test_to_jsonable_handles_numpy():
    data = {"a": np.int64(3), "b": np.array([1, 2]), "c": (np.bool_(True),),
            "d": np.float64(0.5), "e": {"k": np.arange(2)}}
    out = to_jsonable(data)
    assert json.loads(json.dumps(out)) == {"a": 3, "b": [1, 2], "c": [True],
                                           "d": 0.5, "e": {"k": [0, 1]}}


def test_render_sorted_and_stable():
    payload = {"z": 1, "a": {"y": 2, "b": 3}}
    one = render(payload)
    two = render(payload)
    assert one == two
    assert one.index('"a"') < one.index('"z"')
    assert one.endswith("\n")


def test_emit_to_file(tmp_path):
    target = tmp_path / "report.json"
    emit({"x": 1}, str(target))
    assert json.loads(target.read_text()) == {"x": 1}


def test_emit_to_stdout(capsys):
    emit({"x": 2}, None)
    assert json.loads(capsys.readouterr().out) == {"x": 2}
