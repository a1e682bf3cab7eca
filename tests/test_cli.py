import json
import os
import subprocess
import sys

import pytest

from polyshallow.cli import main


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_generate_then_falsify_empty(tmp_path):
    inst = tmp_path / "inst.json"
    code = main(["generate", "thm2", "--m", "12", "--out", str(inst)])
    assert code == 0
    code, doc = run_cli(tmp_path, "falsify", "thm2", "--instance", str(inst),
                        "--set", "empty")
    assert code == 0 and doc["kind"] == "zero-hit" and len(doc["edge"]) == 12


def test_capture_example(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(
        {"format": 1, "dim": 2, "points": [[0, 0], [1, 2], [2, 1]]}))
    code, doc = run_cli(tmp_path, "capture", "--family", "bottomless",
                        "--points", str(p), "--exact", "3")
    assert code == 0 and doc["edges"] == [[0, 1, 2]]


def test_solve_color_unsat(tmp_path):
    h = tmp_path / "k3.json"
    h.write_text(json.dumps({"format": 1, "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    code, doc = run_cli(tmp_path, "solve-color", "--hypergraph", str(h), "--k", "2")
    assert code == 0 and doc["status"] == "UNSAT"


def test_budget_exhaustion_exit_code(tmp_path):
    h = tmp_path / "big.json"
    edges = [[i, i + 1, i + 2] for i in range(28)]
    h.write_text(json.dumps({"format": 1, "n": 30, "edges": edges}))
    code, doc = run_cli(tmp_path, "solve-color", "--hypergraph", str(h),
                        "--k", "3", "--budget-nodes", "1")
    assert code == 3 and doc["status"] == "BUDGET_EXHAUSTED"


@pytest.mark.parametrize("flag, value", [("--budget-nodes", "-5"), ("--budget-millis", "-3")])
def test_negative_budget_exit_code(tmp_path, capsys, flag, value):
    h = tmp_path / "k3.json"
    h.write_text(json.dumps({"format": 1, "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    code, doc = run_cli(tmp_path, "solve-hitting", "--hypergraph", str(h), "--c", "1",
                        flag, value)
    assert code == 2 and doc is None
    assert capsys.readouterr().err == "error: budget limits must be non-negative\n"


def test_validation_error_exit_code(tmp_path):
    code = main(["capture", "--family", "nonsense", "--points", "missing.json"])
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"format": 1, "n": 3, "edges": [1, 2]},
    {"format": 1, "n": "3", "edges": [[0, 1]]},
    [1, 2],
    {"format": 1, "n": 3, "edges": [[0, 1.5]]},
], ids=["edges-not-lists", "n-not-int", "not-an-object", "vertex-not-int"])
def test_malformed_hypergraph_exit_code(tmp_path, capsys, doc):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(doc))
    code, out = run_cli(tmp_path, "solve-hitting", "--hypergraph", str(h), "--c", "1")
    assert code == 2 and out is None
    assert capsys.readouterr().err.startswith("error: ")


def test_witness_thm3_and_thm5(tmp_path):
    code, doc = run_cli(tmp_path, "witness", "thm3", "--k", "3",
                        "--coloring", "random", "--seed", "11")
    assert code == 0 and doc["kind"] == "missing-color" and len(doc["edge"]) == 4
    code, doc = run_cli(tmp_path, "witness", "thm5", "--k", "2",
                        "--coloring", "random", "--seed", "11")
    assert code == 0 and len(doc["edge"]) == 3


def test_seed_determinism(tmp_path):
    _, a = run_cli(tmp_path, "witness", "thm3", "--k", "4",
                   "--coloring", "random", "--seed", "3")
    _, b = run_cli(tmp_path, "witness", "thm3", "--k", "4",
                   "--coloring", "random", "--seed", "3")
    assert a == b
    _, c = run_cli(tmp_path, "witness", "thm3", "--k", "4",
                   "--coloring", "random", "--seed", "4")
    assert a != c  # different campaign


def test_roundtrip_byte_identical(tmp_path):
    from polyshallow import formats
    from polyshallow.constructions import build_cross_lb

    inst = build_cross_lb(3)
    doc = formats.instance_doc(inst)
    text = formats.dumps(doc)
    again = formats.dumps(formats.instance_doc(formats.instance_from(json.loads(text))))
    assert text == again
    # hypergraph and points round trips
    from polyshallow.core import Hypergraph
    h = Hypergraph.from_edges(4, [[1, 0], [2, 3]])
    t1 = formats.dumps(formats.hypergraph_doc(h))
    t2 = formats.dumps(formats.hypergraph_doc(formats.hypergraph_from(json.loads(t1))))
    assert t1 == t2


def test_ap_and_embed_subcommands(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "format": 1, "generator": {"kind": "powers", "params": [2]},
        "M": [0], "mode": "finite"}))
    code, doc = run_cli(tmp_path, "ap", "--spec", str(spec), "--vertices", "1..6")
    assert code == 0
    labels = doc["labels"]
    idx = {v: i for i, v in enumerate(labels)}
    assert sorted([idx[2], idx[4]]) in [sorted(e) for e in doc["edges"]]
    code, doc = run_cli(tmp_path, "embed", "--map", "powers-bottomless",
                        "--vertices", "0..10", "--t", "2", "--M", "0")
    assert code == 0 and len(doc["points"]) == 11


def test_verify_embedding_subcommand(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "format": 1, "generator": {"kind": "powers", "params": [2]},
        "M": [0], "mode": "finite"}))
    code, apdoc = run_cli(tmp_path, "ap", "--spec", str(spec), "--vertices", "0..15")
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"format": 1, "n": apdoc["n"], "edges": apdoc["edges"]}))
    code, embdoc = run_cli(tmp_path, "embed", "--map", "powers-bottomless",
                           "--vertices", "0..15", "--t", "2", "--M", "0")
    pfile = tmp_path / "pts.json"
    pfile.write_text(json.dumps({"format": 1, "dim": 2, "points": embdoc["points"]}))
    cfile = tmp_path / "corr.json"
    cfile.write_text(json.dumps({"format": 1, "correspondence": embdoc["correspondence"]}))
    code, rep = run_cli(tmp_path, "verify-embedding",
                        "--hypergraph", str(hfile),
                        "--labels", json.dumps(apdoc["labels"]),
                        "--points", str(pfile), "--family", "bottomless",
                        "--correspondence", str(cfile))
    assert code == 0 and rep["status"] == "all-preserved"


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "polyshallow.cli", "min-c", "--hypergraph", "/dev/null"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2  # validation error on bad input


def test_stray_poly_threads_value_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("POLY_THREADS", "abc")
    code = main(["generate", "thm2", "--m", "12", "--out", str(tmp_path / "inst.json")])
    assert code == 0


def test_unknown_family_is_a_validation_error(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"format": 1, "dim": 2, "points": [[0, 0]]}))
    code, _ = run_cli(tmp_path, "capture", "--family", "squares", "--points", str(p))
    assert code == 2


@pytest.mark.parametrize("name, doc, argv", [
    ("p.json", {"format": 1, "dim": 2, "points": [[0, None], [1, 2]]},
     ["capture", "--family", "bottomless", "--exact", "2", "--points"]),
    ("s.json", {"format": 1, "strips": [{"axis": "x", "lo": [1], "hi": 2}]},
     ["dual", "--strips"]),
], ids=["null-point-coordinate", "list-strip-bound"])
def test_non_rational_coordinate_exit_code(tmp_path, capsys, name, doc, argv):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code, out = run_cli(tmp_path, *argv, str(path))
    assert code == 2 and out is None
    assert capsys.readouterr().err.startswith("error: not an exact coordinate")


@pytest.mark.parametrize("labels, pairs, msg", [
    ([0, 1], [[0, 0], [1, 1], [2, 2]], "2 labels for 3 source vertices"),
    ([0, 1, 2], [[0, 0], [1, 1], [2, 5]], "label 2 maps to point 5"),
], ids=["short-labels", "point-out-of-range"])
def test_verify_embedding_bad_input_exit_code(tmp_path, capsys, labels, pairs, msg):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"format": 1, "n": 3, "edges": [[0, 1], [1, 2]]}))
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"format": 1, "dim": 2, "points": [[0, 0], [1, 1], [2, 2]]}))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"format": 1, "correspondence": pairs}))
    code, out = run_cli(tmp_path, "verify-embedding", "--hypergraph", str(h),
                        "--labels", json.dumps(labels), "--points", str(p),
                        "--family", "bottomless", "--correspondence", str(c))
    assert code == 2 and out is None
    assert msg in capsys.readouterr().err
