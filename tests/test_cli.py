import json
import os
import random
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from polyshallow import solvers
from polyshallow.cli import _SUBCOMMANDS, build_parser, main
from polyshallow.core import VertexSet
from polyshallow.formats import instance_from
from polyshallow.geometry import PointSet, capture_edges, strip_union


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


def test_capture_strip_union_count(tmp_path):
    diagonal = [[i, i] for i in range(4)]
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"format": 1, "dim": 2, "points": diagonal}))
    code, doc = run_cli(tmp_path, "capture", "--family", "strip-union", "--s", "2",
                        "--points", str(p))
    want = capture_edges(PointSet.of(diagonal), strip_union(2))
    assert code == 0 and doc["edges"] == [list(e) for e in want.edges]
    assert [0, 2] in doc["edges"]  # two strips: one strip takes a run of the diagonal


def test_solve_color_unsat(tmp_path):
    h = tmp_path / "k3.json"
    h.write_text(json.dumps({"format": 1, "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    code, doc = run_cli(tmp_path, "solve-color", "--hypergraph", str(h), "--k", "2")
    assert code == 0 and doc["status"] == "UNSAT"


@pytest.mark.parametrize("argv", [
    ["solve-color", "--k", "3", "--budget-nodes", "1"],
    ["solve-hitting", "--c", "1", "--budget-nodes", "0"],
    ["min-c", "--budget-nodes", "0"],
    ["min-m", "--k", "3", "--budget-nodes", "0"],
], ids=["solve-color", "solve-hitting", "min-c", "min-m"])
def test_budget_exhaustion_exit_code(tmp_path, argv):
    """One rule for every solver subcommand: a document whose status is
    BUDGET_EXHAUSTED exits 3."""
    h = tmp_path / "big.json"
    edges = [[i, i + 1, i + 2] for i in range(28)]
    h.write_text(json.dumps({"format": 1, "n": 30, "edges": edges}))
    code, doc = run_cli(tmp_path, *argv, "--hypergraph", str(h))
    assert code == 3 and doc["status"] == "BUDGET_EXHAUSTED"


def _fake_sat(h, c, budget):
    """A hitting search that claims the empty set hits every edge."""
    return solvers.SolveResult(solvers.SAT, VertexSet.of([]))


@pytest.mark.parametrize("budget, search, code", [
    (["--budget-nodes", "0"], None, 3),
    ([], None, 2),
    ([], _fake_sat, 2),
], ids=["budget-exhausted", "unsat", "invalid-set"])
def test_pipeline_round_without_hitting_set_exit_code(tmp_path, capsys, monkeypatch, budget,
                                                      search, code):
    """A round with no 1-shallow hitting set of 30 strip-captured points
    writes no document: exit 3 if its search ran out of budget, 2 if it
    proved none exists or the set it gave failed the check."""
    rng = random.Random(5)
    xs, ys = rng.sample(range(1000), 30), rng.sample(range(1000), 30)
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"format": 1, "dim": 2, "points": list(map(list, zip(xs, ys)))}))
    if search is not None:
        monkeypatch.setattr(solvers, "solve_shallow_hitting", search)
    got, out = run_cli(tmp_path, "pipeline", "--points", str(p), "--family", "strips",
                       "--k", "3", "--c", "1", *budget)
    assert got == code and out is None
    msg = ("oracle returned an invalid hitting set" if search
           else "no 1-shallow hitting set found in round 0")
    assert capsys.readouterr().err.startswith(f"error: {msg}")


@pytest.mark.parametrize("flag, value", [("--budget-nodes", "-5"), ("--budget-millis", "-3")])
def test_negative_budget_exit_code(tmp_path, capsys, flag, value):
    h = tmp_path / "k3.json"
    h.write_text(json.dumps({"format": 1, "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    code, doc = run_cli(tmp_path, "solve-hitting", "--hypergraph", str(h), "--c", "1",
                        flag, value)
    assert code == 2 and doc is None
    assert capsys.readouterr().err == "error: budget limits must be non-negative\n"


@pytest.mark.parametrize("argv", [
    ["generate", "thm2", "--seed", "1"],
    ["capture", "--family", "strips", "--points", "p.json", "--budget-nodes", "5"],
], ids=["seed", "budget"])
def test_unread_options_are_usage_errors(capsys, argv):
    # a subcommand takes only the options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


@pytest.mark.parametrize("argv, msg", [
    (["generate", "thm3", "--k", "2", "--m", "40", "--s", "9"],
     "generate thm3 does not read --m, --s"),
    (["generate", "thm2", "--k", "5"], "generate thm2 does not read --k"),
    (["embed", "--map", "pq-octants", "--vertices", "0..5", "--t", "7", "--chain", "2,4"],
     "map pq-octants does not read --t, --chain"),
    (["embed", "--map", "powers-octants", "--vertices", "0..5", "--t", "3", "--chain", "1,2"],
     "map powers-octants reads --chain or --t, not both"),
], ids=["thm3-m-s", "thm2-k", "pq-octants-t-chain", "powers-octants-t-and-chain"])
def test_options_not_read_exit_code(tmp_path, capsys, argv, msg):
    # an option the chosen construction or map ignores is an error, not dropped
    code, out = run_cli(tmp_path, *argv)
    assert code == 2 and out is None
    assert capsys.readouterr().err == f"error: {msg}\n"


POINTS_3D = {"format": 1, "dim": 3, "points": [[0, 1, 2], [3, "1/2", 1], [2, 2, 0]]}
POINTS_4D = {"format": 1, "dim": 4, "points": [[0, 1, 2, 5], [3, "1/2", 1, 0], [2, 2, 0, 1]]}


@pytest.mark.parametrize("argv, defaults, points", [
    (["generate", "thm2"], ["--m", "12"], None),
    (["generate", "thm3"], ["--k", "2"], None),
    (["generate", "thm4"], ["--m", "22"], None),
    (["generate", "thm5"], ["--k", "2"], None),
    (["generate", "thm6"], ["--m", "22", "--k", "2", "--s", "2"], None),
    (["embed", "--map", "powers-octants", "--vertices", "0..40"], ["--t", "2"], None),
    (["embed", "--map", "pq-octants", "--vertices", "0..40"],
     ["--p", "2", "--q", "3", "--M", "0"], None),
    (["embed", "--map", "powers-bottomless", "--vertices", "0..40"], ["--t", "2", "--M", "0"],
     None),
    (["embed", "--map", "octants-pq"], ["--p", "2", "--q", "3"], POINTS_3D),
    (["embed", "--map", "hextants-pqr"], ["--p", "2", "--q", "3", "--p3", "5"], POINTS_4D),
], ids=["thm2", "thm3", "thm4", "thm5", "thm6", "powers-octants", "pq-octants",
        "powers-bottomless", "octants-pq", "hextants-pqr"])
def test_defaults_match_explicit_options(tmp_path, argv, defaults, points):
    """Each option left out takes its default: the same document, byte for
    byte, as with the default given."""
    if points is not None:
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points))
        argv = [*argv, "--points", str(path)]
    texts = []
    for extra in ([], defaults):
        out = tmp_path / "out.json"
        assert main([*argv, *extra, "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("which, m", [("thm2", 4), ("thm4", 10)])
def test_generated_instance_keeps_int_coordinates(tmp_path, which, m):
    """generate -> formats.instance_from: the integer coordinates the
    builders emit are read back as ints, not as Fractions."""
    out = tmp_path / "inst.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # thm4 at m = 10 is uncertified
        assert main(["generate", which, "--m", str(m), "--out", str(out)]) == 0
    inst = instance_from(json.loads(out.read_text()))
    assert inst.n > 0 and {type(c) for pt in inst.points.points for c in pt} == {int}


def _parse_output(capsys, parse, argv):
    """What `parse(argv)` prints, and its exit code: argparse exits after
    printing help and after an error."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _readme_commands() -> list[list[str]]:
    """The argv of each `polyshallow` example in the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line.strip())[1:] for line in
            text.replace("\\\n", " ").splitlines() if line.startswith("    polyshallow ")]


@pytest.mark.parametrize("cmd", list(_SUBCOMMANDS))
def test_subcommand_parser_matches_full_parser(capsys, cmd):
    """main builds only the parser of the subcommand argv names: its help
    and its errors are those of the full parser. That includes the usage
    line, which names every subcommand, of an unknown option after a
    complete command line."""
    argvs = [[cmd, "--help"], [cmd, "--no-such-option"], [cmd]]
    argvs += [[*argv, "--no-such-option"] for argv in _readme_commands() if argv[0] == cmd]
    for argv in argvs:
        full = _parse_output(capsys, build_parser().parse_args, argv)
        assert full[1 if argv[-1] == "--help" else 2]
        assert _parse_output(capsys, build_parser(cmd).parse_args, argv) == full
        assert _parse_output(capsys, main, argv) == full


@pytest.mark.parametrize("argv, err", [
    (["no-such-command"], "error: argument cmd: invalid choice: 'no-such-command'"),
    (["--out", "x", "generate"], "error: argument cmd: invalid choice: 'x'"),
    ([], "error: the following arguments are required: cmd"),
    (["--help"], None),
], ids=["unknown", "option-first", "empty", "help"])
def test_no_subcommand_named(capsys, argv, err):
    """A command line that does not start with a subcommand gets the full
    parser's help or error."""
    got = _parse_output(capsys, main, argv)
    assert got == _parse_output(capsys, build_parser().parse_args, argv)
    if err is None:
        assert all(f"    {cmd} " in got[1] for cmd in _SUBCOMMANDS)
    else:
        assert f"polyshallow: {err}" in got[2] and "{generate,capture," in got[2]


def test_readme_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 15
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_shows_every_subcommand():
    assert set(_SUBCOMMANDS) - {argv[0] for argv in _readme_commands()} == set()


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


@pytest.mark.parametrize("argv", [
    ["generate", "thm2", "--m", "0"],
    ["generate", "thm4", "--m", "0"],
    ["generate", "thm5", "--k", "0"],
    ["generate", "thm6", "--s", "0", "--k", "0"],
    ["embed", "--map", "powers-bottomless", "--vertices", "0..10", "--t", "0"],
    ["embed", "--map", "pq-octants", "--vertices", "0..10", "--p", "0"],
], ids=["thm2-m", "thm4-m", "thm5-k", "thm6-s-k", "bottomless-t", "pq-octants-p"])
def test_explicit_zero_reaches_the_library(tmp_path, capsys, argv):
    # a zero is an invalid value, not a request for the default
    code, out = run_cli(tmp_path, *argv)
    assert code == 2 and out is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("vertices, msg", [
    (["--vertices", "5"], "error: --vertices is neither"),
    (["--vertices", '[1, "a"]'], "error: --vertices is neither"),
    ([], "error: this map needs --vertices"),
], ids=["bare-int", "non-int-member", "missing"])
def test_malformed_vertices_exit_code(tmp_path, capsys, vertices, msg):
    code, out = run_cli(tmp_path, "embed", "--map", "powers-bottomless", *vertices)
    assert code == 2 and out is None
    assert capsys.readouterr().err.startswith(msg)


@pytest.mark.parametrize("labels, in_file, pairs, msg", [
    ([[0], 1, 2], False, [[0, 0], [1, 1], [2, 2]], "error: --labels must be a JSON list of ints"),
    ({"0": 0, "1": 1, "2": 2}, True, [[0, 0], [1, 1], [2, 2]],
     "error: --labels must be a JSON list of ints"),
    ([0, 1, 2], False, [1, 2], "error: the correspondence must be a list of [int, int] pairs"),
    ([0, 1, 2], False, [[0.5, 0], [1, 1], [2, 2]],
     "error: the correspondence must be a list of [int, int] pairs"),
], ids=["nested-label", "labels-object", "bare-int-pairs", "fractional-label"])
def test_verify_embedding_malformed_documents_exit_code(tmp_path, capsys, labels, in_file,
                                                         pairs, msg):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"format": 1, "n": 3, "edges": [[0, 1], [1, 2]]}))
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"format": 1, "dim": 2, "points": [[0, 0], [1, 1], [2, 2]]}))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"format": 1, "correspondence": pairs}))
    lab = tmp_path / "labels.json"
    lab.write_text(json.dumps(labels))
    code, out = run_cli(tmp_path, "verify-embedding", "--hypergraph", str(h),
                        "--labels", str(lab) if in_file else json.dumps(labels),
                        "--points", str(p), "--family", "bottomless",
                        "--correspondence", str(c))
    assert code == 2 and out is None
    assert capsys.readouterr().err.startswith(msg)


@pytest.mark.parametrize("argv, msg", [
    (["--map", "powers-bottomless", "--M", "0,-1"], "error: M must lie in [0, t)"),
    (["--map", "pq-octants", "--M", "0,-1"], "error: M must lie in [0, pq)"),
], ids=["bottomless", "pq-octants"])
def test_negative_offset_exit_code(tmp_path, capsys, argv, msg):
    code, out = run_cli(tmp_path, "embed", "--vertices", "0..5", *argv)
    assert code == 2 and out is None
    assert capsys.readouterr().err.startswith(msg)


POINTS = {"format": 1, "dim": 2, "points": [[0, 0], [1, 2], [2, 1]]}
SPEC = {"format": 1, "generator": {"kind": "powers", "params": [2]}, "M": [0], "mode": "infinite"}
INSTANCE = ["falsify", "thm2", "--set", "empty", "--instance"]


def _group_p_past_n(inst: dict) -> dict:
    """A valid thm2 instance document whose group P ends in vertex 99999."""
    return inst | {"groups": inst["groups"] | {"P": inst["groups"]["P"][:-1] + [99999]}}


@pytest.mark.parametrize("argv, doc, msg", [
    (["ap", "--vertices", "0..5", "--spec"],
     SPEC | {"generator": {"kind": "powers", "params": ["2"]}}, "params must be a list"),
    (["ap", "--vertices", "0..5", "--spec"],
     SPEC | {"generator": {"kind": "powers", "params": 2}}, "params must be a list"),
    (["ap", "--vertices", "0..5", "--spec"], SPEC | {"M": ["0"]}, "M must be a list"),
    (["ap", "--vertices", "0..5", "--spec"],
     SPEC | {"generator": {"kind": ["powers"], "params": [2]}}, "unknown generator kind"),
    (["witness", "thm5", "--k", "2", "--coloring"],
     {"format": 1, "k": 2, "colors": ["0"] * 6}, "colors must be a list"),
    (["witness", "thm5", "--k", "2", "--coloring"],
     {"format": 1, "k": "2", "colors": [0] * 6}, "k must be an integer"),
    (["falsify", "thm2", "--set"], {"format": 1, "members": ["1"]}, "members must be a list"),
    (["ap", "--vertices", "0..5", "--spec"], SPEC | {"generator": [1]},
     "generator must be a JSON object"),
    (INSTANCE, {"params": 3}, "params must be a JSON object"),
    (INSTANCE, {"family": "bottomless"}, "family must be a JSON object"),
    (INSTANCE, {"family": {"tag": ["bottomless"]}}, "tag must be a JSON string"),
    (INSTANCE, {"family": {"tag": "bottomless", "s": 3}},
     "family bottomless takes no strip count"),
    (INSTANCE, {"family": {"tag": "strip-union", "s": "2"}}, "s must be an integer"),
    (INSTANCE, {"groups": [1]}, "groups must be a JSON object"),
    (INSTANCE, {"groups": {"a": 5}}, "a must be a list of integers"),
    (INSTANCE, _group_p_past_n, "P names a vertex outside [0, 92)"),
    (INSTANCE, {"params": {"m": "4"}, "theorem_scale": True},
     "m must be an integer or a list of integers, not '4'"),
    (INSTANCE, {"params": {"m": True}, "theorem_scale": True},
     "m must be an integer or a list of integers, not True"),
    (INSTANCE, {"params": {"m": 4.0}, "theorem_scale": True},
     "m must be an integer or a list of integers, not 4.0"),
    (INSTANCE, {"params": {"m": 4, "a": [1, False]}, "theorem_scale": True},
     "a must be an integer or a list of integers, not [1, False]"),
    (INSTANCE, {"theorem_scale": "false"}, "theorem_scale must be a JSON bool, not 'false'"),
    (INSTANCE, {"theorem_scale": 1}, "theorem_scale must be a JSON bool, not 1"),
    (["capture", "--family", "strips", "--points"], {"format": 1, "dim": 2, "points": 5},
     "points must be a JSON list of lists"),
    (["capture", "--family", "strips", "--points"], {"format": 1, "dim": 2, "points": [5]},
     "points must be a JSON list of lists"),
    (["capture", "--family", "strips", "--points"], {"format": 1, "dim": 2.0, "points": [[0, 1]]},
     "dim must be an integer"),
    (["dual", "--strips"], {"format": 1, "strips": [5]}, "strips must be a JSON list of objects"),
    (["capture", "--family", "strip-unionXYZ", "--s", "2", "--points"], POINTS,
     "unknown family 'strip-unionXYZ'"),
    (["capture", "--family", "strips", "--s", "3", "--points"], POINTS,
     "family strips takes no strip count, got s=3"),
    (["embed", "--map", "octants-pq"], None, "this map needs --points"),
    (["embed", "--map", "hextants-pqr"], None, "this map needs --points"),
    (["embed", "--map", "rectangles-tfin"], None, "this map needs --points"),
], ids=["spec-param-str", "spec-params-int", "spec-offset-str", "spec-kind-list",
        "coloring-color-str", "coloring-k-str", "set-member-str", "spec-generator-list",
        "instance-params-int", "instance-family-str", "instance-tag-list",
        "instance-strip-count", "instance-s-str", "instance-groups-list",
        "instance-group-int", "instance-group-vertex-past-n", "instance-param-str",
        "instance-param-bool", "instance-param-float", "instance-param-list-bool",
        "instance-scale-str", "instance-scale-int", "points-int", "point-int", "dim-float",
        "strip-int", "capture-family-suffix", "capture-strip-count",
        "octants-pq-no-points", "hextants-pqr-no-points", "rectangles-tfin-no-points"])
def test_malformed_document_exit_code(tmp_path, capsys, argv, doc, msg):
    if argv[0] == "falsify":
        inst = tmp_path / "inst.json"
        assert main(["generate", "thm2", "--m", "4", "--out", str(inst)]) == 0
        if argv[-1] == "--instance":  # doc replaces fields of a valid instance, or edits it
            valid = json.loads(inst.read_text())
            doc = doc(valid) if callable(doc) else valid | doc
        else:
            argv = [*argv[:2], "--instance", str(inst), *argv[2:]]
    if doc is not None:  # None: the command is run without its document
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, str(path)]
    code, out = run_cli(tmp_path, *argv)
    assert code == 2 and out is None
    assert capsys.readouterr().err.startswith(f"error: {msg}")
