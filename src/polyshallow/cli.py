"""Command-line entry point: generators, capture, solvers, falsifiers and
embedding verification over the documented JSON formats.

Exit codes: 0 success, 2 validation error, 3 budget exhausted,
4 falsifier/witness abort (the theorem-contradiction path).

Each handler returns its document, and `main` writes it. Handlers look up
the library functions at call time, so a wrapper patched onto one is seen.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import apgraphs, embeddings, formats, geometry, solvers
from .constructions import (
    FalsifierAbort,
    build_bottomless_no3shs,
    build_cross_lb,
    build_dual_strip_lb,
    build_sstrips_lb,
    build_strip_no2shs,
    falsify_bottomless,
    falsify_strips,
    witness_cross,
    witness_dual_strip,
)
from .core import ColorAssignment, VertexSet, restrict_at_least
from .geometry import RangeFamily

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_ABORT = 4


def _read(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _hypergraph(args):
    return formats.hypergraph_from(_read(args.hypergraph))


def _budget(args) -> solvers.SolveBudget:
    return solvers.SolveBudget(max_nodes=args.budget_nodes, max_millis=args.budget_millis)


def _vertex_set(args, n: int) -> VertexSet:
    """--set accepts 'empty', 'all', 'random:<density>', or a JSON path."""
    if args.candidate == "empty":
        return VertexSet.of([])
    if args.candidate == "all":
        return VertexSet.of(range(n))
    if args.candidate.startswith("random:"):
        dens = float(args.candidate.split(":", 1)[1])
        rng = random.Random(args.seed)
        return VertexSet.of(v for v in range(n) if rng.random() < dens)
    return formats.vertexset_from(_read(args.candidate))


def _coloring(args, n: int) -> ColorAssignment:
    if args.coloring == "random":
        rng = random.Random(args.seed)
        return ColorAssignment(args.k, tuple(rng.randrange(args.k) for _ in range(n)))
    return formats.coloring_from(_read(args.coloring))


def _parse_vertices(text: Optional[str]) -> list[int]:
    """A JSON list of ints, or 'lo..hi' for lo, lo + 1, ..., hi."""
    if text is None:
        raise ValueError("this map needs --vertices")
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    values = json.loads(text)
    if not isinstance(values, list) or not all(map(formats._is_int, values)):
        raise ValueError(f"--vertices is neither a JSON list of ints nor 'lo..hi': {text!r}")
    return values


def _map_points(path: Optional[str]) -> geometry.PointSet:
    """The --points document of a map that labels given points."""
    if path is None:
        raise ValueError("this map needs --points")
    return formats.points_from(_read(path))


# The options each construction and each map reads, with their defaults
# (None: required, or optional without a default). An option given to one
# that does not read it is an error, not silently dropped.
_GENERATE_OPTIONS = {"thm2": {"m": 12}, "thm3": {"k": 2}, "thm4": {"m": 22}, "thm5": {"k": 2},
                     "thm6": {"m": 22, "k": 2, "s": 2}}
_EMBED_OPTIONS = {
    "powers-octants": {"vertices": None, "t": None, "chain": None},
    "pq-octants": {"vertices": None, "p": 2, "q": 3, "M": "0"},
    "octants-pq": {"points": None, "p": 2, "q": 3},
    "hextants-pqr": {"points": None, "p": 2, "q": 3, "p3": 5},
    "powers-bottomless": {"vertices": None, "t": 2, "M": "0"},
    "rectangles-tfin": {"points": None},
}


def _options(args, name: str, table: dict, key: str) -> None:
    """Fill in the defaults of the options that `table[key]` reads. Any
    other option of the table given on the command line is a validation
    error (exit 2) that names it."""
    reads = table[key]
    unread = [f"--{o}" for o in dict.fromkeys(o for r in table.values() for o in r)
              if o not in reads and getattr(args, o) is not None]
    if unread:
        raise ValueError(f"{name} {key} does not read {', '.join(unread)}")
    for o, default in reads.items():
        if getattr(args, o) is None:
            setattr(args, o, default)


def _cmd_generate(args) -> dict:
    _options(args, "generate", _GENERATE_OPTIONS, args.which)
    if args.which == "thm3":
        strips, h, meta = build_dual_strip_lb(args.k)
        groups = {str(k): list(v) for k, v in meta["groups"].items()}
        return formats.strips_doc(strips) | {"hypergraph": formats.hypergraph_doc(h), "meta": {
            "k": meta["k"], "copies": meta["copies"], "groups": groups}}
    if args.which == "thm2":
        inst = build_bottomless_no3shs(args.m)
    elif args.which == "thm4":
        inst = build_strip_no2shs(args.m)
    elif args.which == "thm5":
        inst = build_cross_lb(args.k)
    else:
        inst = build_sstrips_lb(args.s, args.k, build_strip_no2shs(args.m))
    return formats.instance_doc(inst)


def _cmd_capture(args) -> dict:
    pts = formats.points_from(_read(args.points))
    fam = RangeFamily(args.family, args.s)
    return formats.hypergraph_doc(
        geometry.capture_edges(pts, fam, exact=args.exact, at_least=args.at_least))


def _cmd_dual(args) -> dict:
    strips = formats.strips_from(_read(args.strips))
    return formats.hypergraph_doc(geometry.dual_strips_hypergraph(strips))


def _cmd_ap(args) -> dict:
    spec = formats.apspec_from(_read(args.spec))
    h, labels, _ = apgraphs.build_ap_hypergraph(_parse_vertices(args.vertices), spec)
    return formats.hypergraph_doc(h) | {"labels": list(labels)}


def _cmd_embed(args) -> dict:
    _options(args, "map", _EMBED_OPTIONS, args.map)
    ms = [int(x) for x in args.M.split(",")] if args.M else [0]
    pts = None  # the reverse maps label the given points and emit no points
    if args.map == "octants-pq":
        corr = embeddings.map_octants_to_pq(_map_points(args.points), args.p, args.q)
    elif args.map == "hextants-pqr":
        corr = embeddings.map_hextants_to_pqr(_map_points(args.points), args.p, args.q, args.p3)
    elif args.map == "rectangles-tfin":
        pts, corr = embeddings.map_rectangles_to_tfin(_map_points(args.points))
    elif args.map == "powers-octants":
        svals = _parse_vertices(args.vertices)
        if args.chain is not None and args.t is not None:
            raise ValueError("map powers-octants reads --chain or --t, not both")
        chain = (embeddings.chain_explicit([int(x) for x in args.chain.split(",")])
                 if args.chain else embeddings.chain_of_powers(2 if args.t is None else args.t))
        lay = embeddings.map_powers_to_octants(svals, chain)
        pts, corr = lay.points, lay.corr
    elif args.map == "pq-octants":
        pts, corr = embeddings.map_pq_to_octants(_parse_vertices(args.vertices), args.p, args.q, ms)
    else:
        pts, corr = embeddings.map_powers_to_bottomless(_parse_vertices(args.vertices), args.t, ms)
    doc = {} if pts is None else formats.points_doc(pts)
    return doc | {"correspondence": [list(p) for p in corr.pairs]}


def _cmd_verify_embedding(args) -> dict:
    h = _hypergraph(args)
    labels = json.loads(args.labels) if args.labels.startswith("[") else _read(args.labels)
    if not isinstance(labels, list) or not all(map(formats._is_int, labels)):
        raise ValueError("--labels must be a JSON list of ints")
    pts = formats.points_from(_read(args.points))
    fam = RangeFamily(args.family, args.s)
    cdoc = _read(args.correspondence)
    pairs = cdoc.get("correspondence") if isinstance(cdoc, dict) else None
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(map(formats._is_int, pair))
        for pair in pairs
    ):
        raise ValueError("the correspondence must be a list of [int, int] pairs")
    corr = embeddings.Correspondence("numbers-to-points", fam.tag, tuple(map(tuple, pairs)))
    rep = embeddings.verify_edge_preservation(h, labels, pts, fam, corr)
    doc = {"status": rep.status, "family": rep.family, "direction": rep.direction}
    if rep.failing_edge is not None:
        doc["failing_edge"] = list(rep.failing_edge)
    return doc


def _cmd_solve_color(args) -> dict:
    h = _hypergraph(args)
    h = restrict_at_least(h, args.at_least) if args.at_least else h
    return solvers.solve_polychromatic(h, args.k, _budget(args)).to_doc()


def _cmd_solve_hitting(args) -> dict:
    return solvers.solve_shallow_hitting(_hypergraph(args), args.c, _budget(args)).to_doc()


def _cmd_min_c(args) -> dict:
    r = solvers.min_shallow_c(_hypergraph(args), _budget(args))
    doc = {"status": r.status, "c": r.c, "last_decided": r.last_decided}
    if r.witness is not None:
        doc["witness"] = {"members": list(r.witness.members)}
    return doc


def _cmd_min_m(args) -> dict:
    rec = solvers.min_m_polychromatic(_hypergraph(args), args.k, _budget(args))
    doc = {"status": rec.status, "m": rec.m, "k": rec.k}
    if rec.coloring is not None:
        doc["coloring"] = {"k": rec.coloring.k, "colors": list(rec.coloring.colors)}
    if rec.unsat_below is not None:
        doc["unsat_below"] = {"nodes": rec.unsat_below.nodes, "millis": rec.unsat_below.millis}
    return doc


def _cmd_falsify(args) -> dict:
    inst = formats.instance_from(_read(args.instance))
    falsifier = falsify_bottomless if args.which == "thm2" else falsify_strips
    return formats.witness_doc(falsifier(inst, _vertex_set(args, inst.n)))


def _cmd_witness(args) -> dict:
    if args.which == "thm3":
        strips, _, meta = build_dual_strip_lb(args.k)
        return formats.witness_doc(witness_dual_strip(args.k, _coloring(args, len(strips)), meta))
    inst = build_cross_lb(args.k)
    return formats.witness_doc(witness_cross(args.k, _coloring(args, inst.n), inst))


def _cmd_pipeline(args) -> dict:
    pts = formats.points_from(_read(args.points))
    fam = RangeFamily(args.family, args.s)
    return formats.coloring_doc(
        solvers.coloring_pipeline(pts, fam, args.k, args.c, budget=_budget(args)))


def _arg(*flags, **kw) -> tuple:
    """One `add_argument` call of a subcommand, as data."""
    return flags, kw


# Every subcommand takes the output options, and only the options it reads
# besides: a seed for randomized inputs, solver budgets, and its own.
_OUTPUT = (_arg("--out", help="write the result document here instead of stdout"),
           _arg("--pretty", action="store_true", help="human-readable JSON"))
_SEED = (_arg("--seed", type=int, default=0, help="seed for randomized inputs"),)
_BUDGET = (_arg("--budget-nodes", type=int, default=10**7),
           _arg("--budget-millis", type=int, default=None))

_SUBCOMMANDS = {  # name -> (help, handler, arguments in order)
    "generate": ("build a named construction", _cmd_generate, (
        _arg("which", choices=list(_GENERATE_OPTIONS)),
        _arg("--m", type=int, help="thm2, thm4, thm6: default 12 for thm2, else 22"),
        _arg("--k", type=int, help="thm3, thm5, thm6: default 2"),
        _arg("--s", type=int, help="thm6: default 2"))),
    "capture": ("range-capture hypergraph of a point set", _cmd_capture, (
        _arg("--family", required=True),
        _arg("--s", type=int, default=1),
        _arg("--points", required=True),
        _arg("--exact", type=int),
        _arg("--at-least", type=int))),
    "dual": ("dual hypergraph of a strip list", _cmd_dual, (
        _arg("--strips", required=True),)),
    "ap": ("arithmetic-progression hypergraph", _cmd_ap, (
        _arg("--spec", required=True),
        _arg("--vertices", required=True, help="JSON list or 'lo..hi'"))),
    "embed": ("run one of the structure-preserving maps", _cmd_embed, (
        _arg("--map", required=True, choices=list(_EMBED_OPTIONS),
             help="a forward map preserves the progressions with these differences d:"
                  " powers-octants 1 and the chain (infinite);"
                  " pq-octants every d if M = 0, else 1 and p^i q^j, i, j >= 1 (infinite);"
                  " powers-bottomless t^i, i >= 0 if M = 0, else i >= 1 (finite;"
                  " an explicit set, as the powers kind adds d = 1)"),
        _arg("--vertices", help="JSON list or 'lo..hi'"),
        _arg("--points"),
        _arg("--t", type=int, help="default 2"),
        _arg("--p", type=int, help="default 2"),
        _arg("--q", type=int, help="default 3"),
        _arg("--p3", type=int, help="default 5"),
        _arg("--chain", help="comma-separated divisor chain, instead of --t"),
        _arg("--M", help="comma-separated offsets, default 0"))),
    "verify-embedding": ("check edge preservation", _cmd_verify_embedding, (
        _arg("--hypergraph", required=True),
        _arg("--labels", required=True, help="JSON list of vertex labels"),
        _arg("--points", required=True),
        _arg("--family", required=True),
        _arg("--s", type=int, default=1),
        _arg("--correspondence", required=True))),
    "solve-color": ("polychromatic k-coloring search", _cmd_solve_color, _BUDGET + (
        _arg("--hypergraph", required=True),
        _arg("--k", type=int, required=True),
        _arg("--at-least", type=int, help="restrict to edges of size >= m first"))),
    "solve-hitting": ("c-shallow hitting set search", _cmd_solve_hitting, _BUDGET + (
        _arg("--hypergraph", required=True),
        _arg("--c", type=int, required=True))),
    "min-c": ("smallest c with a c-shallow hitting set", _cmd_min_c, _BUDGET + (
        _arg("--hypergraph", required=True),)),
    "min-m": ("smallest m with H_{>=m} k-colorable", _cmd_min_m, _BUDGET + (
        _arg("--hypergraph", required=True),
        _arg("--k", type=int, required=True))),
    "falsify": ("defeat a candidate shallow hitting set", _cmd_falsify, _SEED + (
        _arg("which", choices=["thm2", "thm4"]),
        _arg("--instance", required=True),
        _arg("--set", required=True, dest="candidate"))),
    "witness": ("defeat a candidate coloring", _cmd_witness, _SEED + (
        _arg("which", choices=["thm3", "thm5"]),
        _arg("--k", type=int, required=True),
        _arg("--coloring", required=True))),
    "pipeline": ("shrink/hit/delete polychromatic coloring", _cmd_pipeline, _BUDGET + (
        _arg("--points", required=True),
        _arg("--family", required=True),
        _arg("--s", type=int, default=1),
        _arg("--k", type=int, required=True),
        _arg("--c", type=int, required=True))),
}


def build_parser(cmd: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `cmd` alone. The usage line
    of `cmd` alone still names every subcommand, so both builds print the
    same help and errors for a command line that starts with `cmd`."""
    ap = argparse.ArgumentParser(prog="polyshallow")
    names = {} if cmd is None else {"metavar": "{" + ",".join(_SUBCOMMANDS) + "}"}
    sub = ap.add_subparsers(dest="cmd", required=True, **names)
    for name, (help_text, _, arguments) in _SUBCOMMANDS.items():
        if cmd in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, kw in _OUTPUT + arguments:
                p.add_argument(*flags, **kw)
    return ap


def main(argv=None) -> int:
    """Write the subcommand's document to --out or stdout: exit 3 if its
    status is BUDGET_EXHAUSTED, else 0. An error writes no document."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the chosen subcommand's parser; all of them for --help and typos
    args = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    try:
        doc = _SUBCOMMANDS[args.cmd][1](args) | {"format": formats.FORMAT}
        text = formats.dumps(doc, pretty=args.pretty)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except FalsifierAbort as exc:
        print(f"falsifier abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except solvers.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if exc.status == solvers.BUDGET_EXHAUSTED else EXIT_VALIDATION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_BUDGET if doc.get("status") == solvers.BUDGET_EXHAUSTED else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
