"""Command-line entry point: generators, capture, solvers, falsifiers and
embedding verification over the documented JSON formats.

Exit codes: 0 success, 2 validation error, 3 budget exhausted,
4 falsifier/witness abort (the theorem-contradiction path).
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


def _emit(doc: dict, args) -> None:
    text = formats.dumps(doc, pretty=args.pretty)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _budget(args) -> solvers.SolveBudget:
    return solvers.SolveBudget(max_nodes=args.budget_nodes, max_millis=args.budget_millis)


def _vertex_set(spec: str, n: int, seed: int) -> VertexSet:
    """--set accepts 'empty', 'all', 'random:<density>', or a JSON path."""
    if spec == "empty":
        return VertexSet.of([])
    if spec == "all":
        return VertexSet.of(range(n))
    if spec.startswith("random:"):
        dens = float(spec.split(":", 1)[1])
        rng = random.Random(seed)
        return VertexSet.of(v for v in range(n) if rng.random() < dens)
    return formats.vertexset_from(_read(spec))


def _coloring(spec: str, k: int, n: int, seed: int) -> ColorAssignment:
    if spec == "random":
        rng = random.Random(seed)
        return ColorAssignment(k, tuple(rng.randrange(k) for _ in range(n)))
    return formats.coloring_from(_read(spec))


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the result document here instead of stdout")
    output.add_argument("--pretty", action="store_true", help="human-readable JSON")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for randomized inputs")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget-nodes", type=int, default=10**7)
    budget.add_argument("--budget-millis", type=int, default=None)

    ap = argparse.ArgumentParser(prog="polyshallow")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_parser(name, *parents, **kw):
        """A subcommand with the output options and the given parents."""
        return sub.add_parser(name, parents=[output, *parents], **kw)

    g = add_parser("generate", help="build a named construction")
    g.add_argument("which", choices=["thm2", "thm3", "thm4", "thm5", "thm6"])
    g.add_argument("--m", type=int, help="thm2, thm4, thm6: default 12 for thm2, else 22")
    g.add_argument("--k", type=int, help="thm3, thm5, thm6: default 2")
    g.add_argument("--s", type=int, help="thm6: default 2")

    c = add_parser("capture", help="range-capture hypergraph of a point set")
    c.add_argument("--family", required=True)
    c.add_argument("--s", type=int, default=1)
    c.add_argument("--points", required=True)
    c.add_argument("--exact", type=int)
    c.add_argument("--at-least", type=int)

    d = add_parser("dual", help="dual hypergraph of a strip list")
    d.add_argument("--strips", required=True)

    a = add_parser("ap", help="arithmetic-progression hypergraph")
    a.add_argument("--spec", required=True)
    a.add_argument("--vertices", required=True, help="JSON list or 'lo..hi'")

    e = add_parser("embed", help="run one of the structure-preserving maps")
    e.add_argument("--map", required=True, choices=[
        "powers-octants", "pq-octants", "octants-pq", "hextants-pqr",
        "powers-bottomless", "rectangles-tfin"])
    e.add_argument("--vertices", help="JSON list or 'lo..hi'")
    e.add_argument("--points")
    e.add_argument("--t", type=int, help="default 2")
    e.add_argument("--p", type=int, help="default 2")
    e.add_argument("--q", type=int, help="default 3")
    e.add_argument("--p3", type=int, help="default 5")
    e.add_argument("--chain", help="comma-separated divisor chain, instead of --t")
    e.add_argument("--M", help="comma-separated offsets, default 0")

    v = add_parser("verify-embedding", help="check edge preservation")
    v.add_argument("--hypergraph", required=True)
    v.add_argument("--labels", required=True, help="JSON list of vertex labels")
    v.add_argument("--points", required=True)
    v.add_argument("--family", required=True)
    v.add_argument("--s", type=int, default=1)
    v.add_argument("--correspondence", required=True)

    sc = add_parser("solve-color", budget, help="polychromatic k-coloring search")
    sc.add_argument("--hypergraph", required=True)
    sc.add_argument("--k", type=int, required=True)
    sc.add_argument("--at-least", type=int, help="restrict to edges of size >= m first")

    sh = add_parser("solve-hitting", budget, help="c-shallow hitting set search")
    sh.add_argument("--hypergraph", required=True)
    sh.add_argument("--c", type=int, required=True)

    mc = add_parser("min-c", budget, help="smallest c with a c-shallow hitting set")
    mc.add_argument("--hypergraph", required=True)

    mm = add_parser("min-m", budget, help="smallest m with H_{>=m} k-colorable")
    mm.add_argument("--hypergraph", required=True)
    mm.add_argument("--k", type=int, required=True)

    f = add_parser("falsify", seed, help="defeat a candidate shallow hitting set")
    f.add_argument("which", choices=["thm2", "thm4"])
    f.add_argument("--instance", required=True)
    f.add_argument("--set", required=True, dest="candidate")

    w = add_parser("witness", seed, help="defeat a candidate coloring")
    w.add_argument("which", choices=["thm3", "thm5"])
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--coloring", required=True)

    p = add_parser("pipeline", budget, help="shrink/hit/delete polychromatic coloring")
    p.add_argument("--points", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    return ap


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
    "powers-bottomless": {"vertices": None, "t": 2, "M": "0"},
    "octants-pq": {"points": None, "p": 2, "q": 3},
    "hextants-pqr": {"points": None, "p": 2, "q": 3, "p3": 5},
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


def _cmd_generate(args) -> int:
    _options(args, "generate", _GENERATE_OPTIONS, args.which)
    if args.which == "thm2":
        inst = build_bottomless_no3shs(args.m)
        _emit(formats.instance_doc(inst), args)
    elif args.which == "thm3":
        strips, h, meta = build_dual_strip_lb(args.k)
        doc = formats.strips_doc(strips)
        doc["hypergraph"] = formats.hypergraph_doc(h)
        doc["meta"] = {"k": meta["k"], "copies": meta["copies"],
                       "groups": {str(k): list(v) for k, v in meta["groups"].items()}}
        _emit(doc, args)
    elif args.which == "thm4":
        inst = build_strip_no2shs(args.m)
        _emit(formats.instance_doc(inst), args)
    elif args.which == "thm5":
        inst = build_cross_lb(args.k)
        _emit(formats.instance_doc(inst), args)
    else:
        base = build_strip_no2shs(args.m)
        inst = build_sstrips_lb(args.s, args.k, base)
        _emit(formats.instance_doc(inst), args)
    return EXIT_OK


def _cmd_capture(args) -> int:
    pts = formats.points_from(_read(args.points))
    fam = RangeFamily(args.family, args.s)
    h = geometry.capture_edges(pts, fam, exact=args.exact, at_least=args.at_least)
    _emit(formats.hypergraph_doc(h), args)
    return EXIT_OK


def _cmd_ap(args) -> int:
    spec = formats.apspec_from(_read(args.spec))
    svals = _parse_vertices(args.vertices)
    h, labels, _ = apgraphs.build_ap_hypergraph(svals, spec)
    doc = formats.hypergraph_doc(h)
    doc["labels"] = list(labels)
    _emit(doc, args)
    return EXIT_OK


def _cmd_embed(args) -> int:
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
    doc = {"format": formats.FORMAT} if pts is None else formats.points_doc(pts)
    doc["correspondence"] = [list(p) for p in corr.pairs]
    _emit(doc, args)
    return EXIT_OK


def _cmd_verify_embedding(args) -> int:
    h = formats.hypergraph_from(_read(args.hypergraph))
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
    pairs = tuple(map(tuple, pairs))
    corr = embeddings.Correspondence("numbers-to-points", fam.tag, pairs)
    rep = embeddings.verify_edge_preservation(h, labels, pts, fam, corr)
    doc = {"format": formats.FORMAT, "status": rep.status, "family": rep.family,
           "direction": rep.direction}
    if rep.failing_edge is not None:
        doc["failing_edge"] = list(rep.failing_edge)
    _emit(doc, args)
    return EXIT_OK


def _emit_solve(res: solvers.SolveResult, args) -> int:
    doc = res.to_doc()
    doc["format"] = formats.FORMAT
    _emit(doc, args)
    return EXIT_BUDGET if res.status == solvers.BUDGET_EXHAUSTED else EXIT_OK


def _cmd_falsify(args) -> int:
    inst = formats.instance_from(_read(args.instance))
    cand = _vertex_set(args.candidate, inst.n, args.seed)
    falsifier = falsify_bottomless if args.which == "thm2" else falsify_strips
    w = falsifier(inst, cand)
    _emit(formats.witness_doc(w), args)
    return EXIT_OK


def _cmd_witness(args) -> int:
    if args.which == "thm3":
        strips, h, meta = build_dual_strip_lb(args.k)
        chi = _coloring(args.coloring, args.k, len(strips), args.seed)
        w = witness_dual_strip(args.k, chi, meta)
    else:
        inst = build_cross_lb(args.k)
        chi = _coloring(args.coloring, args.k, inst.n, args.seed)
        w = witness_cross(args.k, chi, inst)
    _emit(formats.witness_doc(w), args)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    pts = formats.points_from(_read(args.points))
    fam = RangeFamily(args.family, args.s)
    chi = solvers.coloring_pipeline(pts, fam, args.k, args.c, budget=_budget(args))
    _emit(formats.coloring_doc(chi), args)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "generate":
            return _cmd_generate(args)
        if args.cmd == "capture":
            return _cmd_capture(args)
        if args.cmd == "dual":
            strips = formats.strips_from(_read(args.strips))
            _emit(formats.hypergraph_doc(geometry.dual_strips_hypergraph(strips)), args)
            return EXIT_OK
        if args.cmd == "ap":
            return _cmd_ap(args)
        if args.cmd == "embed":
            return _cmd_embed(args)
        if args.cmd == "verify-embedding":
            return _cmd_verify_embedding(args)
        if args.cmd == "solve-color":
            h = formats.hypergraph_from(_read(args.hypergraph))
            if args.at_least:
                h = restrict_at_least(h, args.at_least)
            return _emit_solve(solvers.solve_polychromatic(h, args.k, _budget(args)), args)
        if args.cmd == "solve-hitting":
            h = formats.hypergraph_from(_read(args.hypergraph))
            return _emit_solve(solvers.solve_shallow_hitting(h, args.c, _budget(args)), args)
        if args.cmd == "min-c":
            h = formats.hypergraph_from(_read(args.hypergraph))
            r = solvers.min_shallow_c(h, _budget(args))
            doc = {"format": formats.FORMAT, "status": r.status, "c": r.c,
                   "last_decided": r.last_decided}
            if r.witness is not None:
                doc["witness"] = {"members": list(r.witness.members)}
            _emit(doc, args)
            return EXIT_BUDGET if r.status == solvers.BUDGET_EXHAUSTED else EXIT_OK
        if args.cmd == "min-m":
            h = formats.hypergraph_from(_read(args.hypergraph))
            rec = solvers.min_m_polychromatic(h, args.k, _budget(args))
            doc = {"format": formats.FORMAT, "status": rec.status, "m": rec.m, "k": rec.k}
            if rec.coloring is not None:
                doc["coloring"] = {"k": rec.coloring.k, "colors": list(rec.coloring.colors)}
            if rec.unsat_below is not None:
                doc["unsat_below"] = {"nodes": rec.unsat_below.nodes,
                                      "millis": rec.unsat_below.millis}
            _emit(doc, args)
            return EXIT_BUDGET if rec.status == solvers.BUDGET_EXHAUSTED else EXIT_OK
        if args.cmd == "falsify":
            return _cmd_falsify(args)
        if args.cmd == "witness":
            return _cmd_witness(args)
        if args.cmd == "pipeline":
            return _cmd_pipeline(args)
        raise AssertionError(args.cmd)
    except FalsifierAbort as exc:
        print(f"falsifier abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
