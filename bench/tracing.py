"""Spans around the library's public functions, for the ``--trace 1`` run.

The library imports several functions by name (``constructions.instance``
and ``embeddings`` hold their own ``capture_contains``, ``solvers`` holds
``is_polychromatic`` and ``is_shallow_hitting``, the ``constructions``
package and ``cli`` hold the falsifiers). ``install`` therefore replaces
every attribute of every ``polyshallow`` module that refers to a traced
function, and ``uninstall`` puts the originals back. Spans stay in memory
until the run writes them out.

A span is ``[op, name, start, end, parent]``: ``op`` is the index of the op
that caused it (-1 during set-up) and ``parent`` the index of the enclosing
span (-1 for a root). A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from polyshallow import apgraphs, cli, constructions, core, embeddings, formats, geometry, solvers

CONTAINS = "geometry.capture_contains"
SOLVE_SPANS = ("solvers.solve_shallow_hitting", "solvers.solve_polychromatic")


def _note_contains(counts, args, result):
    counts["contains_true"] += result is True


def _note_edges(counts, args, result):
    counts["capture_edges_out"] += len(result.edges)


def _note_ap(counts, args, result):
    counts["ap_edges_out"] += len(result[0].edges)


def _note_verify(counts, args, result):
    source = args[0]
    if result.ok:
        counts["edges_checked"] += len(source.edges)
    else:
        counts["edges_checked"] += source.edges.index(result.failing_edge) + 1


def _note_solve(counts, args, result):
    counts["solver_nodes"] += result.stats.nodes
    counts["solver_status." + result.status] += 1


def _note_falsify(counts, args, result):
    counts["witness." + result.kind] += 1


def _targets():
    """(span name, function, note) for every traced function. A note sees
    the arguments and the result of a call that returned."""
    t = [
        (CONTAINS, geometry.capture_contains, _note_contains),
        ("geometry.capture_edges", geometry.capture_edges, _note_edges),
        ("core.check", core.is_polychromatic, None),
        ("core.check", core.is_shallow_hitting, None),
        ("constructions.falsify_bottomless", constructions.falsify_bottomless, _note_falsify),
        ("constructions.falsify_strips", constructions.falsify_strips, _note_falsify),
        ("solvers.solve_shallow_hitting", solvers.solve_shallow_hitting, _note_solve),
        ("solvers.solve_polychromatic", solvers.solve_polychromatic, _note_solve),
        ("solvers.min_m_polychromatic", solvers.min_m_polychromatic, None),
        ("apgraphs.build_ap_hypergraph", apgraphs.build_ap_hypergraph, _note_ap),
        ("embeddings.verify_edge_preservation", embeddings.verify_edge_preservation, _note_verify),
        ("embeddings.reverse_check", embeddings.check_corner_divisibility, None),
        ("embeddings.reverse_check", embeddings.check_tfin_prefix, None),
        ("formats.instance_from", formats.instance_from, None),
        ("formats.dumps", formats.dumps, None),
        ("cli", cli.main, None),  # named cli.<subcommand> per call
    ]
    for fn in (constructions.build_bottomless_no3shs, constructions.build_strip_no2shs,
               constructions.build_sstrips_lb):
        t.append(("constructions.build", fn, None))
    for fn in (embeddings.map_powers_to_octants, embeddings.map_pq_to_octants,
               embeddings.map_powers_to_bottomless, embeddings.map_octants_to_pq,
               embeddings.map_hextants_to_pqr, embeddings.map_rectangles_to_tfin):
        t.append(("embeddings.map", fn, None))
    return t


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._sites = []  # (owner, attribute, original, replacement)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "polyshallow" or name.startswith("polyshallow."))]
        for name, fn, note in _targets():
            wrapper = self._wrap(name, fn, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._sites.append((mod, attr, fn, wrapper))
        from_edges = core.Hypergraph.__dict__["from_edges"]
        self._sites.append((core.Hypergraph, "from_edges", from_edges, staticmethod(
            self._wrap("core.Hypergraph.from_edges", from_edges.__func__, None))))

    def install(self) -> None:
        for owner, attr, _, replacement in self._sites:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _wrap(self, name, fn, note):
        spans, stack, counts = self.spans, self._stack, self.counts
        is_cli = name == "cli"
        is_falsifier = fn in (constructions.falsify_bottomless, constructions.falsify_strips)

        def traced(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if is_cli else name
            idx = len(spans)
            span = [self.op, span_name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[3] = perf_counter()
                stack.pop()
                if is_falsifier and isinstance(exc, constructions.FalsifierAbort):
                    counts["aborts"] += 1
                raise
            span[3] = perf_counter()
            stack.pop()
            if note is not None:
                note(counts, args, result)
            return result

        return traced

    def write(self, path: str, t0: float) -> None:
        with open(path, "w") as f:
            for op, name, start, end, parent in self.spans:
                f.write(json.dumps({"op": op, "name": name, "start": round(start - t0, 9),
                                    "end": round(end - t0, 9), "parent": parent}) + "\n")

    def layer_metrics(self, op_seconds: float) -> dict:
        """Per-layer numbers; ``op_seconds`` is the traced ops' wall time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for op, name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        share: defaultdict = defaultdict(float)
        for i, (op, name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            incl[name] += end - start
            own = end - start - child[i]
            self_s[name] += own
            if op >= 0:
                share[name.split(".")[0]] += own
        c = self.counts
        solve_time = sum(incl[n] for n in SOLVE_SPANS)
        m = {
            "geometry.capture_contains.calls": (calls[CONTAINS], "count"),
            "geometry.capture_contains.self_s": (self_s[CONTAINS], "s"),
            "geometry.capture_contains.true_frac": (
                c["contains_true"] / calls[CONTAINS] if calls[CONTAINS] else 0.0, "frac"),
            "geometry.capture_edges.calls": (calls["geometry.capture_edges"], "count"),
            "geometry.capture_edges.self_s": (self_s["geometry.capture_edges"], "s"),
            "geometry.capture_edges.edges_out": (c["capture_edges_out"], "count"),
            "core.Hypergraph.from_edges.self_s": (self_s["core.Hypergraph.from_edges"], "s"),
            "core.check.calls": (calls["core.check"], "count"),
            "core.check.self_s": (self_s["core.check"], "s"),
        }
        for name in ("falsify_bottomless", "falsify_strips"):
            m[f"constructions.{name}.calls"] = (calls[f"constructions.{name}"], "count")
            m[f"constructions.{name}.self_s"] = (self_s[f"constructions.{name}"], "s")
        m["constructions.witness.zero_hit"] = (c["witness.zero-hit"], "count")
        m["constructions.witness.overflow"] = (c["witness.overflow"], "count")
        m["constructions.aborts"] = (c["aborts"], "count")
        m["constructions.build.self_s"] = (self_s["constructions.build"], "s")
        for name in ("solve_shallow_hitting", "solve_polychromatic"):
            m[f"solvers.{name}.calls"] = (calls[f"solvers.{name}"], "count")
            m[f"solvers.{name}.self_s"] = (self_s[f"solvers.{name}"], "s")
        m["solvers.min_m_polychromatic.self_s"] = (self_s["solvers.min_m_polychromatic"], "s")
        m["solvers.nodes"] = (c["solver_nodes"], "count")
        m["solvers.nodes_per_s"] = (c["solver_nodes"] / solve_time if solve_time else 0.0, "1/s")
        m["solvers.unsat"] = (c["solver_status." + solvers.UNSAT], "count")
        m["solvers.budget_exhausted"] = (c["solver_status." + solvers.BUDGET_EXHAUSTED], "count")
        m["apgraphs.build_ap_hypergraph.self_s"] = (self_s["apgraphs.build_ap_hypergraph"], "s")
        m["apgraphs.build_ap_hypergraph.edges_out"] = (c["ap_edges_out"], "count")
        m["embeddings.map.self_s"] = (self_s["embeddings.map"], "s")
        m["embeddings.verify_edge_preservation.self_s"] = (
            self_s["embeddings.verify_edge_preservation"], "s")
        m["embeddings.verify_edge_preservation.edges_checked"] = (c["edges_checked"], "count")
        m["embeddings.reverse_check.self_s"] = (self_s["embeddings.reverse_check"], "s")
        m["formats.instance_from.self_s"] = (self_s["formats.instance_from"], "s")
        m["formats.dumps.self_s"] = (self_s["formats.dumps"], "s")
        m["cli.generate.self_s"] = (self_s["cli.generate"], "s")
        for layer in ("geometry", "core", "constructions", "solvers", "apgraphs", "embeddings"):
            m[f"share.{layer}"] = (share[layer] / op_seconds if op_seconds else 0.0, "frac")
        return m
