"""Versioned JSON documents for hypergraphs, point sets, strip lists,
progression specs, construction instances, and solver results.

Round-trip contract: parsing a serialized document and re-serializing it
is byte-identical (keys sorted, edges canonically ordered, rationals as
"num/den" strings or bare ints).
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .apgraphs import APSpec
from .core import ColorAssignment, Hypergraph, VertexSet, ViolationWitness
from .geometry import PointSet, RangeFamily, Strip, rat
from .constructions.instance import ConstructionInstance

FORMAT = 1


def dumps(doc: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _check_format(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ValueError("document is not a JSON object")
    if doc.get("format") != FORMAT:
        raise ValueError(f"unsupported format {doc.get('format')!r}")


def _rat_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- hypergraph --------------------------------------------------------------

def hypergraph_doc(h: Hypergraph) -> dict:
    return {"format": FORMAT, "n": h.n, "edges": [list(e) for e in h.edges]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def hypergraph_from(doc: dict) -> Hypergraph:
    _check_format(doc)
    n, edges = doc["n"], doc["edges"]
    if not _is_int(n):
        raise ValueError(f"n must be an integer, not {n!r}")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and all(_is_int(v) for v in e) for e in edges
    ):
        raise ValueError("edges must be a list of lists of integers")
    return Hypergraph.from_edges(n, edges)


# -- point set ---------------------------------------------------------------

def points_doc(p: PointSet) -> dict:
    return {
        "format": FORMAT,
        "dim": p.dim,
        "points": [[_rat_out(c) for c in pt] for pt in p.points],
    }


def points_from(doc: dict) -> PointSet:
    _check_format(doc)
    return PointSet.of([[rat(c) for c in pt] for pt in doc["points"]], dim=doc["dim"])


# -- strips ------------------------------------------------------------------

def strips_doc(strips: list[Strip]) -> dict:
    return {
        "format": FORMAT,
        "strips": [
            {"axis": s.axis, "lo": _rat_out(s.lo), "hi": _rat_out(s.hi)} for s in strips
        ],
    }


def strips_from(doc: dict) -> list[Strip]:
    _check_format(doc)
    return [Strip(d["axis"], rat(d["lo"]), rat(d["hi"])) for d in doc["strips"]]


# -- AP spec -----------------------------------------------------------------

def apspec_doc(spec: APSpec) -> dict:
    return {
        "format": FORMAT,
        "generator": {"kind": spec.kind, "params": list(spec.params)},
        "M": list(spec.M),
        "mode": spec.mode,
    }


def apspec_from(doc: dict) -> APSpec:
    _check_format(doc)
    g = doc["generator"]
    return APSpec(g["kind"], tuple(g["params"]), tuple(sorted(set(doc["M"]))), doc["mode"])


# -- construction instance ---------------------------------------------------

def instance_doc(inst: ConstructionInstance) -> dict:
    fam: dict[str, Any] = {"tag": inst.family.tag}
    if inst.family.tag == "strip-union":
        fam["s"] = inst.family.s
    params = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in inst.params.items()
    }
    return {
        "format": FORMAT,
        "kind": inst.kind,
        "family": fam,
        "params": params,
        "points": points_doc(inst.points)["points"],
        "dim": inst.points.dim,
        "groups": {k: list(v) for k, v in inst.groups.items()},
        "theorem_scale": inst.theorem_scale,
    }


def instance_from(doc: dict) -> ConstructionInstance:
    _check_format(doc)
    fam = doc["family"]
    family = RangeFamily(fam["tag"], fam.get("s", 1))
    params = {
        k: (tuple(v) if isinstance(v, list) else v) for k, v in doc["params"].items()
    }
    return ConstructionInstance(
        doc["kind"],
        PointSet.of([[rat(c) for c in pt] for pt in doc["points"]], dim=doc["dim"]),
        family,
        params,
        {k: tuple(v) for k, v in doc["groups"].items()},
        doc["theorem_scale"],
    )


# -- results -----------------------------------------------------------------

def witness_doc(w: ViolationWitness) -> dict:
    return {"format": FORMAT, "edge": list(w.edge), "kind": w.kind, "detail": w.detail}


def coloring_doc(chi: ColorAssignment) -> dict:
    return {"format": FORMAT, "k": chi.k, "colors": list(chi.colors)}


def coloring_from(doc: dict) -> ColorAssignment:
    _check_format(doc)
    return ColorAssignment(doc["k"], tuple(doc["colors"]))


def vertexset_doc(u: VertexSet) -> dict:
    return {"format": FORMAT, "members": list(u.members)}


def vertexset_from(doc: dict) -> VertexSet:
    _check_format(doc)
    return VertexSet.of(doc["members"])
