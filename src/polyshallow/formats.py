"""Versioned JSON documents for hypergraphs, point sets, strip lists,
progression specs, construction instances, and solver results.

Round-trip contract: parsing a serialized document and re-serializing it
is byte-identical (keys sorted, edges canonically ordered, rationals as
"num/den" strings or bare ints).
"""
from __future__ import annotations

import json
from typing import Any, Optional

from .apgraphs import APSpec
from .core import ColorAssignment, Hypergraph, VertexSet, ViolationWitness
from .geometry import PointSet, RangeFamily, Rational, Strip, rat
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


def _rat_out(x: Rational):
    """An exact rational (int or Fraction) as a bare int or a "num/den"
    string; an int is written unchanged."""
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- hypergraph --------------------------------------------------------------

def hypergraph_doc(h: Hypergraph) -> dict:
    return {"format": FORMAT, "n": h.n, "edges": [list(e) for e in h.edges]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_int_list(x) -> bool:
    """True iff x is a JSON list of ints (a bool is not an int here)."""
    return isinstance(x, list) and all(map(_is_int, x))


def _ints(doc: dict, key: str) -> list[int]:
    """doc[key], which must be a list of integers."""
    xs = doc[key]
    if not is_int_list(xs):
        raise ValueError(f"{key} must be a list of integers, not {xs!r}")
    return xs


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def _field(doc: dict, key: str, kind: type, item: Optional[type] = None):
    """doc[key], which must be a JSON `kind`, and a list of `item`s if given."""
    x = doc[key]
    if not isinstance(x, kind) or item is not None and not all(isinstance(v, item) for v in x):
        of = "" if item is None else f" of {_JSON_TYPES[item]}s"
        raise ValueError(f"{key} must be a JSON {_JSON_TYPES[kind]}{of}, not {x!r}")
    return x


def hypergraph_from(doc: dict) -> Hypergraph:
    _check_format(doc)
    n, edges = doc["n"], doc["edges"]
    if not _is_int(n):
        raise ValueError(f"n must be an integer, not {n!r}")
    if not isinstance(edges, list) or not all(map(is_int_list, edges)):
        raise ValueError("edges must be a list of lists of integers")
    return Hypergraph.from_edges(n, edges)


# -- point set ---------------------------------------------------------------

def points_doc(p: PointSet) -> dict:
    return {
        "format": FORMAT,
        "dim": p.dim,
        "points": [[_rat_out(c) for c in pt] for pt in p.points],
    }


def _coord(x) -> Rational:
    """A document coordinate as an exact rational (int or Fraction): a JSON
    int stays an int. A value that is not one, a float or a bool say, is a
    bad document."""
    try:
        return rat(x)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def _point_set(doc: dict) -> PointSet:
    pts, dim = _field(doc, "points", list, list), doc["dim"]
    if not _is_int(dim):
        raise ValueError(f"dim must be an integer, not {dim!r}")
    try:
        return PointSet.of(pts, dim=dim)
    except TypeError as exc:  # a coordinate that is not one, as in _coord
        raise ValueError(str(exc)) from None


def points_from(doc: dict) -> PointSet:
    _check_format(doc)
    return _point_set(doc)


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
    return [Strip(d["axis"], _coord(d["lo"]), _coord(d["hi"]))
            for d in _field(doc, "strips", list, dict)]


# -- AP spec -----------------------------------------------------------------

def apspec_from(doc: dict) -> APSpec:
    _check_format(doc)
    g = _field(doc, "generator", dict)
    return APSpec(g["kind"], tuple(_ints(g, "params")), tuple(sorted(set(_ints(doc, "M")))),
                  doc["mode"])


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
    fam = _field(doc, "family", dict)
    s = fam.get("s", 1)
    if not _is_int(s):
        raise ValueError(f"s must be an integer, not {s!r}")
    family = RangeFamily(_field(fam, "tag", str), s)
    params = _field(doc, "params", dict)
    for k, v in params.items():
        if not _is_int(v) and not is_int_list(v):
            raise ValueError(f"{k} must be an integer or a list of integers, not {v!r}")
    theorem_scale = doc["theorem_scale"]
    if not isinstance(theorem_scale, bool):
        raise ValueError(f"theorem_scale must be a JSON bool, not {theorem_scale!r}")
    groups = _field(doc, "groups", dict)
    kind, points = doc["kind"], _point_set(doc)
    for k in groups:  # one min and one max: instances run to thousands of points
        if _ints(groups, k) and not 0 <= min(groups[k]) <= max(groups[k]) < len(points):
            raise ValueError(f"{k} names a vertex outside [0, {len(points)})")
    inst = ConstructionInstance(
        kind,
        points,
        family,
        {k: (tuple(v) if isinstance(v, list) else v) for k, v in params.items()},
        {k: tuple(groups[k]) for k in groups},
    )
    if theorem_scale != inst.theorem_scale:
        raise ValueError(f"theorem_scale must be {str(inst.theorem_scale).lower()} "
                         f"for this {kind} instance")
    return inst


# -- results -----------------------------------------------------------------

def witness_doc(w: ViolationWitness) -> dict:
    return {"format": FORMAT, "edge": list(w.edge), "kind": w.kind, "detail": w.detail}


def coloring_doc(chi: ColorAssignment) -> dict:
    return {"format": FORMAT, "k": chi.k, "colors": list(chi.colors)}


def coloring_from(doc: dict) -> ColorAssignment:
    _check_format(doc)
    if not _is_int(doc["k"]):
        raise ValueError(f"k must be an integer, not {doc['k']!r}")
    return ColorAssignment(doc["k"], tuple(_ints(doc, "colors")))


def vertexset_from(doc: dict) -> VertexSet:
    _check_format(doc)
    return VertexSet.of(_ints(doc, "members"))
