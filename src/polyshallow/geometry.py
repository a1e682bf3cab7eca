"""Exact-coordinate point sets and geometric range capture.

Families and boundary conventions (as in the source definitions):

- bottomless:  x0 < x < x1, y < y0           (strict, dim 2)
- strips:      x0 < x < x1  or  y0 < y < y1  (strict, dim 2)
- strip-union(s): union of s strips           (strict, dim 2)
- cross-union: one horizontal plus one vertical strip (strict, dim 2)
- rectangles:  x0 <= x <= x1, y0 <= y <= y1   (closed, dim 2)
- octants:     x >= x0, y <= y0, z <= z0      (closed, dim 3)
- tfin-slabs:  x1 <= x <= x2, y <= y0, z <= z0 (closed, dim 3)
- hextants:    x >= x0, y <= y0, z <= z0, w <= w0 (closed, dim 4)

All coordinates are exact rationals, but capture depends only on their
order, so every test runs in rank space (the reduction of Gabow, Bentley
and Tarjan, STOC 1984). A point set computes, once and only when first
asked, the dense rank of each point on each axis (``PointSet.ranks``) and
per axis the point indices sorted by (rank, index) with their ranks
(``PointSet.orders``). Tied coordinates share a rank: they are inseparable
(no boundary between them), which makes the strict/closed distinction
immaterial except at ties. After that one sort per axis, no capture test
compares a Fraction. Every operation returns canonically sorted,
deterministic output.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import Hypergraph, VertexSet

Coord = Fraction
Point = tuple[Fraction, ...]

FAMILY_TAGS = (
    "bottomless",
    "strips",
    "strip-union",
    "cross-union",
    "rectangles",
    "octants",
    "tfin-slabs",
    "hextants",
)


def rat(x) -> Fraction:
    """Coerce ints, 'num/den' strings, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact coordinate: {x!r}")


@dataclass(frozen=True)
class RangeFamily:
    tag: str
    s: int = 1  # strip count, used by strip-union only

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family {self.tag!r}")
        if self.tag == "strip-union" and self.s < 1:
            raise ValueError("strip-union needs s >= 1")

    @property
    def dim(self) -> int:
        if self.tag in ("octants", "tfin-slabs"):
            return 3
        if self.tag == "hextants":
            return 4
        return 2


BOTTOMLESS = RangeFamily("bottomless")
STRIPS = RangeFamily("strips")
CROSS_UNION = RangeFamily("cross-union")
RECTANGLES = RangeFamily("rectangles")
OCTANTS = RangeFamily("octants")
TFIN_SLABS = RangeFamily("tfin-slabs")
HEXTANTS = RangeFamily("hextants")


def strip_union(s: int) -> RangeFamily:
    return RangeFamily("strip-union", s)


@dataclass(frozen=True)
class PointSet:
    dim: int
    points: tuple[Point, ...]

    @staticmethod
    def of(points: Iterable[Sequence], dim: Optional[int] = None) -> "PointSet":
        pts = tuple(tuple(rat(c) for c in p) for p in points)
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty point set")
            dim = len(pts[0])
        if dim not in (2, 3, 4):
            raise ValueError("dimension must be 2, 3 or 4")
        for p in pts:
            if len(p) != dim:
                raise ValueError("point arity does not match dimension")
        return PointSet(dim, pts)

    def __len__(self) -> int:
        return len(self.points)

    # Rank space: cached on first use, never part of ==, hash or formats.

    @cached_property
    def orders(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per axis, (order, keys): the point indices sorted by (coordinate,
        index) and the dense rank of each of them, in that order. The sort
        compares ints: the coordinates scaled to a common denominator."""
        out = []
        for ax in range(self.dim):
            col = [pt[ax] for pt in self.points]
            scale = math.lcm(*(c.denominator for c in col))
            ints = [c.numerator * (scale // c.denominator) for c in col]
            order = tuple(sorted(range(len(ints)), key=ints.__getitem__))
            keys = []
            for t, i in enumerate(order):
                keys.append(0 if t == 0 else keys[-1] + (ints[i] != ints[order[t - 1]]))
            out.append((order, tuple(keys)))
        return tuple(out)

    @cached_property
    def ranks(self) -> tuple[tuple[int, ...], ...]:
        """ranks[axis][i]: dense rank of point i on the axis (ties share one)."""
        out = []
        for order, keys in self.orders:
            r = [0] * len(order)
            for i, k in zip(order, keys):
                r[i] = k
            out.append(tuple(r))
        return tuple(out)

    def position(self, axis: int, i: int) -> int:
        """Place of point i in the (rank, index) order of the axis."""
        order, keys = self.orders[axis]
        return order.index(i, bisect_left(keys, self.ranks[axis][i]))


def _check_dims(p: PointSet, fam: RangeFamily) -> None:
    if p.dim != fam.dim:
        raise ValueError(f"family {fam.tag} needs dim {fam.dim}, point set has {p.dim}")


# ---------------------------------------------------------------------------
# Rank-space helpers
# ---------------------------------------------------------------------------

def _rank_groups(p: PointSet, axis: int) -> list[list[int]]:
    """Point indices grouped by rank on the axis, ascending; ascending
    indices inside a group."""
    order, keys = p.orders[axis]
    groups: list[list[int]] = []
    for i, k in zip(order, keys):
        if k == len(groups):
            groups.append([])
        groups[k].append(i)
    return groups


def _runs(p: PointSet, axis: int):
    """All point subsets cut out by one open or closed interval on an axis:
    contiguous runs of ranks. Yields frozensets."""
    groups = _rank_groups(p, axis)
    for lo in range(len(groups)):
        cur: list[int] = []
        for g in groups[lo:]:
            cur = cur + g
            yield frozenset(cur)


def _downsets(p: PointSet, axis: int):
    """Subsets {pt : rank on the axis <= cut} for every cut, after the
    empty set."""
    cur: set[int] = set()
    yield frozenset()
    for g in _rank_groups(p, axis):
        cur |= set(g)
        yield frozenset(cur)


def _upsets_x(p: PointSet) -> list[frozenset]:
    """Subsets {pt : x rank >= cut} for every cut."""
    out = []
    cur: set[int] = set(range(len(p.points)))
    for g in _rank_groups(p, 0):
        out.append(frozenset(cur))
        cur -= set(g)
    return out


def _strip_captures(p: PointSet) -> list[frozenset]:
    """All nonempty single-strip captures (both orientations), deduplicated."""
    found = set()
    for axis in (0, 1):
        for s in _runs(p, axis):
            if s:
                found.add(s)
    return sorted(found, key=lambda s: sorted(s))


# ---------------------------------------------------------------------------
# capture_edges
# ---------------------------------------------------------------------------

def capture_edges(
    p: PointSet,
    fam: RangeFamily,
    exact: Optional[int] = None,
    at_least: Optional[int] = None,
) -> Hypergraph:
    """Hypergraph of all distinct nonempty subsets of p capturable by one
    range of the family, optionally filtered by edge size."""
    _check_dims(p, fam)
    if exact is not None and at_least is not None:
        raise ValueError("give at most one of exact / at_least")
    n = len(p.points)
    sets: set[frozenset] = set()

    if fam.tag == "bottomless":
        downs = [s for s in _downsets(p, 1) if s]
        for run in _runs(p, 0):
            for d in downs:
                s = run & d
                if s:
                    sets.add(s)
    elif fam.tag == "strips":
        sets.update(_strip_captures(p))
    elif fam.tag == "strip-union":
        singles = _strip_captures(p)
        sets.update(singles)
        prev = set(map(frozenset, singles))
        for _ in range(fam.s - 1):
            nxt = set()
            for u in prev:
                for s in singles:
                    nxt.add(u | s)
            prev = nxt
            sets.update(prev)
    elif fam.tag == "cross-union":
        vert = [s for s in _runs(p, 0) if s]
        horiz = [s for s in _runs(p, 1) if s]
        sets.update(vert)
        sets.update(horiz)
        for a in vert:
            for b in horiz:
                sets.add(a | b)
    elif fam.tag == "rectangles":
        for rx in _runs(p, 0):
            for ry in _runs(p, 1):
                s = rx & ry
                if s:
                    sets.add(s)
    elif fam.tag in ("octants", "hextants"):
        ups = _upsets_x(p)
        down_axes = [list(_downsets(p, ax)) for ax in range(1, p.dim)]
        for ux in ups:
            for combo in itertools.product(*down_axes):
                s = ux
                for d in combo:
                    s = s & d
                    if not s:
                        break
                if s:
                    sets.add(s)
    elif fam.tag == "tfin-slabs":
        downs_y = list(_downsets(p, 1))
        downs_z = list(_downsets(p, 2))
        for run in _runs(p, 0):
            for dy in downs_y:
                s0 = run & dy
                if not s0:
                    continue
                for dz in downs_z:
                    s = s0 & dz
                    if s:
                        sets.add(s)
    else:  # pragma: no cover
        raise AssertionError(fam.tag)

    if exact is not None:
        sets = {s for s in sets if len(s) == exact}
    if at_least is not None:
        sets = {s for s in sets if len(s) >= at_least}
    return Hypergraph.from_edges(n, (tuple(sorted(s)) for s in sets))


# ---------------------------------------------------------------------------
# capture_contains: direct membership tests, independent of capture_edges
# ---------------------------------------------------------------------------

# How a box family bounds each axis: bit _LO bounds it below, bit _UP above.
_LO, _UP = 1, 2
_FREE, _TWO = 0, _LO | _UP
_X_INTERVAL, _Y_INTERVAL = (_TWO, _FREE), (_FREE, _TWO)
_BOXES = {
    "bottomless": ((_TWO, _UP),),
    "strips": (_X_INTERVAL, _Y_INTERVAL),
    "rectangles": ((_TWO, _TWO),),
    "octants": ((_LO, _UP, _UP),),
    "tfin-slabs": ((_TWO, _UP, _UP),),
    "hextants": ((_LO, _UP, _UP, _UP),),
}


def _box_window(p: PointSet, box: list[tuple]) -> tuple[Sequence[int], int, int]:
    """The narrowest rank window of a box, given as (ranks, lo, hi, axis)
    per bounded axis, as (order, start, stop): every point of the box is
    among order[start:stop]."""
    best = None
    for _, lo, hi, ax in box:
        order, keys = p.orders[ax]
        start, stop = bisect_left(keys, lo), bisect_right(keys, hi)
        if best is None or stop - start < best[2] - best[1]:
            best = order, start, stop
    return best


def _box_excludes(box: list[tuple], window: Sequence[int], allowed) -> bool:
    """True iff no point of the window outside `allowed` lies in the box."""
    for i in window:
        if i not in allowed:
            for r, lo, hi, _ in box:
                if not lo <= r[i] <= hi:
                    break
            else:
                return False
    return True


def _contains_box(
    p: PointSet, spec: tuple[int, ...], subset: frozenset, allowed: Optional[frozenset] = None
) -> bool:
    """Does the smallest box of the axis spec that holds `subset` hold no
    point outside `allowed` (default: `subset`)? A point tied with a member
    on a bounded axis cannot be excluded. Only the points inside the
    narrowest rank window of a bounded axis are scanned, and none when the
    window, which holds all of `subset`, holds just as many points."""
    box = []
    for ax, kind in enumerate(spec):
        if kind:
            r = p.ranks[ax]
            vals = [r[i] for i in subset]
            box.append((r, min(vals) if kind & _LO else 0,
                        max(vals) if kind & _UP else len(r), ax))
    order, start, stop = _box_window(p, box)
    return stop - start == len(subset) or _box_excludes(
        box, order[start:stop], subset if allowed is None else allowed)


def _maximal_usable_runs(p: PointSet, subset: frozenset, axis: int) -> list[frozenset]:
    """Maximal contiguous runs of ranks on `axis` all of whose points are
    members of `subset`; each is the capture of one strip inside it."""
    order, keys = p.orders[axis]
    bad = {k for i, k in zip(order, keys) if i not in subset}
    out, cur = [], []
    for i, k in zip(order, keys):
        if k not in bad:
            cur.append(i)
        elif cur:
            out.append(frozenset(cur))
            cur = []
    if cur:
        out.append(frozenset(cur))
    return out


def _contains_strip_union(p: PointSet, subset: frozenset, s: int) -> bool:
    """Greedy-free exact search: try to write subset as a union of <= s
    single-strip captures whose union avoids non-members."""
    # candidate strips: the maximal runs inside subset on each axis, which
    # dominate smaller ones
    cands = _maximal_usable_runs(p, subset, 0) + _maximal_usable_runs(p, subset, 1)

    # cover `subset` by at most s candidates (small instances: DFS)
    def dfs(remaining: frozenset, depth: int) -> bool:
        if not remaining:
            return True
        if depth == 0:
            return False
        v = min(remaining)
        return any(dfs(remaining - c, depth - 1) for c in cands if v in c)

    return dfs(subset, s)


def _contains_cross(p: PointSet, subset: frozenset) -> bool:
    """One vertical plus one horizontal strip (either may be placed empty).

    Need intervals I_x, I_y with: every member in I_x or I_y (by the right
    coordinate), every non-member in neither. It suffices to try each
    maximal usable run V on one axis (all points at its ranks are members)
    and cover the remainder by the other axis' span: a larger V only
    shrinks the remainder's span, so maximal runs dominate.
    """
    if any(_contains_box(p, spec, subset) for spec in _BOXES["strips"]):
        return True
    for axis, other in ((0, _Y_INTERVAL), (1, _X_INTERVAL)):
        for v in _maximal_usable_runs(p, subset, axis):
            rest = subset - v
            if not rest or _contains_box(p, other, rest, subset):
                return True
    return False


def capture_contains(p: PointSet, fam: RangeFamily, subset: VertexSet | Iterable[int]) -> bool:
    """True iff subset == p cap R for some range R of the family.

    The empty set is never capturable (edges are nonempty by convention).
    """
    _check_dims(p, fam)
    if isinstance(subset, VertexSet):
        sub = frozenset(subset.members)
    else:
        sub = frozenset(subset)
    if not sub:
        return False
    if min(sub) < 0 or max(sub) >= len(p.points):
        raise IndexError("subset index out of range")
    if fam.tag == "cross-union":
        return _contains_cross(p, sub)
    if fam.tag == "strip-union" and fam.s > 1:
        return _contains_strip_union(p, sub, fam.s)
    boxes = _BOXES["strips" if fam.tag == "strip-union" else fam.tag]
    return any(_contains_box(p, spec, sub) for spec in boxes)


def first_uncaptured(
    p: PointSet, fam: RangeFamily, edges: Iterable[Sequence[int]], point_of: Sequence[int]
) -> Optional[int]:
    """Index of the first edge whose image {point_of[v] : v in edge} is not
    captured (capture_contains would say False), or None if every image is.

    For a single-box family the dimension check, the box spec, the range
    check of point_of and each bounded axis's rank per vertex are done once;
    an edge then costs its min/max ranks, the narrowest rank window and,
    only when the window holds more points than the image, a scan of it.
    Other families test each image with capture_contains."""
    _check_dims(p, fam)
    if point_of and (min(point_of) < 0 or max(point_of) >= len(p.points)):
        raise IndexError("subset index out of range")
    boxes = _BOXES.get(fam.tag, ())
    if len(boxes) != 1:
        for k, e in enumerate(edges):
            if not capture_contains(p, fam, [point_of[v] for v in e]):
                return k
        return None
    n = len(p.points)
    # per bounded axis: the point ranks, the axis, the rank of each vertex
    axes = [(r, ax, [r[i] for i in point_of].__getitem__, kind & _LO, kind & _UP)
            for ax, (r, kind) in enumerate(zip(p.ranks, boxes[0])) if kind]
    injective = len(set(point_of)) == len(point_of)
    for k, e in enumerate(edges):
        if not e:
            return k
        box = [(r, min(map(rank, e)) if lo else 0, max(map(rank, e)) if up else n, ax)
               for r, ax, rank, lo, up in axes]
        # the window holds the image: just as many distinct points means only them
        count = len(e) if injective else len({point_of[v] for v in e})
        order, start, stop = _box_window(p, box)
        if stop - start != count and not _box_excludes(
                box, order[start:stop], {point_of[v] for v in e}):
            return k
    return None


__all__ = [
    "BOTTOMLESS",
    "CROSS_UNION",
    "HEXTANTS",
    "OCTANTS",
    "PointSet",
    "RECTANGLES",
    "RangeFamily",
    "STRIPS",
    "Strip",
    "TFIN_SLABS",
    "capture_contains",
    "capture_edges",
    "dual_strips_hypergraph",
    "first_uncaptured",
    "rat",
    "shrink_edge",
    "strip_union",
]


# ---------------------------------------------------------------------------
# Dual strip hypergraph (vertices are strips, edges are stabbed sets)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Strip:
    axis: str  # "x" (vertical strip, bounds on x) or "y" (horizontal)
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        if self.lo >= self.hi:
            raise ValueError(f"degenerate strip: lo={self.lo} >= hi={self.hi}")

    def contains(self, x: Fraction, y: Fraction) -> bool:
        v = x if self.axis == "x" else y
        return self.lo < v < self.hi


def _cell_samples(bounds: list[Fraction]) -> list[Fraction]:
    """One sample per arrangement cell: midpoints of consecutive boundary
    values plus one point beyond each extreme."""
    vals = sorted(set(bounds))
    if not vals:
        return [Fraction(0)]
    out = [vals[0] - 1]
    for a, b in zip(vals, vals[1:]):
        out.append(Fraction(a + b, 2))
    out.append(vals[-1] + 1)
    # boundary values themselves never matter: strips are open
    return out


def dual_strips_hypergraph(strips: Sequence[Strip]) -> Hypergraph:
    """Vertices are the strips; edges are all distinct nonempty sets
    {strips containing q} over points q of the plane."""
    xs = _cell_samples([s.lo for s in strips if s.axis == "x"]
                       + [s.hi for s in strips if s.axis == "x"])
    ys = _cell_samples([s.lo for s in strips if s.axis == "y"]
                       + [s.hi for s in strips if s.axis == "y"])
    edges = set()
    for x in xs:
        for y in ys:
            stabbed = tuple(i for i, s in enumerate(strips) if s.contains(x, y))
            if stabbed:
                edges.add(stabbed)
    return Hypergraph.from_edges(len(strips), edges)


# ---------------------------------------------------------------------------
# shrink_edge
# ---------------------------------------------------------------------------

def shrink_edge(p: PointSet, fam: RangeFamily, e: VertexSet) -> VertexSet:
    """Remove one vertex from a captured edge so it stays captured.

    Tries coordinate-extreme vertices in a fixed order (max-y, min-x, max-x,
    min-y, then extremes of the remaining axes) and returns the first
    removal that still passes capture_contains.
    """
    members = e.members
    if len(members) < 2:
        raise ValueError("edge must have at least 2 vertices to shrink")
    if not capture_contains(p, fam, e):
        raise ValueError("edge is not capturable by the family")
    order: list[int] = []

    def extreme(axis: int, want_max: bool) -> int:
        key = lambda i: (p.ranks[axis][i], i)
        return (max if want_max else min)(members, key=key)

    axes_plan = [(1, True), (0, False), (0, True), (1, False)]
    for ax in range(2, p.dim):
        axes_plan.append((ax, True))
        axes_plan.append((ax, False))
    for ax, want_max in axes_plan:
        v = extreme(ax, want_max)
        if v not in order:
            order.append(v)
    for v in order:
        rest = VertexSet.of(m for m in members if m != v)
        if capture_contains(p, fam, rest):
            return rest
    raise ValueError("no removable vertex keeps the edge capturable "
                     "(family violates the shrink hypothesis here)")
