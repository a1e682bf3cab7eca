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

All coordinates are exact rationals (int or Fraction); an int coordinate
stays an int. Capture depends only on their order, so every test runs in
rank space (the reduction of Gabow, Bentley and Tarjan, STOC 1984). A
point set computes, once and only when first asked, the dense rank of
each point on each axis (``PointSet.ranks``) and per axis the point
indices sorted by (rank, index) with their ranks (``PointSet.orders``).
Tied coordinates share a rank: they are inseparable (no boundary between
them), which makes the strict/closed distinction immaterial except at
ties. After that one sort per axis, no capture test
compares a Fraction.

One table, `_BOXES`, gives each family's ranges as box shapes: per axis,
bounded below, above, on both sides or not at all. `capture_edges`
enumerates the boxes of each shape on int bitmasks of point indices (runs,
down-sets and up-sets of rank groups, intersected as ints; strip unions
unite them) and turns each distinct mask into a sorted edge only at the
end. `capture_contains` tests one subset: the smallest box of each shape
that holds it, scanning only the narrowest rank window, or for unions of
strips a cover search over the maximal runs of members. `first_uncaptured`
tests a batch of edges of a one-shape family on the cut masks of
`rank_cuts`, built once per bounded axis. Every operation returns
canonically sorted, deterministic output.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, compress
from operator import le, or_
from typing import Iterable, Optional, Sequence

from .core import Hypergraph, VertexSet, _unchecked

Rational = int | Fraction  # an exact rational; an int coordinate stays an int
Point = tuple[Rational, ...]  # a tuple of exact rationals (int or Fraction)

# The family table: how each family's ranges bound each axis, as the
# shapes of the boxes they are made of. Bit _LO bounds an axis below, bit
# _UP above. A strip-union or cross-union range is a union of strips.
_LO, _UP = 1, 2
_FREE, _TWO = 0, _LO | _UP
_BOXES = {
    "bottomless": ((_TWO, _UP),),
    "strips": ((_TWO, _FREE), (_FREE, _TWO)),
    "strip-union": ((_TWO, _FREE), (_FREE, _TWO)),
    "cross-union": ((_TWO, _FREE), (_FREE, _TWO)),
    "rectangles": ((_TWO, _TWO),),
    "octants": ((_LO, _UP, _UP),),
    "tfin-slabs": ((_TWO, _UP, _UP),),
    "hextants": ((_LO, _UP, _UP, _UP),),
}


def rat(x) -> Rational:
    """Coerce a coordinate to an exact rational (int or Fraction): an int
    and a Fraction come back unchanged, a 'num/den' string or another int
    type becomes a Fraction. A bool is not a coordinate. The exact types
    are tested first: `isinstance` against Fraction, an abstract base
    class, is the slow test."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, (int, str)) and type(x) is not bool:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"not an exact coordinate: {x!r}")


@dataclass(frozen=True)
class RangeFamily:
    tag: str
    s: int = 1  # strip count, used by strip-union only

    def __post_init__(self):
        if self.tag not in _BOXES:
            raise ValueError(f"unknown family {self.tag!r}")
        if self.tag == "strip-union" and self.s < 1:
            raise ValueError("strip-union needs s >= 1")
        if self.tag != "strip-union" and self.s != 1:
            raise ValueError(f"family {self.tag} takes no strip count, got s={self.s}")

    @property
    def dim(self) -> int:
        return len(_BOXES[self.tag][0])


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
        pts = tuple(tuple(map(rat, p)) for p in points)
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

def _group_masks(p: PointSet, axis: int) -> list[int]:
    """Per rank on the axis, ascending, the bitmask of the points at that
    rank (bit i is point i)."""
    order, keys = p.orders[axis]
    groups: list[int] = []
    for i, k in zip(order, keys):
        if k == len(groups):
            groups.append(0)
        groups[k] |= 1 << i
    return groups


def _runs(groups: list[int]) -> list[int]:
    """Masks of the point sets cut out by one open or closed interval on an
    axis: the unions of contiguous rank groups."""
    return [r for lo in range(len(groups)) for r in accumulate(groups[lo:], or_)]


def _downsets(groups: list[int]) -> list[int]:
    """Masks of the nonempty unions of a prefix of the rank groups: the
    point sets below a cut on the axis (above it for reversed groups)."""
    return list(accumulate(groups, or_))


def rank_cuts(p: PointSet, axis: int) -> tuple[list[int], list[int]]:
    """Per rank r on the axis, (up, down): up[r] is the mask of the points
    at rank >= r, down[r] the mask of those at rank <= r."""
    groups = _group_masks(p, axis)
    return _downsets(groups[::-1])[::-1], _downsets(groups)


def _meet(masks, cuts) -> set[int]:
    """The distinct nonempty intersections of a mask with a cut."""
    out = {a & b for a in masks for b in cuts}
    out.discard(0)
    return out


_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(mask: int, indices: range) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    return tuple(compress(indices, bin(mask)[:1:-1].encode().translate(_BITS)))


# ---------------------------------------------------------------------------
# capture_edges
# ---------------------------------------------------------------------------

def _box_captures(groups: list[list[int]], shape: tuple[int, ...]) -> Iterable[int]:
    """The distinct nonempty captures of the boxes of a shape: per bounded
    axis its runs, down-sets or up-sets (the down-sets of the reversed
    groups), met in axis order."""
    sets = None
    for g, kind in zip(groups, shape):
        if kind:
            cuts = _runs(g) if kind == _TWO else _downsets(g if kind == _UP else g[::-1])
            sets = cuts if sets is None else _meet(sets, cuts)
    return sets


def capture_edges(
    p: PointSet,
    fam: RangeFamily,
    exact: Optional[int] = None,
    at_least: Optional[int] = None,
) -> Hypergraph:
    """Hypergraph of all distinct nonempty subsets of p capturable by one
    range of the family, optionally filtered by edge size.

    Every point set is an int bitmask. Per axis, the runs (one interval),
    the down-sets (one upper bound) or the up-sets (one lower bound) are
    unions of rank groups; a box's capture is the intersection of one of
    each bounded axis of its shape (united over the strips for the strip
    unions). Each intersection step keeps only the distinct nonempty
    masks, and each mask that survives the size filter becomes one edge.
    """
    _check_dims(p, fam)
    if exact is not None and at_least is not None:
        raise ValueError("give at most one of exact / at_least")
    n = len(p.points)
    groups = [_group_masks(p, ax) for ax in range(p.dim)]
    captures = [_box_captures(groups, shape) for shape in _BOXES[fam.tag]]
    sets = set().union(*captures)
    if fam.tag == "strip-union":
        singles = layer = frozenset(sets)
        for _ in range(fam.s - 1):  # the unions of up to s strips
            layer = {u | t for u in layer for t in singles}
            sets |= layer
    elif fam.tag == "cross-union":
        vert, horiz = captures
        sets.update(a | b for a in vert for b in horiz)

    if exact is not None:
        sets = [s for s in sets if s.bit_count() == exact]
    elif at_least is not None:
        sets = [s for s in sets if s.bit_count() >= at_least]
    indices = range(n)
    return _unchecked(Hypergraph, n=n, edges=tuple(sorted(_members(s, indices) for s in sets)))


# ---------------------------------------------------------------------------
# capture_contains: direct membership tests on the same family table
# ---------------------------------------------------------------------------

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


def _contains_box(p: PointSet, shape: tuple[int, ...], subset: frozenset) -> bool:
    """Does the smallest box of the shape that holds `subset` hold no other
    point? A point tied with a member on a bounded axis cannot be excluded.
    Only the points inside the narrowest rank window of a bounded axis are
    scanned, and none when the window, which holds all of `subset`, holds
    just as many points."""
    box = []
    for ax, kind in enumerate(shape):
        if kind:
            r = p.ranks[ax]
            vals = [r[i] for i in subset]
            box.append((r, min(vals) if kind & _LO else 0,
                        max(vals) if kind & _UP else len(r), ax))
    order, start, stop = _box_window(p, box)
    if stop - start > len(subset):
        for i in order[start:stop]:
            if i not in subset:
                for r, lo, hi, _ in box:
                    if not lo <= r[i] <= hi:
                        break
                else:
                    return False
    return True


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


def _contains_strip_cover(p: PointSet, fam: RangeFamily, subset: frozenset) -> bool:
    """Is `subset` the union of up to s strips (strip-union), or of one
    vertical and one horizontal strip, either possibly empty (cross-union),
    that hold no other point? Each strip's capture lies in a maximal run of
    ranks whose points are all members (`_maximal_usable_runs`), and
    widening it to that run keeps it valid, so only those runs are tried.
    The least member left uncovered lies in one of them (exact DFS)."""
    xs, ys = (_maximal_usable_runs(p, subset, ax) for ax in (0, 1))

    def cover(rest: frozenset, pools: tuple) -> bool:
        # pools: (runs, k) pairs, taking at most k runs from each
        if not rest:
            return True
        v = min(rest)
        return any(cover(rest - run, pools[:i] + ((runs, k - 1),) + pools[i + 1:])
                   for i, (runs, k) in enumerate(pools) if k for run in runs if v in run)

    return cover(subset, ((xs, 1), (ys, 1)) if fam.tag == "cross-union" else ((xs + ys, fam.s),))


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
    if fam.tag == "cross-union" or fam.tag == "strip-union" and fam.s > 1:
        return _contains_strip_cover(p, fam, sub)
    return any(_contains_box(p, shape, sub) for shape in _BOXES[fam.tag])


def first_uncaptured(
    p: PointSet, fam: RangeFamily, edges: Iterable[Sequence[int]], point_of: Sequence[int]
) -> Optional[int]:
    """Index of the first edge whose image {point_of[v] : v in edge} is not
    captured (capture_contains would say False), or None if every image is.
    Each edge lists its vertices in ascending order, as Hypergraph.edges do.

    For a single-box family the dimension check, the range check of
    point_of and, per bounded axis, each vertex's rank and the cut masks
    (rank_cuts) are done once. An edge's box is the AND of up[min rank] and
    down[max rank] over its bounded axes; it holds the image, so the image
    is captured iff the box holds nothing else: a popcount equal to the
    edge size when point_of is injective, else the OR of the image bits.
    Tied points share a rank, so a point tied with a member is never cut
    off. Where the ranks of an axis never decrease along the vertices, an
    edge's extreme ranks there are those of its first and last vertex, so
    those cuts are ANDed per vertex once. Other families test each image
    with capture_contains."""
    _check_dims(p, fam)
    if point_of and (min(point_of) < 0 or max(point_of) >= len(p.points)):
        raise IndexError("subset index out of range")
    boxes = _BOXES[fam.tag]
    if len(boxes) != 1:
        for k, e in enumerate(edges):
            if not capture_contains(p, fam, [point_of[v] for v in e]):
                return k
        return None
    # head[v] / tail[v]: the AND of the lower / upper cuts at v's ranks on
    # the axes whose ranks never decrease along the vertices; every other
    # cut is (rank of each vertex, masks, min or max).
    whole = (1 << len(p.points)) - 1
    head, tail = [whole] * len(point_of), [whole] * len(point_of)
    cuts = []
    for ax, kind in enumerate(boxes[0]):
        if kind:
            up, down = rank_cuts(p, ax)
            r = p.ranks[ax]
            rank = [r[i] for i in point_of]
            ends = all(map(le, rank, rank[1:]))
            for bound, masks, at, extreme in ((_LO, up, head, min), (_UP, down, tail, max)):
                if kind & bound:
                    if ends:
                        at[:] = [m & masks[k] for m, k in zip(at, rank)]
                    else:
                        cuts.append((rank.__getitem__, masks, extreme))
    injective = len(set(point_of)) == len(point_of)
    bit = [1 << i for i in point_of].__getitem__
    for k, e in enumerate(edges):
        if not e:
            return k
        box = head[e[0]] & tail[e[-1]]
        for rank, masks, extreme in cuts:
            box &= masks[extreme(map(rank, e))]
        if (box.bit_count() != len(e) if injective
                else box != reduce(or_, map(bit, e))):
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
    "rank_cuts",
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
    lo: Rational
    hi: Rational

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        if self.lo >= self.hi:
            raise ValueError(f"degenerate strip: lo={self.lo} >= hi={self.hi}")

    def contains(self, x: Rational, y: Rational) -> bool:
        v = x if self.axis == "x" else y
        return self.lo < v < self.hi


def _cell_samples(bounds: list[Rational]) -> list[Rational]:
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
