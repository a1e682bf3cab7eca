"""Structure-preserving maps between arithmetic-progression hypergraphs and
geometric range-capturing hypergraphs, plus a universal edge-preservation
verifier.

Orientation note: the octant/hextant family is fixed as x >= x0 with all
other coordinates bounded above (y <= y0, ...). The valuation maps
therefore emit images whose y/z coordinates are the negatives of the
textbook 1 - 1/g form (1/g - 1, sentinel +1 for zero valuation), which is
the reflection-equivalent layout for this orientation.

The squares map takes its divisor chain as an `apgraphs.APSpec` of kind
`powers` or `divisorChain` (chain_of_powers and chain_explicit build one
with M = {0}) and reads neither its M nor its mode: its image captures
every infinite chain progression whatever its start, so one spec builds
both A_{D,M} and its image.

The reverse maps label octant points by two pairwise-coprime bases and
hextant points by three, through one labelling for any number of bases.

The three forward maps compute on ints and build each coordinate once
from its final numerator and denominator, as an int when it is integral
and else as an exact Fraction: the squares recursion keeps every corner
as an int over its square's side 2^-shift, and the valuation maps write
1/g - 1 as (1 - g)/g and 1 - 1/n as (n - 1)/n.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from .apgraphs import APSpec, enumerate_differences, sorted_naturals
from .core import Hypergraph
from .geometry import (
    BOTTOMLESS,
    HEXTANTS,
    OCTANTS,
    TFIN_SLABS,
    PointSet,
    RangeFamily,
    Rational,
    capture_edges,
    first_uncaptured,
    rank_cuts,
)

Frac = Fraction


def _exact(num: int, den: int) -> Rational:
    """num/den (den > 0) as an int when den divides num, else as a
    Fraction."""
    q, r = divmod(num, den)
    return Frac(num, den) if r else q


@dataclass(frozen=True)
class Correspondence:
    """Injective label <-> point-index pairing.

    direction is "numbers-to-points" (labels are naturals mapped onto
    produced points) or "points-to-numbers" (point indices labelled by
    naturals). pairs holds (label, point_index)."""

    direction: str
    family: str
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        labels = [a for a, _ in self.pairs]
        idxs = [b for _, b in self.pairs]
        if len(set(labels)) != len(labels) or len(set(idxs)) != len(idxs):
            raise ValueError("correspondence is not injective")

    @cached_property
    def _label_at(self) -> dict[int, int]:
        return {b: a for a, b in self.pairs}

    def label_of(self, idx: int) -> int:
        return self._label_at[idx]


@dataclass(frozen=True)
class PreservationReport:
    status: str  # "all-preserved" | "failed"
    family: str
    direction: str
    failing_edge: Optional[tuple[int, ...]] = None

    @property
    def ok(self) -> bool:
        return self.status == "all-preserved"


def _image(labels: Sequence[int], pts: list, fam: RangeFamily) -> tuple[PointSet, Correspondence]:
    """The image points of a forward map, in fam's dimension, and the
    correspondence that pairs labels[i] with point i."""
    pairs = tuple((n, i) for i, n in enumerate(labels))
    return PointSet.of(pts, dim=fam.dim), Correspondence("numbers-to-points", fam.tag, pairs)


def _offsets(M: Iterable[int], modulus: int) -> list[int]:
    """M ascending without repeats; two offsets that share a residue mod
    modulus are an error."""
    ms = sorted(set(M))
    if len({mu % modulus for mu in ms}) != len(ms):
        raise ValueError("duplicate residues in M")
    return ms


def valuation(n: int, p: int) -> Optional[int]:
    """Exponent of p in n; None encodes infinity (n == 0). Needs p >= 2."""
    if p < 2:
        raise ValueError(f"valuation base must be >= 2, got {p}")
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Squares recursion (powers / divisor chains -> octants)
# ---------------------------------------------------------------------------

def chain_of_powers(t: int) -> APSpec:
    """The chain t^0 | t^1 | t^2 | ... as a `powers` spec with M = {0}."""
    if t < 2:
        raise ValueError("powers chain needs t >= 2")
    return APSpec.powers(t, [0])


def chain_explicit(divisors: Sequence[int]) -> APSpec:
    """The finite chain 1 | d_1 | d_2 | ... as a `divisorChain` spec with
    M = {0}; the leading 1 may be given or left out."""
    ds = tuple(divisors)
    return APSpec.divisor_chain(ds[1:] if ds[:1] == (1,) else ds, [0])


@dataclass(frozen=True)
class SquareLayout:
    """Result of the recursive square placement: one point per element of S
    (x = the number itself), plus the placed boxes for inspection."""

    points: PointSet
    corr: Correspondence
    boxes: dict  # number -> (y_west, z_south, side)


def map_powers_to_octants(s_vertices: Iterable[int], spec: APSpec) -> SquareLayout:
    """Place nested squares on the y-z plane so every infinite AP whose
    difference is in the chain of a `powers` or `divisorChain` spec is cut
    out by one octant over the image points, whatever its start: the map
    reads neither the spec's M nor its mode.

    Each number's digits are read greedily from the top over the chain's
    divisors up to max(S): the rest after digit i is below d_i, so one
    downward pass reads them all, and the last divisor of a finite chain
    takes whatever is left. A number's parent drops its highest digit.

    Children of a square (one extra nonzero digit) go on a NW-to-SE
    diagonal ordered by digit position then digit value, with pairwise
    disjoint y-ranges (increasing) and z-ranges (decreasing); each number's
    point sits at the southwest corner of its square.

    The r-th child of a square with side 2^-s has side 2^-(s+r+2), its west
    edge at y_west + 2^-s - 2^-(s+r) and its south edge at
    z_south + 2^-(s+r) - 2^-(s+r+2). So the walk keeps each corner as an
    int over the square's own 2^-shift, and boxes gets exact Fractions,
    inserted in pre-order (children in the diagonal order).
    """
    if spec.kind not in ("powers", "divisorChain"):
        raise ValueError(f"the squares map needs a powers or divisorChain spec, not {spec.kind!r}")
    svals = sorted_naturals(s_vertices)
    ds = enumerate_differences(spec, max([1] + svals[-1:]))
    # tree: every prefix (ancestor) of every member, rooted at 0
    children: dict[int, set[tuple[int, int, int]]] = {0: set()}
    for n in svals:
        digits, rest = [], n
        for pos in range(len(ds) - 1, -1, -1):
            val, rest = divmod(rest, ds[pos])
            if val:
                digits.append((pos, val))
        acc = 0
        for pos, val in reversed(digits):
            parent = acc
            acc += val * ds[pos]
            children.setdefault(parent, set()).add((pos, val, acc))
            children.setdefault(acc, set())

    boxes: dict[int, tuple[Frac, Frac, Frac]] = {}
    stack = [(0, 0, 0, 0)]  # node, shift, y_west * 2^shift, z_south * 2^shift
    while stack:
        node, shift, y, z = stack.pop()
        den = 1 << shift
        boxes[node] = (Frac(y, den), Frac(z, den), Frac(1, den))
        kids = sorted(children[node])
        for r in range(len(kids), 0, -1):  # pushed last to first: popped in order
            stack.append((kids[r - 1][2], shift + r + 2,
                          ((y << r) + (1 << r) - 1) << 2, (z << (r + 2)) + 3))
    # the root square's corner (0, 0) is the one integral corner: every
    # other square lies strictly inside the root, north-east of it
    pts = [(n, *boxes[n][:2]) if n else (0, 0, 0) for n in svals]
    return SquareLayout(*_image(svals, pts, OCTANTS), boxes)


# ---------------------------------------------------------------------------
# Two-base valuations -> octants, and octants / hextants -> two / three bases
# ---------------------------------------------------------------------------

def map_pq_to_octants(
    s_vertices: Iterable[int], p: int, q: int, M: Iterable[int]
) -> tuple[PointSet, Correspondence]:
    """Image of S under the two-base valuation map; every infinite AP with
    difference p^i q^j (i,j >= 1, plus d=1; all d when M={0}) admissible
    for M is octant-captured over the image."""
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise ValueError("p, q must be coprime and >= 2")
    ms = _offsets(M, p * q)
    svals = sorted_naturals(s_vertices)
    pts = []
    if ms == [0]:
        for n in svals:
            g1, g2 = valuation(n, p), valuation(n, q)
            y = -1 if g1 is None else (1 if g1 == 0 else _exact(1 - g1, g1))
            z = -1 if g2 is None else (1 if g2 == 0 else _exact(1 - g2, g2))
            pts.append((n, y, z))
    else:
        if any(not 0 <= mu < p * q for mu in ms):
            raise ValueError("M must lie in [0, pq) for the residue-square layout")
        # residue blocks are offset by 2r (not r): each block's coordinate
        # range has width 1, so a spacing of 1 would make neighbouring
        # blocks touch and leak across closed octant boundaries; base is a
        # multiple of pq, so g1 and g2 are None (base 0) or >= 1
        for n in svals:
            r = n % (p * q)
            base = n - r
            g1, g2 = valuation(base, p), valuation(base, q)
            y = -1 - 2 * r if g1 is None else _exact(1 - g1 - 2 * r * g1, g1)
            z = 2 * r - 1 if g2 is None else _exact(1 - g2 + 2 * r * g2, g2)
            pts.append((n, y, z))
    return _image(svals, pts, OCTANTS)


def map_octants_to_pq(p3: PointSet, p: int, q: int) -> Correspondence:
    """Label octant points with naturals p^(1+y) q^(1+z) k, y and z their
    positions (see _corner_labels), so that every octant-captured edge maps
    into {k*d : k >= 1} for one d = p^i q^j (check_corner_divisibility)."""
    return _corner_labels(p3, (p, q), "octants")


def map_hextants_to_pqr(p4: PointSet, p1: int, p2: int, p3_: int) -> Correspondence:
    """Four-dimensional analogue of map_octants_to_pq with three bases."""
    return _corner_labels(p4, (p1, p2, p3_), "hextants")


def _corner_labels(pts: PointSet, bases: tuple[int, ...], family: str) -> Correspondence:
    """Point i gets the label prod(base_a ^ (1 + position of i on axis a)) * k
    over the bounded axes a = 1.. in order: its place in the axis's
    (rank, index) order (PointSet.position), distinct where coordinates tie.
    k is the least k >= 1 coprime to the product of the bases that keeps
    the labels strictly increasing in ascending x order."""
    if pts.dim != len(bases) + 1:
        raise ValueError(f"need a {len(bases) + 1}-dimensional point set")
    if min(bases) < 2 or any(gcd(a, b) != 1 for a, b in combinations(bases, 2)):
        raise ValueError(f"bases must be pairwise coprime and >= 2, got {list(bases)}")
    all_bases = prod(bases)
    pairs = []
    label = 0
    for i in pts.orders[0][0]:
        base = prod(b ** (1 + pts.position(ax, i)) for ax, b in enumerate(bases, start=1))
        k = label // base + 1
        while gcd(k, all_bases) != 1:
            k += 1
        label = base * k
        pairs.append((label, i))
    return Correspondence("points-to-numbers", family, tuple(sorted(pairs)))


def check_corner_divisibility(
    pts: PointSet, corr: Correspondence, bases: Sequence[int]
) -> PreservationReport:
    """For every octant/hextant-captured edge, the labels must be positive
    multiples of d = prod(base_a ^ (1 + least position on axis a in the edge)),
    positions as in _corner_labels. There is one base per bounded axis."""
    if len(bases) != pts.dim - 1:
        raise ValueError(f"{len(bases)} bases for the {pts.dim - 1} bounded axes")
    fam = OCTANTS if pts.dim == 3 else HEXTANTS
    ranks = [[1 + pts.position(ax, i) for i in range(len(pts))] for ax in range(1, pts.dim)]
    labels = {i: corr.label_of(i) for i in range(len(pts.points))}
    h = capture_edges(pts, fam)
    for e in h.edges:
        d = prod(base ** min(ranks[ax][i] for i in e) for ax, base in enumerate(bases))
        for i in e:
            if labels[i] % d != 0 or labels[i] <= 0:
                return PreservationReport("failed", fam.tag, "points-to-numbers", e)
    return PreservationReport("all-preserved", fam.tag, "points-to-numbers")


def check_tfin_prefix(pts: PointSet, corr: Correspondence) -> PreservationReport:
    """Every tfin-slab edge's labels form a prefix of the label sequence of
    the octant edge obtained by dropping the slab's upper x bound.

    The octant is the AND of the cut masks x >= the edge's least x rank,
    y <= its greatest y rank and z <= its greatest z rank, and it holds
    the edge. Labels are distinct (the correspondence is injective), so
    the edge is a prefix iff the octant points labelled below the edge's
    largest label are the other points of the edge: one popcount against
    the mask of points with a smaller label, built once per point."""
    labels = [corr.label_of(i) for i in range(len(pts.points))]
    smaller = [0] * len(labels)
    below = 0
    for i in sorted(range(len(labels)), key=labels.__getitem__):
        smaller[i] = below
        below |= 1 << i
    up_x, down_y, down_z = rank_cuts(pts, 0)[0], rank_cuts(pts, 1)[1], rank_cuts(pts, 2)[1]
    xr, yr, zr = (r.__getitem__ for r in pts.ranks)
    for e in capture_edges(pts, TFIN_SLABS).edges:
        octant = (up_x[min(map(xr, e))] & down_y[max(map(yr, e))]
                  & down_z[max(map(zr, e))])
        if (octant & smaller[max(e, key=labels.__getitem__)]).bit_count() != len(e) - 1:
            return PreservationReport("failed", "tfin-slabs", "points-to-numbers", e)
    return PreservationReport("all-preserved", "tfin-slabs", "points-to-numbers")


# ---------------------------------------------------------------------------
# Powers -> bottomless rectangles
# ---------------------------------------------------------------------------

def map_powers_to_bottomless(
    s_vertices: Iterable[int], t: int, M: Iterable[int]
) -> tuple[PointSet, Correspondence]:
    """Image of S under the t-valuation map; every finite AP with
    difference t^i (i >= 1, plus d=1 when M={0}) admissible for M is
    bottomless-captured over the image.

    So with M = {0} the map preserves the `powers` kind's D = {t^i : i >= 0},
    and with M != {0} it preserves D = {t^i : i >= 1}, an explicit set. The
    `powers` kind also holds d = 1, whose progressions the map does not
    claim, and `verify_edge_preservation` reports them failed: at S = 0..30
    and M = {0, 1}, on (0, 1, 2) for t = 2 and on (0, 1, 2, 3) for t = 3,
    where the explicit set is all-preserved for both.

    y is 1/t-valuation with sentinel 2 for valuation 0; x(0) is placed
    below every 1 - 1/n to keep x injective (1 - 1/1 = 0 would collide
    with the textbook phi(0) = (0,0)).
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    ms = _offsets(M, t)
    svals = sorted_naturals(s_vertices)
    pts = []
    if ms == [0]:
        for n in svals:
            if n == 0:
                pts.append((-1, 0))
                continue
            tv = valuation(n, t)
            y = 2 if tv == 0 else _exact(1, tv)
            pts.append((_exact(n - 1, n), y))
    else:
        if any(not 0 <= mu < t for mu in ms):
            raise ValueError("M must lie in [0, t) for the residue-box layout")
        for n in svals:
            if n == 0:
                pts.append((0, 0))
                continue
            r = n % t
            base = n - r
            tv = valuation(base, t)  # None only when n == r
            y = 0 if tv is None else _exact(1, tv)
            pts.append((_exact((2 * r + 1) * n - 1, n), y))
    return _image(svals, pts, BOTTOMLESS)


# ---------------------------------------------------------------------------
# Rectangles -> bounded-x octant slabs
# ---------------------------------------------------------------------------

def map_rectangles_to_tfin(p2: PointSet) -> tuple[PointSet, Correspondence]:
    """(u, v) -> (u, v, -v): the image lies on a plane with normal (0,1,1)
    and every rectangle capture becomes a tfin-slab capture."""
    if p2.dim != 2:
        raise ValueError("need a 2-dimensional point set")
    pts = [(u, v, -v) for (u, v) in p2.points]
    return _image(range(len(pts)), pts, TFIN_SLABS)


# ---------------------------------------------------------------------------
# Universal verifier
# ---------------------------------------------------------------------------

def verify_edge_preservation(
    source: Hypergraph,
    source_labels: Sequence[int],
    target: PointSet,
    fam: RangeFamily,
    corr: Correspondence,
) -> PreservationReport:
    """Check that the image of every source edge is captured by the family
    over the target points. Reports the first failing edge (canonical edge
    order) or all-preserved.

    Source vertex v is labelled source_labels[v], and its image is the
    point the correspondence pairs with that label. Labels may repeat, so
    an image can have fewer points than its edge. A missing label or image
    point raises ValueError before any edge is tested; the edges then go
    through geometry.first_uncaptured in one call."""
    if len(source_labels) < source.n:
        raise ValueError(f"{len(source_labels)} labels for {source.n} source vertices")
    to_point = dict(corr.pairs)
    point_of = []
    for label in source_labels[: source.n]:
        if label not in to_point:
            raise ValueError(f"label {label} has no image point")
        if not 0 <= to_point[label] < len(target):
            raise ValueError(f"label {label} maps to point {to_point[label]}, "
                             f"outside the {len(target)} target points")
        point_of.append(to_point[label])
    k = first_uncaptured(target, fam, source.edges, point_of)
    if k is None:
        return PreservationReport("all-preserved", fam.tag, corr.direction)
    return PreservationReport("failed", fam.tag, corr.direction, source.edges[k])
