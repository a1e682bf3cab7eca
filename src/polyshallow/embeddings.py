"""Structure-preserving maps between arithmetic-progression hypergraphs and
geometric range-capturing hypergraphs, plus a universal edge-preservation
verifier.

Orientation note: the octant/hextant family is fixed as x >= x0 with all
other coordinates bounded above (y <= y0, ...). The valuation maps
therefore emit images whose y/z coordinates are the negatives of the
textbook 1 - 1/g form (1/g - 1, sentinel +1 for zero valuation), which is
the reflection-equivalent layout for this orientation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import Hypergraph
from .geometry import (
    HEXTANTS,
    OCTANTS,
    TFIN_SLABS,
    PointSet,
    RangeFamily,
    first_uncaptured,
)

Frac = Fraction


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


def valuation(n: int, p: int) -> Optional[int]:
    """Exponent of p in n; None encodes infinity (n == 0)."""
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

@dataclass(frozen=True)
class _Chain:
    """Divisor chain d_0 = 1 | d_1 | d_2 | ...; powers(t) is the chain t^i.
    For explicit finite chains the last position's digit is unbounded."""

    divisors: tuple[int, ...]  # ascending, starting at 1
    extend_base: Optional[int]  # t for powers-style unbounded chains

    def divisor(self, i: int) -> int:
        if i < len(self.divisors):
            return self.divisors[i]
        if self.extend_base is None:
            raise IndexError("finite chain exhausted")
        d = self.divisors[-1]
        for _ in range(i - len(self.divisors) + 1):
            d *= self.extend_base
        return d

    def top_position(self, n: int) -> int:
        """Largest i with d_i <= n (n >= 1)."""
        i = 0
        while True:
            try:
                nxt = self.divisor(i + 1)
            except IndexError:
                return min(i, len(self.divisors) - 1)
            if nxt > n:
                return i
            i += 1

    def digits(self, n: int) -> list[tuple[int, int]]:
        """Nonzero digits of n in the chain basis, ascending position."""
        out = []
        while n > 0:
            i = self.top_position(n)
            d = self.divisor(i)
            c = n // d
            out.append((i, c))
            n -= c * d
        out.reverse()
        return out


def chain_of_powers(t: int) -> _Chain:
    if t < 2:
        raise ValueError("powers chain needs t >= 2")
    return _Chain((1,), t)


def chain_explicit(divisors: Sequence[int]) -> _Chain:
    ds = tuple(divisors)
    if not ds or ds[0] != 1:
        ds = (1,) + ds
    prev = None
    for d in ds:
        if prev is not None and (d <= prev or d % prev != 0):
            raise ValueError("chain must be strictly increasing, each dividing the next")
        prev = d
    return _Chain(ds, None)


@dataclass(frozen=True)
class SquareLayout:
    """Result of the recursive square placement: one point per element of S
    (x = the number itself), plus the placed boxes for inspection."""

    points: PointSet
    corr: Correspondence
    boxes: dict  # number -> (y_west, z_south, side)


def map_powers_to_octants(s_vertices: Iterable[int], chain: _Chain) -> SquareLayout:
    """Place nested squares on the y-z plane so every infinite AP with a
    chain difference is cut out by one octant over the image points.

    Children of a square (one extra nonzero digit) go on a NW-to-SE
    diagonal ordered by digit position then digit value, with pairwise
    disjoint y-ranges (increasing) and z-ranges (decreasing); each number's
    point sits at the southwest corner of its square.
    """
    svals = sorted(set(s_vertices))
    if any(v < 0 for v in svals):
        raise ValueError("S must contain naturals")
    # tree: every prefix (ancestor) of every member, rooted at 0
    children: dict[int, set[tuple[int, int, int]]] = {0: set()}
    for n in svals:
        digs = chain.digits(n)
        acc = 0
        for pos, val in digs:
            parent = acc
            acc += val * chain.divisor(pos)
            children.setdefault(parent, set()).add((pos, val, acc))
            children.setdefault(acc, set())

    boxes: dict[int, tuple[Frac, Frac, Frac]] = {}

    def place(node: int, yw: Frac, zs: Frac, side: Frac) -> None:
        boxes[node] = (yw, zs, side)
        kids = sorted(children.get(node, ()))
        for r, (_, _, kid) in enumerate(kids, start=1):
            kside = side / (2 ** (r + 2))
            kyw = yw + side * (1 - Frac(1, 2**r))
            kzs = zs + side * Frac(1, 2**r) - kside
            place(kid, kyw, kzs, kside)

    place(0, Frac(0), Frac(0), Frac(1))
    pts = []
    pairs = []
    for i, n in enumerate(svals):
        yw, zs, _ = boxes[n]
        pts.append((Frac(n), yw, zs))
        pairs.append((n, i))
    return SquareLayout(
        PointSet.of(pts, dim=3),
        Correspondence("numbers-to-points", "octants", tuple(pairs)),
        boxes,
    )


# ---------------------------------------------------------------------------
# Two-base valuations -> octants (and the reverse)
# ---------------------------------------------------------------------------

def _coprime(a: int, b: int) -> bool:
    while b:
        a, b = b, a % b
    return a == 1


def map_pq_to_octants(
    s_vertices: Iterable[int], p: int, q: int, M: Iterable[int]
) -> tuple[PointSet, Correspondence]:
    """Image of S under the two-base valuation map; every infinite AP with
    difference p^i q^j (i,j >= 1, plus d=1; all d when M={0}) admissible
    for M is octant-captured over the image."""
    if p < 2 or q < 2 or not _coprime(p, q):
        raise ValueError("p, q must be coprime and >= 2")
    ms = sorted(set(M))
    if len({mu % (p * q) for mu in ms}) != len(ms):
        raise ValueError("duplicate residues in M")
    svals = sorted(set(s_vertices))
    if any(v < 0 for v in svals):
        raise ValueError("S must contain naturals")
    pts = []
    if ms == [0]:
        for n in svals:
            g1, g2 = valuation(n, p), valuation(n, q)
            y = Frac(-1) if g1 is None else (Frac(1) if g1 == 0 else Frac(1, g1) - 1)
            z = Frac(-1) if g2 is None else (Frac(1) if g2 == 0 else Frac(1, g2) - 1)
            pts.append((Frac(n), y, z))
    else:
        if any(mu >= p * q for mu in ms):
            raise ValueError("M must lie in [0, pq) for the residue-square layout")
        # residue blocks are offset by 2r (not r): each block's coordinate
        # range has width 1, so a spacing of 1 would make neighbouring
        # blocks touch and leak across closed octant boundaries
        for n in svals:
            r = n % (p * q)
            base = n - r
            g1, g2 = valuation(base, p), valuation(base, q)
            y = (Frac(-1) if g1 is None else Frac(1, g1) - 1) - 2 * r
            z = (Frac(-1) if g2 is None else Frac(1, g2) - 1) + 2 * r
            pts.append((Frac(n), y, z))
    pairs = tuple((n, i) for i, n in enumerate(svals))
    return PointSet.of(pts, dim=3), Correspondence("numbers-to-points", "octants", pairs)


def _increasing_labels(bases: list[int], coprime_to: int) -> list[int]:
    """Per point (in ascending x-rank): base * k with the smallest k >= 1
    coprime to `coprime_to` keeping labels strictly increasing."""
    labels = []
    prev = 0
    for base in bases:
        k = prev // base + 1
        while not _coprime(k, coprime_to):
            k += 1
        labels.append(base * k)
        prev = labels[-1]
    return labels


def map_octants_to_pq(p3: PointSet, p: int, q: int) -> Correspondence:
    """Label octant points with naturals p^y-rank * q^z-rank * k so that
    every octant-captured edge maps into {k*d : k >= 1} for one difference
    d = p^i q^j (checked by check_octant_divisibility)."""
    if p3.dim != 3:
        raise ValueError("need a 3-dimensional point set")
    if p < 2 or q < 2 or not _coprime(p, q):
        raise ValueError("p, q must be coprime and >= 2")
    by_x = p3.orders[0][0]
    bases = [p ** (1 + p3.position(1, i)) * q ** (1 + p3.position(2, i)) for i in by_x]
    labels = _increasing_labels(bases, p * q)
    pairs = tuple(sorted((labels[pos], i) for pos, i in enumerate(by_x)))
    return Correspondence("points-to-numbers", "octants", pairs)


def map_hextants_to_pqr(p4: PointSet, p1: int, p2: int, p3_: int) -> Correspondence:
    """Four-dimensional analogue of map_octants_to_pq with three bases."""
    if p4.dim != 4:
        raise ValueError("need a 4-dimensional point set")
    for a, b in ((p1, p2), (p1, p3_), (p2, p3_)):
        if not _coprime(a, b):
            raise ValueError("bases must be pairwise coprime")
    if min(p1, p2, p3_) < 2:
        raise ValueError("bases must be >= 2")
    by_x = p4.orders[0][0]
    bases = [p1 ** (1 + p4.position(1, i)) * p2 ** (1 + p4.position(2, i))
             * p3_ ** (1 + p4.position(3, i)) for i in by_x]
    labels = _increasing_labels(bases, p1 * p2 * p3_)
    pairs = tuple(sorted((labels[pos], i) for pos, i in enumerate(by_x)))
    return Correspondence("points-to-numbers", "hextants", pairs)


def check_corner_divisibility(
    pts: PointSet, corr: Correspondence, bases: Sequence[int]
) -> PreservationReport:
    """For every octant/hextant-captured edge, the labels must be a subset
    of the positive multiples of d = prod(base_i ^ min bounded-axis rank)."""
    fam = OCTANTS if pts.dim == 3 else HEXTANTS
    from .geometry import capture_edges  # local import to avoid cycle noise

    ranks = [[1 + pts.position(ax, i) for i in range(len(pts))] for ax in range(1, pts.dim)]
    labels = {i: corr.label_of(i) for i in range(len(pts.points))}
    h = capture_edges(pts, fam)
    for e in h.edges:
        d = 1
        for ax, base in enumerate(bases):
            d *= base ** min(ranks[ax][i] for i in e)
        for i in e:
            if labels[i] % d != 0 or labels[i] <= 0:
                return PreservationReport("failed", fam.tag, "points-to-numbers", e)
    return PreservationReport("all-preserved", fam.tag, "points-to-numbers")


def check_tfin_prefix(pts: PointSet, corr: Correspondence) -> PreservationReport:
    """Every tfin-slab edge's labels form a prefix of the label sequence of
    the octant edge obtained by dropping the slab's upper x bound."""
    from .geometry import capture_edges

    labels = [corr.label_of(i) for i in range(len(pts.points))]
    h = capture_edges(pts, TFIN_SLABS)
    xr, yr, zr = pts.ranks
    for e in h.edges:
        lox = min(xr[i] for i in e)
        topy = max(yr[i] for i in e)
        topz = max(zr[i] for i in e)
        octant_edge = [
            i for i in range(len(pts)) if xr[i] >= lox and yr[i] <= topy and zr[i] <= topz
        ]
        oct_labels = sorted(labels[i] for i in octant_edge)
        e_labels = sorted(labels[i] for i in e)
        if oct_labels[: len(e_labels)] != e_labels:
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

    y is 1/t-valuation with sentinel 2 for valuation 0; x(0) is placed
    below every 1 - 1/n to keep x injective (1 - 1/1 = 0 would collide
    with the textbook phi(0) = (0,0)).
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    ms = sorted(set(M))
    if len({mu % t for mu in ms}) != len(ms):
        raise ValueError("duplicate residues in M")
    svals = sorted(set(s_vertices))
    if any(v < 0 for v in svals):
        raise ValueError("S must contain naturals")
    pts = []
    if ms == [0]:
        for n in svals:
            if n == 0:
                pts.append((Frac(-1), Frac(0)))
                continue
            tv = valuation(n, t)
            y = Frac(2) if tv == 0 else Frac(1, tv)
            pts.append((1 - Frac(1, n), y))
    else:
        if any(mu >= t for mu in ms):
            raise ValueError("M must lie in [0, t) for the residue-box layout")
        for n in svals:
            if n == 0:
                pts.append((Frac(0), Frac(0)))
                continue
            r = n % t
            base = n - r
            tv = valuation(base, t)  # None only when n == r
            y = Frac(0) if tv is None else Frac(1, tv)
            pts.append((2 * r + 1 - Frac(1, n), y))
    pairs = tuple((n, i) for i, n in enumerate(svals))
    return PointSet.of(pts, dim=2), Correspondence("numbers-to-points", "bottomless", pairs)


# ---------------------------------------------------------------------------
# Rectangles -> bounded-x octant slabs
# ---------------------------------------------------------------------------

def map_rectangles_to_tfin(p2: PointSet) -> tuple[PointSet, Correspondence]:
    """(u, v) -> (u, v, -v): the image lies on a plane with normal (0,1,1)
    and every rectangle capture becomes a tfin-slab capture."""
    if p2.dim != 2:
        raise ValueError("need a 2-dimensional point set")
    pts = [(u, v, -v) for (u, v) in p2.points]
    pairs = tuple((i, i) for i in range(len(pts)))
    return PointSet.of(pts, dim=3), Correspondence("numbers-to-points", "tfin-slabs", pairs)


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
