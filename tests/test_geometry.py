import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_capture_sets,
    rand_points,
    rand_points_distinct,
    reference_capture_edges,
)
from polyshallow import formats
from polyshallow.constructions import (
    build_bottomless_no3shs,
    build_cross_lb,
    build_dual_strip_lb,
    build_sstrips_lb,
    build_strip_no2shs,
)
from polyshallow.core import VertexSet
from polyshallow.embeddings import (
    chain_explicit,
    chain_of_powers,
    map_powers_to_bottomless,
    map_powers_to_octants,
    map_pq_to_octants,
    map_rectangles_to_tfin,
)
from polyshallow.geometry import (
    BOTTOMLESS,
    CROSS_UNION,
    HEXTANTS,
    OCTANTS,
    RECTANGLES,
    STRIPS,
    TFIN_SLABS,
    PointSet,
    RangeFamily,
    Strip,
    _members,
    capture_contains,
    capture_edges,
    dual_strips_hypergraph,
    rat,
    shrink_edge,
    strip_union,
)

ALL_FAMILIES = [
    BOTTOMLESS, STRIPS, strip_union(1), strip_union(2), strip_union(3), CROSS_UNION,
    RECTANGLES, OCTANTS, TFIN_SLABS, HEXTANTS,
]


def _family_id(fam):
    """The tag, and the strip count of a strip union other than s = 2."""
    return fam.tag if fam.tag != "strip-union" or fam.s == 2 else f"{fam.tag}-{fam.s}"


def test_bottomless_three_point_example():
    p = PointSet.of([(0, 0), (1, 2), (2, 1)])
    h = capture_edges(p, BOTTOMLESS)
    assert len(h.edges) == 7  # every nonempty subset


def test_strips_example():
    p = PointSet.of([(0, 0), (1, 1), (2, 0)])
    h = capture_edges(p, STRIPS)
    # vertical strips: all x-contiguous; horizontal: y-groups
    assert (0, 2) in h.edges  # horizontal strip around y=0
    assert (0, 1) in h.edges and (1, 2) in h.edges and (0, 1, 2) in h.edges


def test_octants_example():
    p = PointSet.of([(0, 0, 0), (1, 1, 1)])
    h = capture_edges(p, OCTANTS)
    assert set(h.edges) == {(0,), (1,), (0, 1)}


def test_size_filters():
    p = PointSet.of([(0, 0), (1, 2), (2, 1)])
    exact2 = capture_edges(p, BOTTOMLESS, exact=2)
    assert all(len(e) == 2 for e in exact2.edges)
    atleast2 = capture_edges(p, BOTTOMLESS, at_least=2)
    assert all(len(e) >= 2 for e in atleast2.edges)
    with pytest.raises(ValueError):
        capture_edges(p, BOTTOMLESS, exact=2, at_least=2)


def test_dimension_mismatch():
    p = PointSet.of([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        capture_edges(p, OCTANTS)
    with pytest.raises(ValueError):
        capture_contains(p, OCTANTS, [0])


def test_capture_contains_examples():
    p = PointSet.of([(0, 0), (1, 2), (2, 1)])
    assert capture_contains(p, BOTTOMLESS, [0, 2]) is True
    p2 = PointSet.of([(0, 0), (1, 1), (2, 0)])
    assert capture_contains(p2, STRIPS, [0, 2]) is True
    assert capture_contains(p2, STRIPS, []) is False


def test_oracle_equivalence_small():
    rng = random.Random(11)
    for trial in range(20):
        for fam in ALL_FAMILIES:
            n = rng.randint(1, 7)
            p = rand_points(rng, n, fam.dim, coord_range=8)
            got = {frozenset(e) for e in capture_edges(p, fam).edges}
            want = oracle_capture_sets(p, fam.tag, fam.s)
            assert got == want, (fam.tag, p.points)



def _oracle_edges(p, fam, exact=None, at_least=None):
    """The oracle's sets as canonical edges, size-filtered like capture_edges."""
    sets = oracle_capture_sets(p, fam.tag, fam.s)
    if exact is not None:
        sets = {s for s in sets if len(s) == exact}
    if at_least is not None:
        sets = {s for s in sets if len(s) >= at_least}
    return tuple(sorted(tuple(sorted(s)) for s in sets))


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f"{f.tag}-{f.s}")
def test_size_filters_match_oracle(fam):
    rng = random.Random(19)
    for trial in range(12):
        n = rng.randint(1, 7)
        p = (rand_points(rng, n, fam.dim, coord_range=4) if trial % 2
             else rand_points_distinct(rng, n, fam.dim))
        for size in range(n + 2):
            for kw in ({"exact": size}, {"at_least": size}):
                assert capture_edges(p, fam, **kw).edges == _oracle_edges(p, fam, **kw), (
                    p.points, kw)


@st.composite
def _points_and_filter(draw, dim):
    coords = st.tuples(*[st.integers(0, 4)] * dim)
    pts = draw(st.lists(coords, min_size=1, max_size=7, unique=True))
    size = draw(st.integers(0, len(pts) + 1))
    kw = draw(st.sampled_from([{}, {"exact": size}, {"at_least": size}]))
    return PointSet.of(pts), kw


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=_family_id)
@settings(max_examples=40)
@given(data=st.data())
def test_capture_edges_matches_oracle_property(fam, data):
    p, kw = data.draw(_points_and_filter(fam.dim))
    h = capture_edges(p, fam, **kw)
    assert h.n == len(p) and h.edges == _oracle_edges(p, fam, **kw)

def test_every_edge_passes_contains():
    rng = random.Random(12)
    for fam in ALL_FAMILIES:
        p = rand_points(rng, 7, fam.dim)
        h = capture_edges(p, fam)
        for e in h.edges:
            assert capture_contains(p, fam, e) is True


def test_strip_count_only_for_strip_union():
    for tag, s in (("strips", 3), ("octants", 0), ("cross-union", 2), ("strip-union", 0)):
        with pytest.raises(ValueError):
            RangeFamily(tag, s)


def test_strip_union_one_equals_strips():
    rng = random.Random(13)
    for _ in range(15):
        p = rand_points(rng, rng.randint(1, 9), 2)
        a = capture_edges(p, STRIPS)
        b = capture_edges(p, strip_union(1))
        assert a == b


def test_rectangles_intersection_closure():
    rng = random.Random(14)
    for _ in range(15):
        p = rand_points(rng, rng.randint(2, 8), 2)
        edges = [frozenset(e) for e in capture_edges(p, RECTANGLES).edges]
        for a in edges[:20]:
            for b in edges[:20]:
                inter = a & b
                if inter:
                    assert capture_contains(p, RECTANGLES, inter) is True


class _Half(Fraction):
    pass


@pytest.mark.parametrize("x, want", [
    (Fraction(3, 4), Fraction(3, 4)), (_Half(1, 2), Fraction(1, 2)), (7, 7),
    (True, TypeError), ("-5/10", Fraction(-1, 2)), ("4", Fraction(4)),
], ids=["fraction", "fraction-subclass", "int", "bool", "string", "int-string"])
def test_rat_coerces(x, want):
    """An int and a Fraction come back as they are, a string becomes a
    Fraction, and a bool is not a coordinate."""
    if want is TypeError:
        with pytest.raises(TypeError, match="not an exact coordinate"):
            rat(x)
        return
    got = rat(x)
    assert got == want
    assert type(got) is int if type(x) is int else isinstance(got, Fraction)
    if isinstance(x, (int, Fraction)):
        assert got is x


@pytest.mark.parametrize("x", [0.5, None, [1]], ids=["float", "none", "list"])
def test_rat_rejects(x):
    with pytest.raises(TypeError, match="not an exact coordinate"):
        rat(x)
    with pytest.raises(TypeError, match="not an exact coordinate"):
        PointSet.of([(0, x)])


def test_documents_reject_bool_coordinates():
    """JSON true and false are not coordinates: the readers turn the
    TypeError of `rat` into the ValueError of a bad document."""
    points = json.loads('{"format": 1, "dim": 2, "points": [[true, 0], [2, 3]]}')
    with pytest.raises(ValueError, match="not an exact coordinate: True"):
        formats.points_from(points)
    strips = json.loads('{"format": 1, "strips": [{"axis": "x", "lo": false, "hi": 2}]}')
    with pytest.raises(ValueError, match="not an exact coordinate: False"):
        formats.strips_from(strips)


# Every builder and forward map, with the coordinate types it may emit:
# the constructions on integer grids emit ints only.
EXACT_PRODUCERS = {
    "thm2": ({int}, lambda: build_bottomless_no3shs(4).points.points),
    "thm3": ({int, Fraction}, lambda: [(s.lo, s.hi) for s in build_dual_strip_lb(3)[0]]),
    "thm4": ({int}, lambda: build_strip_no2shs(10).points.points),
    "thm5": ({int, Fraction}, lambda: build_cross_lb(3).points.points),
    "thm6": ({int}, lambda: build_sstrips_lb(2, 2, build_strip_no2shs(10)).points.points),
    "powers-octants": ({int, Fraction}, lambda: map_powers_to_octants(
        range(60), chain_of_powers(3)).points.points),
    "chain-octants": ({int, Fraction}, lambda: map_powers_to_octants(
        range(60), chain_explicit([1, 2, 6, 12])).points.points),
    "pq-octants": ({int, Fraction}, lambda: map_pq_to_octants(range(60), 2, 3, [0])[0].points),
    "pq-octants-M": ({int, Fraction}, lambda: map_pq_to_octants(
        range(60), 2, 3, [0, 1, 5])[0].points),
    "powers-bottomless": ({int, Fraction}, lambda: map_powers_to_bottomless(
        range(60), 2, [0])[0].points),
    "powers-bottomless-M": ({int, Fraction}, lambda: map_powers_to_bottomless(
        range(60), 3, [0, 2])[0].points),
    "rectangles-tfin": ({int, Fraction}, lambda: map_rectangles_to_tfin(
        PointSet.of([(0, 1), (Fraction(1, 2), 3), (2, Fraction(-1, 3))]))[0].points),
}

@pytest.mark.filterwarnings("ignore:strips construction at m=10")
@pytest.mark.parametrize("name", EXACT_PRODUCERS)
def test_producers_emit_exact_coordinates(name):
    """Coordinates are exact rationals of type exactly int or Fraction:
    never a float, a bool or a subclass. Every producer emits an integral
    coordinate as an int, never as a Fraction with denominator 1."""
    allowed, produce = EXACT_PRODUCERS[name]
    coords = [c for pt in produce() for c in pt]
    assert coords and {type(c) for c in coords} <= allowed
    assert not [c for c in coords if type(c) is Fraction and c.denominator == 1]


def test_dual_strips_thm3_base():
    strips = [Strip("x", rat(0), rat(2)), Strip("x", rat(1), rat(3)),
              Strip("y", rat(0), rat(2)), Strip("y", rat(1), rat(3))]
    h = dual_strips_hypergraph(strips)
    for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        assert pair in h.edges
    assert any(len(e) > 2 for e in h.edges)


def test_dual_strips_degenerate_cases():
    assert dual_strips_hypergraph([Strip("x", rat(0), rat(1))]).edges == ((0,),)
    two = dual_strips_hypergraph(
        [Strip("x", rat(0), rat(1)), Strip("x", rat(5), rat(6))])
    assert set(two.edges) == {(0,), (1,)}
    with pytest.raises(ValueError):
        Strip("x", rat(1), rat(1))


def test_shrink_edge_examples():
    # three x-collinear points under a bottomless rectangle: drop the top
    p = PointSet.of([(0, 0), (1, 5), (2, 1)])
    e = VertexSet.of([0, 1, 2])
    assert capture_contains(p, BOTTOMLESS, e)
    got = shrink_edge(p, BOTTOMLESS, e)
    assert got.members == (0, 2)  # max-y removed first
    # strips triple: an x-extreme goes
    p2 = PointSet.of([(0, 0), (1, 1), (2, 0)])
    got2 = shrink_edge(p2, STRIPS, VertexSet.of([0, 1, 2]))
    assert len(got2.members) == 2 and capture_contains(p2, STRIPS, got2)
    with pytest.raises(ValueError):
        shrink_edge(p2, STRIPS, VertexSet.of([0]))


def test_shrink_edge_properties():
    # shrinkability needs generic position: with tied coordinates even a
    # plain strip capture can be unshrinkable (tied extremes are inseparable)
    rng = random.Random(15)
    fams = [BOTTOMLESS, STRIPS, strip_union(2), RECTANGLES, OCTANTS]
    for fam in fams:
        for _ in range(20):
            p = rand_points_distinct(rng, rng.randint(2, 8), fam.dim)
            h = capture_edges(p, fam, at_least=2)
            if not h.edges:
                continue
            e = VertexSet.of(rng.choice(h.edges))
            got = shrink_edge(p, fam, e)
            assert len(got.members) == len(e.members) - 1
            assert set(got.members) < set(e.members)
            assert capture_contains(p, fam, got) is True


def test_capture_deterministic_and_sorted():
    rng = random.Random(16)
    p = rand_points(rng, 8, 2)
    a = capture_edges(p, BOTTOMLESS)
    b = capture_edges(p, BOTTOMLESS)
    assert a == b
    assert list(a.edges) == sorted(a.edges)


# Point counts on both sides of each size split of the member tables (two
# lookups up to 16 points, the import-time table up to 64) and of the byte
# edges, as far as each family's edge count allows.
_BELOW_17 = (7, 8, 9, 16, 17)
CAPTURE_SIZES = [
    (BOTTOMLESS, _BELOW_17 + (64, 65, 70)),
    (STRIPS, _BELOW_17 + (64, 65, 70)),
    (strip_union(1), _BELOW_17 + (64, 65, 70)),
    (strip_union(2), _BELOW_17),
    (strip_union(3), _BELOW_17),
    (CROSS_UNION, _BELOW_17),
    (RECTANGLES, _BELOW_17),
    (OCTANTS, _BELOW_17 + (64, 65, 70)),
    (TFIN_SLABS, _BELOW_17),
    (HEXTANTS, _BELOW_17),
]


@pytest.mark.parametrize("fam,sizes", CAPTURE_SIZES, ids=[_family_id(f) for f, _ in CAPTURE_SIZES])
def test_capture_edges_matches_reference(fam, sizes):
    """The byte-table members and the strip pairs united once give the
    same edge tuple as `reference_capture_edges`, unfiltered and under
    both size filters, on tied and on distinct coordinates."""
    rng = random.Random(f"capture/{_family_id(fam)}")
    for n in sizes:
        tied, distinct = rand_points(rng, n, fam.dim, n // 2), rand_points_distinct(rng, n, fam.dim)
        for p in (tied, distinct):
            h = capture_edges(p, fam)
            assert h == reference_capture_edges(p, fam)
            size = len(h.edges[len(h.edges) // 2])
            assert capture_edges(p, fam, exact=size) == reference_capture_edges(p, fam, exact=size)
            assert (capture_edges(p, fam, at_least=size)
                    == reference_capture_edges(p, fam, at_least=size))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 24, 63, 64, 65, 72, 130])
def test_members_at_byte_edges(n):
    """`_members` on masks whose top bit sits at each byte edge below n (bit
    8j - 1 and bit 8j) and at n - 1, alone, over a full run, with bit 0 and
    in an alternating pattern, against a bit-by-bit read."""
    rng = random.Random(n)
    masks = [0]
    for top in sorted({t for t in range(n) if t % 8 in (0, 7)} | {n - 1}):
        below = (1 << top) - 1
        masks += [1 << top, (1 << top) | below, (1 << top) | 1,
                  (1 << top) | below // 3, (1 << top) | rng.getrandbits(top)]
    assert _members(masks, n) == [tuple(i for i in range(n) if m >> i & 1) for m in masks]
    assert _members([], n) == []


# ---------------------------------------------------------------------------
# Rank space: the fast membership test against the Fraction oracle
# ---------------------------------------------------------------------------

def _nonempty_subsets(n):
    for k in range(1, n + 1):
        for c in itertools.combinations(range(n), k):
            yield frozenset(c)


@pytest.mark.parametrize("coord_range", [2, 4, 8])
def test_contains_matches_oracle_on_every_subset(coord_range):
    """Both answers: capture_contains is True exactly on the oracle's sets,
    on every nonempty subset of small point sets with tied coordinates."""
    rng = random.Random(100 + coord_range)
    for fam in ALL_FAMILIES:
        for _ in range(100):
            p = rand_points(rng, rng.randint(1, 7), fam.dim, coord_range=coord_range)
            want = oracle_capture_sets(p, fam.tag, fam.s)
            for sub in _nonempty_subsets(len(p)):
                assert capture_contains(p, fam, sub) is (sub in want), (fam.tag, p.points, sub)


@st.composite
def _points_and_subset(draw, dim):
    coords = st.tuples(*[st.integers(0, 4)] * dim)
    pts = draw(st.lists(coords, min_size=1, max_size=6, unique=True))
    sub = draw(st.sets(st.integers(0, len(pts) - 1), min_size=1))
    return PointSet.of(pts), frozenset(sub)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=_family_id)
@settings(max_examples=60)
@given(data=st.data())
def test_contains_matches_oracle_property(fam, data):
    p, sub = data.draw(_points_and_subset(fam.dim))
    assert capture_contains(p, fam, sub) is (sub in oracle_capture_sets(p, fam.tag, fam.s))


def test_ranks_share_ties_and_orders_break_them_by_index():
    p = PointSet.of([(0, 5), (2, 5), (0, 1)])
    assert p.ranks == ((0, 1, 0), (1, 1, 0))
    assert p.orders == (((0, 2, 1), (0, 0, 1)), ((2, 0, 1), (0, 1, 1)))
    assert [p.position(0, i) for i in range(3)] == [0, 2, 1]


def test_rank_cache_keeps_equality_hash_and_formats():
    p = rand_points(random.Random(18), 7, 3, coord_range=3)
    fresh = PointSet.of(p.points)
    text = formats.dumps(formats.points_doc(fresh))
    assert capture_contains(p, OCTANTS, range(len(p))) is True  # fills the cache
    assert "ranks" in vars(p) and "orders" in vars(p) and "ranks" not in vars(fresh)
    assert p == fresh and hash(p) == hash(fresh)
    assert formats.dumps(formats.points_doc(p)) == text
    assert formats.points_from(json.loads(text)) == p
