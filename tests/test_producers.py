"""Every producer that skips validation (`core._unchecked`) against the full
checks of the public constructors: each value it returns must be one that
`Hypergraph(n, edges)` or `VertexSet(members)` accepts and equals. The
callers of `_unchecked` are listed in `tests/test_source.py`, each with the
test here that covers it."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshallow.apgraphs import APSpec, build_ap_hypergraph
from polyshallow.core import (
    Hypergraph,
    VertexSet,
    restrict_at_least,
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
    capture_edges,
    strip_union,
)

from conftest import rand_hypergraph, rand_points

FAMILIES = [
    BOTTOMLESS, STRIPS, strip_union(1), strip_union(2), strip_union(3), CROSS_UNION,
    RECTANGLES, OCTANTS, TFIN_SLABS, HEXTANTS,
]


def assert_valid(h: Hypergraph) -> None:
    """h passes full validation, equals its checked copy and hashes alike."""
    assert type(h.edges) is tuple and all(type(e) is tuple for e in h.edges)
    checked = Hypergraph(h.n, h.edges)
    assert checked == h and hash(checked) == hash(h)


def assert_valid_set(v: VertexSet) -> None:
    assert type(v.members) is tuple
    checked = VertexSet(v.members)
    assert checked == v and hash(checked) == hash(v)


hypergraphs = st.integers(0, 7).flatmap(lambda n: st.builds(
    Hypergraph.from_edges, st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), max_size=n + 2) if n else st.just([]),
             max_size=10)))


# -- geometry.capture_edges ---------------------------------------------------

@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.tag}-{f.s}")
def test_capture_edges_valid(fam):
    rng = random.Random(31)
    for _ in range(12):
        p = rand_points(rng, rng.randint(1, 7), fam.dim, coord_range=rng.choice([3, 12]))
        assert_valid(capture_edges(p, fam))
        size = rng.randint(0, len(p) + 1)
        assert_valid(capture_edges(p, fam, exact=size))
        assert_valid(capture_edges(p, fam, at_least=size))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.tag}-{f.s}")
@settings(max_examples=25)
@given(data=st.data())
def test_capture_edges_valid_property(fam, data):
    coords = st.tuples(*[st.integers(0, 3)] * fam.dim)
    p = PointSet.of(data.draw(st.lists(coords, min_size=1, max_size=6, unique=True)))
    size = data.draw(st.integers(0, len(p) + 1))
    kw = data.draw(st.sampled_from([{}, {"exact": size}, {"at_least": size}]))
    assert_valid(capture_edges(p, fam, **kw))


# -- core: from_edges, restrictions, induced subhypergraphs -------------------

@pytest.mark.parametrize("n, edges", [
    (4, [[3, 1], [2, 0, 2], [1, 3], [0, 2]]),
    (4, [[], [0], [], [0, 0], (3, 2, 1, 0)]),
    (3, []),
    (0, [[], []]),
    (5, [range(5), {4, 0}, iter([1, 1])]),
], ids=["unsorted", "empty-and-duplicated", "no-edges", "no-vertices", "iterables"])
def test_from_edges_valid(n, edges):
    h = Hypergraph.from_edges(n, edges)
    assert_valid(h)
    assert () not in h.edges


@settings(max_examples=200)
@given(h=hypergraphs)
def test_from_edges_valid_property(h):
    assert_valid(h)


@settings(max_examples=150)
@given(h=hypergraphs)
def test_restriction_valid_property(h):
    for m in range(h.max_edge_size + 2):
        assert_valid(restrict_at_least(h, m))


def test_restriction_valid():
    rng = random.Random(32)
    for _ in range(60):
        h = rand_hypergraph(rng, 9, 12)
        for m in range(h.max_edge_size + 2):
            assert_valid(restrict_at_least(h, m))


# -- core.VertexSet.of ----------------------------------------------------------

@pytest.mark.parametrize("items", [
    [], [0, 1, 2, 5], [5, 2, 0], [1, 1, 2], [2, 2, 2], [0, 3, 3, 7],
    range(4), (v for v in (3, 1, 3)), (v for v in range(0, 9, 2)), {2, 0, 1}, [-3, -1, 4],
], ids=["empty", "sorted", "unsorted", "duplicated", "constant", "sorted-with-repeat",
        "range", "generator", "sorted-generator", "set", "negative"])
def test_vertex_set_of_valid(items):
    items = list(items)
    v = VertexSet.of(iter(items))
    assert_valid_set(v)
    assert v.members == tuple(sorted(set(items))) == VertexSet.of(items).members


@settings(max_examples=200)
@given(items=st.lists(st.integers(-3, 12), max_size=12), presort=st.booleans())
def test_vertex_set_of_valid_property(items, presort):
    if presort:
        items = sorted(items)
    v = VertexSet.of(items)
    assert_valid_set(v)
    assert v.members == tuple(sorted(set(items)))


# -- apgraphs.build_ap_hypergraph ---------------------------------------------

SPECS = [
    lambda M, mode: APSpec.explicit([1, 3, 4], M, mode),
    lambda M, mode: APSpec.powers(2, M, mode),
    lambda M, mode: APSpec.bi_powers(2, 3, M, mode),
    lambda M, mode: APSpec.tri_powers(2, 3, 5, M, mode),
    lambda M, mode: APSpec.divisor_chain([2, 6], M, mode),
]


@pytest.mark.parametrize("mode", ["finite", "infinite"])
@pytest.mark.parametrize("make", SPECS,
                         ids=["explicit", "powers", "biPowers", "triPowers", "divisorChain"])
def test_build_ap_hypergraph_valid(make, mode):
    rng = random.Random(33)
    for _ in range(10):
        s = rng.sample(range(30), rng.randint(1, 12))
        spec = make(rng.sample(range(4), rng.randint(1, 3)), mode)
        h, labels, lab = build_ap_hypergraph(s, spec)
        assert_valid(h)
        assert h.n == len(labels) and set(lab) == set(h.edges)


@settings(max_examples=60)
@given(s=st.lists(st.integers(0, 25), min_size=1, max_size=10),
       ms=st.lists(st.integers(0, 5), min_size=1, max_size=3),
       make=st.sampled_from(SPECS), mode=st.sampled_from(["finite", "infinite"]))
def test_build_ap_hypergraph_valid_property(s, ms, make, mode):
    assert_valid(build_ap_hypergraph(s, make(ms, mode))[0])
