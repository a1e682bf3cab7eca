import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_coloring, reference_is_polychromatic
from polyshallow.core import (
    ColorAssignment,
    Hypergraph,
    VertexSet,
    ViolationWitness,
    is_polychromatic,
    is_shallow_hitting,
    restrict_at_least,
)


def H(n, edges):
    return Hypergraph.from_edges(n, edges)


@pytest.mark.parametrize("build", [
    lambda: H(3, [[0, 3]]),
    lambda: H(3, [[-1, 2]]),
    lambda: Hypergraph(3, ((0, 1, 3),)),
    lambda: Hypergraph(3, ((-1, 0),)),
])
def test_vertex_out_of_range_rejected(build):
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        build()


@pytest.mark.parametrize("edges, message", [
    (((1, 0),), r"edge \(1, 0\) is not sorted/deduplicated"),
    (((0, 1, 1),), r"edge \(0, 1, 1\) is not sorted/deduplicated"),
    (((1, 2), (0, 1)), "edge list is not canonically sorted"),
    (((0, 1), (0, 1)), "edge list is not canonically sorted"),
], ids=["unsorted-edge", "repeated-vertex", "unsorted-edges", "duplicated-edge"])
def test_non_canonical_edges_rejected(edges, message):
    with pytest.raises(ValueError, match=message):
        Hypergraph(3, edges)


def test_canonical_edges_accepted():
    assert Hypergraph(3, ((), (0,), (0, 1), (0, 2), (1,))).edges[-1] == (1,)


def test_restrict_at_least_examples():
    h = H(6, [[0, 1], [0, 1, 2], [0, 1, 2, 3, 4]])
    assert {len(e) for e in restrict_at_least(h, 3).edges} == {3, 5}
    assert restrict_at_least(h, 1) == h
    assert restrict_at_least(h, 6).edges == ()
    assert restrict_at_least(h, 6).n == 6


def test_restrict_partition_identity():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 8)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(6)])
        for m in range(1, n + 1):
            lhs = {e for e in h.edges if len(e) == m} | set(restrict_at_least(h, m + 1).edges)
            assert lhs == set(restrict_at_least(h, m).edges)


def test_restrict_monotonicity():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 9)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(7)])
        for m in range(1, n):
            assert set(restrict_at_least(h, m + 1).edges) <= set(restrict_at_least(h, m).edges)


def test_polychromatic_examples():
    h = H(4, [[0, 1], [2, 3]])
    assert is_polychromatic(h, ColorAssignment(2, (0, 1, 0, 1))) is True
    w = is_polychromatic(H(2, [[0, 1]]), ColorAssignment(2, (0, 0)))
    assert isinstance(w, ViolationWitness)
    assert w.kind == "missing-color" and w.detail == 1 and w.edge == (0, 1)
    assert is_polychromatic(H(3, [[0, 1, 2]]), ColorAssignment(1, (0, 0, 0))) is True


def test_polychromatic_length_mismatch():
    with pytest.raises(ValueError):
        is_polychromatic(H(3, [[0, 1]]), ColorAssignment(2, (0, 1)))


def test_polychromatic_first_violating_edge_is_smallest():
    h = H(4, [[0, 1], [0, 2], [2, 3]])
    w = is_polychromatic(h, ColorAssignment(2, (0, 0, 0, 0)))
    assert w.edge == (0, 1)  # canonical edge order


def _colouring_outcomes(h, k, colors):
    """What building the colouring and checking h against it gives, in the
    package and in the references: True, the witness, or the ValueError
    text."""
    out = []
    for make, check in ((ColorAssignment, is_polychromatic),
                        (reference_coloring, reference_is_polychromatic)):
        try:
            out.append(check(h, make(k, colors)))
        except ValueError as exc:
            out.append(str(exc))
    return out


def test_polychromatic_matches_reference_seeded():
    rng = random.Random(71)
    cases = [(H(0, []), k, ()) for k in (0, 1, 2)]  # empty colourings
    cases += [(Hypergraph(2, ((), (0, 1))), 1, (0, 0)), (H(3, [[0, 1, 2]]), 1, (0, 0, 0))]
    for _ in range(600):
        n = rng.randint(1, 8)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))])
        k = rng.randint(0, 4)
        length = n if rng.random() < 0.9 else rng.choice((n - 1, n + 1))
        colors = [rng.randrange(max(k, 1)) for _ in range(length)]
        if colors and rng.random() < 0.3:  # one colour out of range
            colors[rng.randrange(length)] = rng.choice((-2, -1, k, k + 1))
        cases.append((h, k, tuple(colors)))
    seen = set()
    for h, k, colors in cases:
        got, want = _colouring_outcomes(h, k, colors)
        assert got == want
        seen.add(got if isinstance(got, (bool, str)) else got.kind)
    assert seen == {True, "missing-color", "need at least one color", "color out of range",
                    "coloring length does not match vertex count"}


@settings(max_examples=400)
@given(data=st.data())
def test_polychromatic_matches_reference_property(data):
    n = data.draw(st.integers(0, 8))
    k = data.draw(st.integers(0, 4))
    vertex = st.integers(0, max(n - 1, 0))
    h = H(n, data.draw(st.lists(st.lists(vertex, min_size=1, max_size=6), max_size=8 if n else 0)))
    length = data.draw(st.sampled_from((n, n, n, n + 1, max(n - 1, 0))))
    colors = data.draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=length, max_size=length))
    if colors and data.draw(st.booleans()):  # one colour out of range
        colors[data.draw(st.integers(0, length - 1))] = data.draw(st.sampled_from((-1, k, k + 1)))
    got, want = _colouring_outcomes(h, k, tuple(colors))
    assert got == want


def test_shallow_hitting_examples():
    h = H(3, [[0, 1, 2]])
    assert is_shallow_hitting(h, VertexSet.of([0]), 1) is True
    w = is_shallow_hitting(h, VertexSet.of([]), 3)
    assert w.kind == "zero-hit"
    w2 = is_shallow_hitting(h, VertexSet.of([0, 1]), 1)
    assert w2.kind == "overflow" and w2.detail == 2


def test_shallow_witness_validity():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 10)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(5)])
        u = VertexSet.of(v for v in range(n) if rng.random() < 0.4)
        c = rng.randint(1, 3)
        res = is_shallow_hitting(h, u, c)
        if res is not True:
            hits = sum(1 for v in res.edge if v in set(u.members))
            if res.kind == "zero-hit":
                assert hits == 0
            else:
                assert hits == res.detail and hits > c



def _plain_shallow_check(h, u, c):
    """The per-edge count that `is_shallow_hitting` is checked against."""
    for e in h.edges:
        hits = sum(1 for v in e if v in u.members)
        if hits == 0:
            return ViolationWitness(e, "zero-hit", 0)
        if hits > c:
            return ViolationWitness(e, "overflow", hits)
    return True


@settings(max_examples=300)
@given(data=st.data())
def test_shallow_hitting_matches_plain_count(data):
    n = data.draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    h = H(n, data.draw(st.lists(st.lists(vertex, min_size=1, max_size=6), max_size=8)))
    u = VertexSet.of(data.draw(st.sets(vertex)))
    c = data.draw(st.integers(1, 3))
    assert is_shallow_hitting(h, u, c) == _plain_shallow_check(h, u, c)


def test_vertex_set_contains_matches_set_membership():
    """Membership by bisection agrees with a set on seeded vertex sets,
    the empty one included, for every vertex from below the least member
    to past the greatest: negative, out of range, each member and each
    gap, and the ends of [0, n)."""
    rng = random.Random(28)
    for _ in range(200):
        n, density = rng.randint(0, 20), rng.random()
        members = {v for v in range(n) if rng.random() < density}
        vs = VertexSet.of(members)
        for v in range(-3, n + 3):
            assert (v in vs) == (v in members)


def test_coloring_downward_closure():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 8)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(6)])
        chi = ColorAssignment(2, tuple(rng.randrange(2) for _ in range(n)))
        for m in range(1, n + 1):
            if is_polychromatic(restrict_at_least(h, m), chi) is True:
                for m2 in range(m, n + 1):
                    assert is_polychromatic(restrict_at_least(h, m2), chi) is True
                break
