import random

import pytest

from polyshallow.core import (
    ColorAssignment,
    Hypergraph,
    VertexSet,
    ViolationWitness,
    induced_subhypergraph,
    is_polychromatic,
    is_shallow_hitting,
    is_sperner,
    merge_colors,
    restrict_at_least,
    restrict_exact,
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


def test_restrict_at_least_examples():
    h = H(6, [[0, 1], [0, 1, 2], [0, 1, 2, 3, 4]])
    assert {len(e) for e in restrict_at_least(h, 3).edges} == {3, 5}
    assert restrict_at_least(h, 1) == h
    assert restrict_at_least(h, 6).edges == ()
    assert restrict_at_least(h, 6).n == 6


def test_restrict_exact_examples():
    h = H(6, [[0, 1], [0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4]])
    assert all(len(e) == 3 for e in restrict_exact(h, 3).edges)
    assert len(restrict_exact(h, 3).edges) == 2
    assert restrict_exact(h, 0).edges == ()


def test_restrict_partition_identity():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 8)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(6)])
        for m in range(1, n + 1):
            lhs = set(restrict_exact(h, m).edges) | set(restrict_at_least(h, m + 1).edges)
            assert lhs == set(restrict_at_least(h, m).edges)


def test_restrict_monotonicity():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 9)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(7)])
        for m in range(1, n):
            assert set(restrict_at_least(h, m + 1).edges) <= set(restrict_at_least(h, m).edges)


def test_induced_examples():
    h = H(3, [[0, 1, 2]])
    got = induced_subhypergraph(h, VertexSet.of([0, 2]))
    assert got.n == 2 and got.edges == ((0, 1),)
    h2 = H(3, [[0, 1], [1, 2]])
    assert induced_subhypergraph(h2, VertexSet.of([0, 1, 2])) == h2
    assert induced_subhypergraph(h2, VertexSet.of([1])).edges == ((0,),)


def test_induced_out_of_range():
    with pytest.raises(IndexError):
        induced_subhypergraph(H(2, [[0, 1]]), VertexSet.of([0, 5]))


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


def test_sperner():
    assert is_sperner(H(3, [[0, 1], [1, 2]])) is True
    assert is_sperner(H(3, [[0, 1], [0, 1, 2]])) is False
    # uniform restrictions are always Sperner
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 9)
        h = H(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(8)])
        for m in range(1, n + 1):
            assert is_sperner(restrict_exact(h, m)) is True


def test_merge_colors_examples():
    chi = ColorAssignment(3, (0, 1, 2))
    got = merge_colors(chi, {1, 2})
    assert got.k == 2 and got.colors == (0, 1, 1)
    allm = merge_colors(chi, {0, 1, 2})
    assert allm.k == 1 and allm.colors == (0, 0, 0)
    with pytest.raises(ValueError):
        merge_colors(chi, set())


def test_merge_preserves_polychromaticity():
    rng = random.Random(5)
    kept = 0
    while kept < 40:
        n = rng.randint(2, 8)
        k = rng.randint(2, 4)
        h = H(n, [rng.sample(range(n), rng.randint(k, n)) for _ in range(5) if n >= k])
        chi = ColorAssignment(k, tuple(rng.randrange(k) for _ in range(n)))
        if is_polychromatic(h, chi) is not True:
            continue
        kept += 1
        classes = rng.sample(range(k), rng.randint(2, k))
        merged = merge_colors(chi, classes)
        assert is_polychromatic(h, merged) is True


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
