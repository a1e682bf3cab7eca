"""The progression builder, the edge-preservation verifier and the
tfin-slab prefix check against the slow reference implementations in
conftest: the same hypergraph, labels and edge-label map (in insertion
order), and the same reports. Also the corner-divisibility check on
labellings that break it."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_points,
    reference_build_ap_hypergraph,
    reference_tfin_prefix,
    reference_verify,
)
from polyshallow.apgraphs import APSpec, build_ap_hypergraph
from polyshallow.core import Hypergraph
from polyshallow.embeddings import (
    Correspondence,
    check_corner_divisibility,
    check_tfin_prefix,
    map_hextants_to_pqr,
    map_octants_to_pq,
    verify_edge_preservation,
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

KINDS = ("explicit", "powers", "biPowers", "triPowers", "divisorChain")
FAMILIES = (BOTTOMLESS, RECTANGLES, OCTANTS, TFIN_SLABS, HEXTANTS,
            STRIPS, strip_union(1), strip_union(2), CROSS_UNION)


def _spec(kind, pick, M, mode):
    """A spec of the kind; pick(options) chooses its parameters."""
    if kind == "explicit":
        return APSpec.explicit(pick([[3], [1, 4], [2, 5, 7], [6, 9, 13, 20]]), M, mode)
    if kind == "powers":
        return APSpec.powers(pick([2, 3, 4]), M, mode)
    if kind == "biPowers":
        return APSpec.bi_powers(*pick([(2, 3), (2, 5), (3, 4)]), M, mode)
    if kind == "triPowers":
        return APSpec.tri_powers(*pick([(2, 3, 5), (2, 3, 7)]), M, mode)
    return APSpec.divisor_chain(pick([[2], [2, 6], [3, 6, 12], [2, 4, 8, 24]]), M, mode)


def _assert_same_build(s, spec):
    h, labels, edges = build_ap_hypergraph(s, spec)
    h_ref, labels_ref, edges_ref = reference_build_ap_hypergraph(s, spec)
    assert h == h_ref
    assert labels == labels_ref
    assert list(edges.items()) == list(edges_ref.items())


def test_build_matches_reference_seeded():
    rng = random.Random(7001)
    for trial in range(600):
        kind = KINDS[trial % len(KINDS)]
        mode = ("finite", "infinite")[trial // len(KINDS) % 2]
        M = rng.sample(range(8), rng.randint(0, 3))
        if trial % 3 == 0:
            s = range(rng.randint(0, 30) + 1)
        else:  # non-contiguous
            s = rng.sample(range(41), rng.randint(1, 25))
        _assert_same_build(s, _spec(kind, rng.choice, M, mode))


@settings(max_examples=200)
@given(data=st.data())
def test_build_matches_reference_property(data):
    kind = data.draw(st.sampled_from(KINDS))
    mode = data.draw(st.sampled_from(("finite", "infinite")))
    M = data.draw(st.lists(st.integers(0, 7), max_size=3))
    s = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=25))
    _assert_same_build(s, _spec(kind, lambda xs: data.draw(st.sampled_from(xs)), M, mode))


def _verify_instance(rng, fam):
    """Points with ties, a source holding their capture edges plus random
    edges (an empty one now and then), distinct or repeated labels, and a
    correspondence that is the identity or corrupted. Now and then the
    points are sorted by x under the identity correspondence, so that the
    vertices' x ranks never decrease."""
    n = rng.randint(1, 6 if fam.dim < 4 else 5)
    p = rand_points(rng, n, fam.dim, coord_range=rng.choice([3, 12]))
    by_x = rng.random() < 0.3
    if not by_x:
        shuffled = list(p.points)
        rng.shuffle(shuffled)
        p = PointSet.of(shuffled)
    point_labels = rng.sample(range(1, 200), n)
    perm = list(range(n))
    if not by_x and rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        perm[i], perm[j] = perm[j], perm[i]
    elif not by_x and rng.random() < 0.3:
        rng.shuffle(perm)
    corr = Correspondence("numbers-to-points", fam.tag, tuple(zip(point_labels, perm)))
    # further source vertices repeat a label
    extra = 0 if by_x else rng.choice([0, 0, 1, 3])
    labels = point_labels + [rng.choice(point_labels) for _ in range(extra)]
    n_src = n + extra
    edges = set(capture_edges(p, fam).edges)
    for _ in range(rng.choice([0, 1, 4])):
        edges.add(tuple(sorted(rng.sample(range(n_src), rng.randint(1, n_src)))))
    if rng.random() < 0.05:
        edges.add(())
    return Hypergraph(n_src, tuple(sorted(edges))), labels, p, corr


def _x_ranks_never_decrease(h, labels, p, corr):
    """Whether first_uncaptured takes the x cuts at each edge's ends."""
    to_point = dict(corr.pairs)
    xr = [p.ranks[0][to_point[label]] for label in labels[: h.n]]
    return all(a <= b for a, b in zip(xr, xr[1:]))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.tag}-{f.s}")
def test_verify_matches_reference_seeded(fam):
    rng = random.Random(f"verify/{fam.tag}/{fam.s}")
    statuses, x_ends = set(), set()
    for _ in range(150):
        h, labels, p, corr = _verify_instance(rng, fam)
        rep = verify_edge_preservation(h, labels, p, fam, corr)
        assert rep == reference_verify(h, labels, p, fam, corr)
        statuses.add(rep.status)
        x_ends.add(_x_ranks_never_decrease(h, labels, p, corr))
    assert statuses == {"all-preserved", "failed"}
    assert x_ends == {True, False}  # both ways of taking the x cuts


@settings(max_examples=150)
@given(fam=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
def test_verify_matches_reference_property(fam, seed):
    h, labels, p, corr = _verify_instance(random.Random(seed), fam)
    assert verify_edge_preservation(h, labels, p, fam, corr) == reference_verify(
        h, labels, p, fam, corr)


def test_repeated_labels_count_distinct_points():
    """Labels 7, 7, 9 send the edge's three vertices to two points, and the
    point between them in x lies below the edge's top: not captured."""
    p = PointSet.of([(0, 0), (1, 0), (2, 5)])
    corr = Correspondence("numbers-to-points", "bottomless", ((7, 0), (9, 2)))
    h = Hypergraph(3, ((0, 1, 2),))
    rep = verify_edge_preservation(h, [7, 7, 9], p, BOTTOMLESS, corr)
    assert rep.status == "failed" and rep.failing_edge == (0, 1, 2)
    assert rep == reference_verify(h, [7, 7, 9], p, BOTTOMLESS, corr)


def test_verify_rejects_bad_input_up_front():
    p = PointSet.of([(0, 0), (1, 1), (2, 2)])
    h = Hypergraph(3, ((0, 1), (1, 2)))
    corr = Correspondence("numbers-to-points", "bottomless", ((0, 0), (1, 1), (2, 2)))
    with pytest.raises(ValueError, match="labels for 3 source vertices"):
        verify_edge_preservation(h, [0, 1], p, BOTTOMLESS, corr)
    with pytest.raises(ValueError, match="has no image point"):
        verify_edge_preservation(h, [0, 1, 5], p, BOTTOMLESS, corr)
    far = Correspondence("numbers-to-points", "bottomless", ((0, 0), (1, 1), (2, 7)))
    with pytest.raises(ValueError, match="outside the 3 target points"):
        verify_edge_preservation(h, [0, 1, 2], p, BOTTOMLESS, far)


def _shuffled(corr, rng):
    """The correspondence with its labels dealt to the points at random."""
    labels = [label for label, _ in corr.pairs]
    rng.shuffle(labels)
    return Correspondence(corr.direction, corr.family,
                          tuple(zip(labels, (i for _, i in corr.pairs))))


def test_tfin_prefix_matches_reference_seeded():
    rng = random.Random(9001)
    outcomes = {}
    for trial in range(400):
        p = rand_points(rng, rng.randint(1, 8), 3, coord_range=rng.choice([2, 3, 12]))
        corr = map_octants_to_pq(p, 2, 3)
        if trial % 2:
            corr = _shuffled(corr, rng)
        rep = check_tfin_prefix(p, corr)
        assert rep == reference_tfin_prefix(p, corr)
        outcomes.setdefault(trial % 2, set()).add(rep.status)
    assert outcomes[0] == {"all-preserved"}
    assert outcomes[1] == {"all-preserved", "failed"}


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
def test_tfin_prefix_matches_reference_property(seed, shuffle):
    rng = random.Random(seed)
    p = rand_points(rng, rng.randint(1, 8), 3, coord_range=rng.choice([2, 3, 12]))
    corr = map_octants_to_pq(p, 2, 3)
    if shuffle:
        corr = _shuffled(corr, rng)
    assert check_tfin_prefix(p, corr) == reference_tfin_prefix(p, corr)


@pytest.mark.parametrize("dim, bases", [(3, (2, 3)), (4, (2, 3, 5))], ids=["octants", "hextants"])
def test_corner_divisibility_fails_on_shuffled_labels(dim, bases):
    """The labelling of the map passes; dealt at random, its labels break
    divisibility on some edge, and the reported edge is one that breaks it."""
    rng = random.Random(f"corner/{dim}")
    fam = OCTANTS if dim == 3 else HEXTANTS
    failed = 0
    for _ in range(60):
        p = rand_points(rng, rng.randint(2, 7), dim, coord_range=rng.choice([2, 12]))
        corr = (map_octants_to_pq(p, *bases) if dim == 3 else map_hextants_to_pqr(p, *bases))
        assert check_corner_divisibility(p, corr, bases).ok
        bad = _shuffled(corr, rng)
        rep = check_corner_divisibility(p, bad, bases)
        if rep.ok:
            continue
        failed += 1
        e = rep.failing_edge
        assert e in capture_edges(p, fam).edges
        d = 1
        for ax, base in enumerate(bases, start=1):
            d *= base ** min(1 + p.position(ax, i) for i in e)
        assert any(bad.label_of(i) % d for i in e)
    assert failed >= 10
