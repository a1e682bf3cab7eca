"""The progression builder and the edge-preservation verifier against the
slow reference implementations in conftest: the same hypergraph, labels
and edge-label map (in insertion order), and the same reports."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_points,
    reference_build_ap_hypergraph,
    reference_verify,
)
from polyshallow.apgraphs import APSpec, build_ap_hypergraph
from polyshallow.core import Hypergraph
from polyshallow.embeddings import Correspondence, verify_edge_preservation
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
    correspondence that is the identity or corrupted."""
    n = rng.randint(1, 6 if fam.dim < 4 else 5)
    p = rand_points(rng, n, fam.dim, coord_range=rng.choice([3, 12]))
    point_labels = rng.sample(range(1, 200), n)
    perm = list(range(n))
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        perm[i], perm[j] = perm[j], perm[i]
    elif rng.random() < 0.3:
        rng.shuffle(perm)
    corr = Correspondence("numbers-to-points", fam.tag, tuple(zip(point_labels, perm)))
    extra = rng.choice([0, 0, 1, 3])  # further source vertices repeat a label
    labels = point_labels + [rng.choice(point_labels) for _ in range(extra)]
    n_src = n + extra
    edges = set(capture_edges(p, fam).edges)
    for _ in range(rng.choice([0, 1, 4])):
        edges.add(tuple(sorted(rng.sample(range(n_src), rng.randint(1, n_src)))))
    if rng.random() < 0.05:
        edges.add(())
    return Hypergraph(n_src, tuple(sorted(edges))), labels, p, corr


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.tag}-{f.s}")
def test_verify_matches_reference_seeded(fam):
    rng = random.Random(f"verify/{fam.tag}/{fam.s}")
    statuses = set()
    for _ in range(150):
        h, labels, p, corr = _verify_instance(rng, fam)
        rep = verify_edge_preservation(h, labels, p, fam, corr)
        assert rep == reference_verify(h, labels, p, fam, corr)
        statuses.add(rep.status)
    assert statuses == {"all-preserved", "failed"}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
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
