"""The progression builder, the edge-preservation verifier, the tfin-slab
prefix check, the power difference sets, the corner labellings and the
three forward embedding maps against the slow reference implementations
in conftest: the same hypergraph, labels and edge-label map (in insertion
order), the same reports, difference lists and correspondences, and the
same points, boxes and correspondence (the CLI documents
byte for byte). Also the corner-divisibility check on labellings that
break it, and the bases each power kind rejects. Then the three fast
paths of the construction set-up: the strips row laid out once against
the per-row layout (documents byte for byte), `Hypergraph.from_edges`
against sorting every edge, and point sets on int coordinates against the
same sets on Fractions."""
import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_points,
    reference_build_ap_hypergraph,
    reference_build_strip_no2shs,
    reference_from_edges,
    reference_corner_labels,
    reference_enumerate_differences,
    reference_map_powers_to_bottomless,
    reference_map_powers_to_octants,
    reference_map_pq_to_octants,
    reference_tfin_prefix,
    reference_verify,
)
from polyshallow import formats
from polyshallow.apgraphs import APSpec, build_ap_hypergraph, enumerate_differences
from polyshallow.cli import main
from polyshallow.constructions import GadgetParams, build_strip_no2shs
from polyshallow.core import Hypergraph
from polyshallow.embeddings import (
    Correspondence,
    chain_explicit,
    chain_of_powers,
    check_corner_divisibility,
    check_tfin_prefix,
    map_hextants_to_pqr,
    map_octants_to_pq,
    map_powers_to_bottomless,
    map_powers_to_octants,
    map_pq_to_octants,
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


# ---------------------------------------------------------------------------
# Power difference sets and corner labellings: one path for 1, 2 or 3 bases
# ---------------------------------------------------------------------------

POWER_KIND = {1: "powers", 2: "biPowers", 3: "triPowers"}
# coprime bases, prime or not, in both orders
POWER_BASES = ((2,), (3,), (10,), (2, 3), (3, 2), (4, 9), (9, 4), (5, 7), (2, 3, 5),
               (3, 4, 5), (5, 4, 3), (4, 9, 25), (7, 2, 9))


def _shuffled_points(rng, n, dim, coord_range):
    """rand_points in random index order, so x order and index order differ."""
    pts = list(rand_points(rng, n, dim, coord_range=coord_range).points)
    rng.shuffle(pts)
    return PointSet.of(pts)


def _public_corner_labels(pts, bases):
    """The public reverse map for len(bases)."""
    if len(bases) == 2:
        return map_octants_to_pq(pts, *bases)
    return map_hextants_to_pqr(pts, *bases)


def _labels_or_rejected(labelling, pts, bases):
    try:
        return labelling(pts, bases)
    except ValueError:
        return "rejected"


@pytest.mark.parametrize("bases", POWER_BASES, ids=str)
def test_power_differences_match_reference_seeded(bases):
    spec = APSpec(POWER_KIND[len(bases)], bases, (0,))
    for bound in range(1, 401):
        assert enumerate_differences(spec, bound) == reference_enumerate_differences(spec, bound)


@settings(max_examples=200)
@given(data=st.data())
def test_power_differences_match_reference_property(data):
    bases = data.draw(st.lists(st.integers(2, 40), min_size=1, max_size=3, unique=True)
                      .filter(lambda bs: all(math.gcd(a, b) == 1
                                             for a, b in itertools.combinations(bs, 2))))
    spec = APSpec(POWER_KIND[len(bases)], tuple(bases), (0,))
    bound = data.draw(st.integers(1, 10**6))
    assert enumerate_differences(spec, bound) == reference_enumerate_differences(spec, bound)


def test_power_spec_rejections():
    """Each power kind takes exactly its number of bases, each >= 2 and no
    two with a common factor, wherever the pair sits: (2, 3, 9), (3, 2, 4)."""
    for kind, count in (("powers", 1), ("biPowers", 2), ("triPowers", 3)):
        for n in range(5):
            for ps in itertools.product((0, 1, 2, 3, 4, 9), repeat=n):
                valid = (n == count and all(b >= 2 for b in ps)
                         and all(math.gcd(a, b) == 1 for a, b in itertools.combinations(ps, 2)))
                if valid:
                    assert APSpec(kind, ps, (0,)).params == ps
                else:
                    with pytest.raises(ValueError):
                        APSpec(kind, ps, (0,))
    for kind, ps in (("biPowers", (4, 6)), ("triPowers", (2, 3, 9)), ("triPowers", (3, 2, 4)),
                     ("triPowers", (10, 3, 25)), ("triPowers", (3, 1, 5))):
        with pytest.raises(ValueError, match=f"{kind} needs"):
            APSpec(kind, ps, (0,))


CORNER_BASES = ((2, 3), (3, 2), (4, 9), (3, 4), (5, 2), (2, 3, 5), (3, 4, 5), (4, 9, 25),
                (5, 3, 2))
BAD_CORNER_BASES = ((2, 4), (6, 9), (1, 3), (0, 3), (3, 0), (2, 3, 9), (3, 2, 4), (9, 2, 3),
                    (1, 2, 3), (2, 3, 1), (0, 5, 7))


def test_corner_labels_match_reference_seeded():
    rng = random.Random(11001)
    for bases in CORNER_BASES + BAD_CORNER_BASES:
        for _ in range(40):
            dim = rng.choice([3, 4]) if rng.random() < 0.1 else len(bases) + 1
            p = _shuffled_points(rng, rng.randint(1, 9), dim, rng.choice([2, 12]))
            got = _labels_or_rejected(_public_corner_labels, p, bases)
            assert got == _labels_or_rejected(reference_corner_labels, p, bases)
            if bases in CORNER_BASES and dim == len(bases) + 1:
                assert isinstance(got, Correspondence)
            else:
                assert got == "rejected"


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), bases=st.sampled_from(CORNER_BASES),
       coord_range=st.sampled_from([2, 12]))
def test_corner_labels_match_reference_property(seed, bases, coord_range):
    rng = random.Random(seed)
    p = _shuffled_points(rng, rng.randint(1, 10), len(bases) + 1, coord_range)
    assert _public_corner_labels(p, bases) == reference_corner_labels(p, bases)


# ---------------------------------------------------------------------------
# Forward maps: int arithmetic against the Fraction references
# ---------------------------------------------------------------------------

# explicit chains: finite, so the last digit is unbounded ((1,) alone puts
# every number in one digit at position 0)
EXPLICIT_CHAINS = ((1,), (1, 2), (1, 3), (1, 2, 6), (1, 3, 6, 12), (1, 2, 4, 8, 24),
                   (1, 5, 25, 100))
PQ_BASES = ((2, 3), (2, 5), (3, 4), (3, 5))


def _outcome(fn, *args):
    """The map's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_same_squares(s, spec):
    got = map_powers_to_octants(s, spec)
    ref = reference_map_powers_to_octants(s, spec)
    assert got.points.points == ref.points.points
    assert list(got.boxes.items()) == list(ref.boxes.items())
    assert got.corr == ref.corr


def _assert_same_points(fn, ref, *args):
    got, want = _outcome(fn, *args), _outcome(ref, *args)
    if isinstance(want, str):
        assert got == want
        return
    (pts, corr), (ref_pts, ref_corr) = got, want
    assert pts.dim == ref_pts.dim and pts.points == ref_pts.points
    assert corr == ref_corr


def _vertex_sets(rng):
    """Contiguous 0..N and from a..N, and sparse samples, N up to 300."""
    top = rng.randint(0, 300)
    return [range(top + 1), range(rng.randint(0, top), top + 1),
            rng.sample(range(301), rng.randint(1, 60)), [top]]


def test_squares_match_reference_seeded():
    rng = random.Random(10001)
    for t in range(2, 6):
        for s in _vertex_sets(rng):
            _assert_same_squares(s, chain_of_powers(t))
    for ds in EXPLICIT_CHAINS:
        for s in _vertex_sets(rng):
            _assert_same_squares(s, chain_explicit(ds))
    _assert_same_squares([], chain_of_powers(2))


def test_valuation_maps_match_reference_seeded():
    rng = random.Random(10002)
    for p, q in PQ_BASES:
        for M in ([0], [0, 1], rng.sample(range(p * q), 3), list(range(p * q)), [p * q]):
            for s in _vertex_sets(rng):
                _assert_same_points(map_pq_to_octants, reference_map_pq_to_octants, s, p, q, M)
    for t in range(2, 6):
        for M in ([0], [0, 1], [1], list(range(t)), [0, t]):
            for s in _vertex_sets(rng):
                _assert_same_points(map_powers_to_bottomless,
                                    reference_map_powers_to_bottomless, s, t, M)


@settings(max_examples=120)
@given(data=st.data())
def test_forward_maps_match_reference_property(data):
    s = data.draw(st.one_of(
        st.builds(lambda a, b: range(min(a, b), max(a, b) + 1),
                  st.integers(0, 300), st.integers(0, 300)),
        st.lists(st.integers(0, 300), min_size=1, max_size=40)))
    kind = data.draw(st.sampled_from(("powers", "explicit")))
    value = data.draw(st.integers(2, 5) if kind == "powers" else st.sampled_from(EXPLICIT_CHAINS))
    _assert_same_squares(s, chain_of_powers(value) if kind == "powers" else chain_explicit(value))
    p, q = data.draw(st.sampled_from(PQ_BASES))
    M = data.draw(st.one_of(st.just([0]), st.lists(st.integers(0, p * q - 1), min_size=1,
                                                   max_size=4, unique=True)))
    _assert_same_points(map_pq_to_octants, reference_map_pq_to_octants, s, p, q, M)
    t = data.draw(st.integers(2, 5))
    M = data.draw(st.one_of(st.just([0]), st.lists(st.integers(0, t - 1), min_size=1,
                                                   max_size=t, unique=True)))
    _assert_same_points(map_powers_to_bottomless, reference_map_powers_to_bottomless, s, t, M)


def test_squares_preserve_their_own_spec_seeded():
    """One spec builds A_{D,M} and, through the squares map, its image: the
    map reads only the chain, so every start in M is captured."""
    rng = random.Random(10003)
    chains = ([("powers", (t,)) for t in range(2, 6)]
              + [("divisorChain", ds[1:]) for ds in EXPLICIT_CHAINS])
    for kind, params in chains:
        for M in ([0], [0, 1], None):
            top = rng.randint(0, 40)
            s = range(top + 1)
            spec = APSpec(kind, params, tuple(s) if M is None else tuple(M))
            h, labels, _ = build_ap_hypergraph(s, spec)
            lay = map_powers_to_octants(s, spec)
            rep = verify_edge_preservation(h, labels, lay.points, OCTANTS, lay.corr)
            assert rep.ok, (spec, rep)


def _squares(s, spec):
    lay = reference_map_powers_to_octants(s, spec)
    return lay.points, lay.corr


CLI_FORWARD_CASES = [
    (0, 120, ["powers-octants", "--t", "2"], lambda s: _squares(s, chain_of_powers(2))),
    (7, 90, ["powers-octants", "--t", "5"], lambda s: _squares(s, chain_of_powers(5))),
    (0, 80, ["powers-octants", "--chain", "1,2,6,12"],
     lambda s: _squares(s, chain_explicit([1, 2, 6, 12]))),
    (0, 150, ["pq-octants", "--M", "0"], lambda s: reference_map_pq_to_octants(s, 2, 3, [0])),
    (3, 150, ["pq-octants", "--p", "3", "--q", "4", "--M", "0,1,5"],
     lambda s: reference_map_pq_to_octants(s, 3, 4, [0, 1, 5])),
    (0, 150, ["powers-bottomless", "--t", "3", "--M", "0"],
     lambda s: reference_map_powers_to_bottomless(s, 3, [0])),
    (0, 150, ["powers-bottomless", "--t", "4", "--M", "0,1,3"],
     lambda s: reference_map_powers_to_bottomless(s, 4, [0, 1, 3])),
]


@pytest.mark.parametrize("lo, hi, argv, reference", CLI_FORWARD_CASES,
                         ids=[f"{lo}..{hi}_" + "_".join(argv) for lo, hi, argv, _ in CLI_FORWARD_CASES])
def test_cli_embed_documents_match_reference(tmp_path, lo, hi, argv, reference):
    out = tmp_path / "embed.json"
    assert main(["embed", "--map", *argv, "--vertices", f"{lo}..{hi}", "--out", str(out)]) == 0
    pts, corr = reference(list(range(lo, hi + 1)))
    doc = formats.points_doc(pts)
    doc["correspondence"] = [list(p) for p in corr.pairs]
    assert out.read_text() == formats.dumps(doc, pretty=False)


def _corner_doc(bases):
    def want(pts):
        pairs = reference_corner_labels(pts, bases).pairs
        return {"format": formats.FORMAT, "correspondence": [list(p) for p in pairs]}
    return want


def _tfin_doc(pts):
    doc = formats.points_doc(PointSet.of([(u, v, -v) for u, v in pts.points], dim=3))
    return doc | {"correspondence": [[i, i] for i in range(len(pts))]}


CLI_POINTS_CASES = [
    (3, ["octants-pq"], _corner_doc((2, 3))),
    (3, ["octants-pq", "--p", "4", "--q", "9"], _corner_doc((4, 9))),
    (4, ["hextants-pqr"], _corner_doc((2, 3, 5))),
    (4, ["hextants-pqr", "--p", "3", "--q", "4", "--p3", "5"], _corner_doc((3, 4, 5))),
    (2, ["rectangles-tfin"], _tfin_doc),
]


@pytest.mark.parametrize("dim, argv, want", CLI_POINTS_CASES,
                         ids=["_".join(argv) for _, argv, _ in CLI_POINTS_CASES])
def test_cli_embed_point_maps_match_reference(tmp_path, dim, argv, want):
    """The maps that read --points: the reverse maps emit the
    correspondence alone, rectangles-tfin the points as well."""
    pts = _shuffled_points(random.Random(f"cli/{argv}"), 12, dim, 3)
    path = tmp_path / "points.json"
    path.write_text(formats.dumps(formats.points_doc(pts)))
    out = tmp_path / "embed.json"
    assert main(["embed", "--map", *argv, "--points", str(path), "--out", str(out)]) == 0
    assert out.read_text() == formats.dumps(want(pts), pretty=False)


# -- construction set-up: strips rows, canonical edges, int coordinates -------

def _valid_strip_m(m):
    try:
        GadgetParams.for_m(m)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("m", [m for m in range(10, 41) if _valid_strip_m(m)])
def test_strip_layout_matches_reference(m):
    """One row laid out once and moved per row, with the stretch index
    rounded on an exact quotient: the same document and the same group
    order as each row laid out on its own with a float quotient."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # every m but 22 is uncertified
        inst = build_strip_no2shs(m)
    ref = reference_build_strip_no2shs(m)
    assert (formats.dumps(formats.instance_doc(inst))
            == formats.dumps(formats.instance_doc(ref)))
    assert list(inst.groups) == list(ref.groups)


# how an edge reaches from_edges; each call builds a fresh iterable
_EDGE_FORMS = {
    "increasing-tuple": lambda e: tuple(sorted(set(e))),
    "tuple": tuple,
    "list": list,
    "generator": lambda e: (v for v in e),
}


def _from_edges_input(rng):
    """(n, edges as (form, vertices)): unsorted vertices with repeats,
    repeated edges, empty edges and, now and then, a vertex out of range."""
    n = rng.randint(0, 7)
    raw = []
    for _ in range(rng.randint(0, 10)):
        if raw and rng.random() < 0.2:
            raw.append(rng.choice(raw))  # a repeated edge
            continue
        e = [rng.randrange(n) for _ in range(rng.randint(0, n + 2))] if n else []
        if rng.random() < 0.05:
            e.insert(rng.randint(0, len(e)), rng.choice([-1, n]))
        raw.append((rng.choice(list(_EDGE_FORMS)), e))
    return n, raw


def test_from_edges_matches_reference_seeded():
    """Taking a strictly increasing tuple as it is gives the same
    hypergraph, or the same error text, as sorting every edge; the edges
    come as a list or as one generator."""
    rng = random.Random(16001)
    forms = set()
    for _ in range(1500):
        n, raw = _from_edges_input(rng)
        forms.update(form for form, _ in raw)
        for wrap in (list, iter):
            got, want = (_outcome(fn, n, wrap([_EDGE_FORMS[form](e) for form, e in raw]))
                         for fn in (Hypergraph.from_edges, reference_from_edges))
            assert got == want
    assert forms == set(_EDGE_FORMS)
    assert _outcome(Hypergraph.from_edges, 3, [(0, 3)]) == \
        "ValueError: edge (0, 3) has a vertex outside [0, 3)"
    assert _outcome(Hypergraph.from_edges, -1, []) == \
        "ValueError: vertex count must be non-negative"


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.tag}-{f.s}")
def test_int_points_match_fraction_points(fam):
    """A point set whose integral coordinates stay ints (halves mixed in)
    against the same set on Fractions: equal with equal hashes, the same
    rank tables, capture hypergraph and document bytes."""
    rng = random.Random(f"ints/{fam.tag}/{fam.s}")
    types = set()
    for _ in range(30):
        twice = [[rng.randint(-12, 12) for _ in range(fam.dim)] for _ in range(rng.randint(1, 7))]
        ints = PointSet.of([[v // 2 if v % 2 == 0 else Fraction(v, 2) for v in pt]
                            for pt in twice])
        fracs = PointSet.of([[Fraction(v, 2) for v in pt] for pt in twice])
        types.update(type(c) for pt in ints.points for c in pt)
        assert {type(c) for pt in fracs.points for c in pt} == {Fraction}
        assert ints == fracs and hash(ints) == hash(fracs)
        assert ints.orders == fracs.orders and ints.ranks == fracs.ranks
        assert capture_edges(ints, fam) == capture_edges(fracs, fam)
        assert (formats.dumps(formats.points_doc(ints))
                == formats.dumps(formats.points_doc(fracs)))
    assert types == {int, Fraction}
