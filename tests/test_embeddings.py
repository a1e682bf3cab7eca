import random
from fractions import Fraction

import pytest

from conftest import rand_points, rand_points_distinct, reference_chain_digits, reference_divisor
from polyshallow.apgraphs import APSpec, build_ap_hypergraph
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
    map_rectangles_to_tfin,
    valuation,
    verify_edge_preservation,
)
from polyshallow.geometry import (
    BOTTOMLESS,
    OCTANTS,
    RECTANGLES,
    TFIN_SLABS,
    PointSet,
    capture_edges,
)


def ap_edges(svals, spec):
    return build_ap_hypergraph(svals, spec)


def test_valuation():
    assert valuation(12, 2) == 2 and valuation(12, 3) == 1 and valuation(5, 2) == 0
    assert valuation(0, 2) is None
    for p in (1, 0):  # p = 1 divides everything: no finite exponent
        with pytest.raises(ValueError, match="base must be >= 2"):
            valuation(12, p)


def test_squares_recursion_preserves_small():
    s = list(range(0, 30))
    lay = map_powers_to_octants(s, chain_of_powers(2))
    spec = APSpec.powers(2, list(range(30)), "infinite")  # M = N up to max(S)
    h, labels, _ = ap_edges(s, spec)
    rep = verify_edge_preservation(h, labels, lay.points, OCTANTS, lay.corr)
    assert rep.ok, rep


def test_squares_recursion_chain():
    s = list(range(0, 25))
    lay = map_powers_to_octants(s, chain_explicit([1, 2, 6]))
    spec = APSpec.divisor_chain([2, 6], list(range(25)), "infinite")
    h, labels, _ = ap_edges(s, spec)
    assert verify_edge_preservation(h, labels, lay.points, OCTANTS, lay.corr).ok


def test_squares_nesting_monotone():
    lay = map_powers_to_octants(range(0, 20), chain_of_powers(2))
    boxes = lay.boxes
    spec = chain_of_powers(2)
    for n in boxes:
        if n == 0:
            continue
        digs = reference_chain_digits(spec, n)
        parent = n - digs[-1][1] * reference_divisor(spec, digs[-1][0])
        (py, pz, ps) = boxes[parent]
        (cy, cz, cs) = boxes[n]
        assert py < cy and cy + cs < py + ps  # strictly inside in y
        assert pz < cz and cz + cs < pz + ps  # strictly inside in z
    # siblings on a NW-SE diagonal: y increases, z decreases
    kids = sorted(n for n in boxes if n != 0 and (n & (n - 1)) == 0)  # 1,2,4,8,16
    for a, b in zip(kids, kids[1:]):
        ya, za, sa = boxes[a]
        yb, zb, sb = boxes[b]
        assert ya + sa < yb and zb + sb < za


def test_singleton_squares():
    lay = map_powers_to_octants([0], chain_of_powers(2))
    assert len(lay.points.points) == 1


def test_squares_read_chain_kinds_only():
    """A chain is a powers or divisorChain spec; its M and mode are not read."""
    assert chain_explicit([1, 2, 6]) == chain_explicit([2, 6]) == APSpec.divisor_chain([2, 6], [0])
    s = range(40)
    want = map_powers_to_octants(s, chain_of_powers(3))
    assert map_powers_to_octants(s, APSpec.powers(3, [1, 2, 5], "finite")) == want
    for spec in (APSpec.explicit([2, 4], [0]), APSpec.bi_powers(2, 3, [0]),
                 APSpec.tri_powers(2, 3, 5, [0])):
        with pytest.raises(ValueError, match=f"powers or divisorChain spec, not '{spec.kind}'"):
            map_powers_to_octants(s, spec)


def test_pq_map_values():
    pts, corr = map_pq_to_octants([5, 12, 7, 0], 2, 3, [0])
    d = {lbl: pts.points[i] for lbl, i in corr.pairs}
    assert d[5] == (5, 1, 1)  # zero valuations: sentinel +1 on both axes
    assert d[12] == (12, Fraction(-1, 2), 0)  # reflected 1 - 1/g form
    assert d[0] == (0, -1, -1)
    assert d[7] == (7, 1, 1)


def test_pq_map_preserves_m0():
    s = list(range(0, 45))
    pts, corr = map_pq_to_octants(s, 2, 3, [0])
    h, labels, _ = ap_edges(s, APSpec.bi_powers(2, 3, [0], "infinite"))
    assert verify_edge_preservation(h, labels, pts, OCTANTS, corr).ok


def test_pq_map_preserves_general_m():
    # D restricted to {1} u {p^i q^j : i,j >= 1}: class-crossing differences
    # (min exponent 0, max >= 2) are pigeonholed in the source argument,
    # not captured geometrically
    s = list(range(0, 45))
    ds = sorted({1} | {2**i * 3**j for i in range(1, 6) for j in range(1, 4)
                 if 2**i * 3**j <= 45})
    pts, corr = map_pq_to_octants(s, 2, 3, [0, 1])
    h, labels, _ = ap_edges(s, APSpec.explicit(ds, [0, 1], "infinite"))
    assert verify_edge_preservation(h, labels, pts, OCTANTS, corr).ok


def test_pq_map_validation():
    with pytest.raises(ValueError):
        map_pq_to_octants([1], 2, 4, [0])
    with pytest.raises(ValueError):
        map_pq_to_octants([1], 2, 3, [0, 6])  # duplicate residues mod 6
    with pytest.raises(ValueError):
        map_pq_to_octants([1], 2, 3, [0, 7])  # outside [0, pq)
    with pytest.raises(ValueError, match=r"M must lie in \[0, pq\)"):
        map_pq_to_octants([1], 2, 3, [0, -1])  # negative offset
    with pytest.raises(ValueError, match=r"M must lie in \[0, t\)"):
        map_powers_to_bottomless([1], 2, [0, -1])


def test_gamma_examples():
    g1 = map_octants_to_pq(PointSet.of([(0, 0, 0)]), 2, 3)
    assert g1.pairs == ((6, 0),)
    g2 = map_octants_to_pq(PointSet.of([(0, 0, 0), (1, 1, 1)]), 2, 3)
    assert sorted(l for l, _ in g2.pairs) == [6, 36]


def test_gamma_divisibility_random():
    rng = random.Random(31)
    for _ in range(40):
        p = rand_points_distinct(rng, rng.randint(1, 8), 3)
        corr = map_octants_to_pq(p, 2, 3)
        assert check_corner_divisibility(p, corr, [2, 3]).ok
        labels = sorted(l for l, _ in corr.pairs)
        assert labels == sorted(set(labels))  # injective


def test_gamma_handles_ties():
    p = PointSet.of([(0, 0, 0), (0, 0, 1), (1, 0, 0)])  # ties broken by index
    corr = map_octants_to_pq(p, 2, 3)
    assert check_corner_divisibility(p, corr, [2, 3]).ok


@pytest.mark.parametrize("bases", [[2, 3], [2], [], [2, 3, 5]], ids=str)
def test_corner_divisibility_needs_one_base_per_bounded_axis(bases):
    p = PointSet.of([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    corr = Correspondence("points-to-numbers", "octants", ((1, 0), (2, 1), (3, 2)))
    if len(bases) == 2:
        assert check_corner_divisibility(p, corr, bases).status == "failed"
    else:
        with pytest.raises(ValueError, match=f"{len(bases)} bases for the 2 bounded axes"):
            check_corner_divisibility(p, corr, bases)


def test_eta_examples_and_random():
    e1 = map_hextants_to_pqr(PointSet.of([(0, 0, 0, 0)]), 2, 3, 5)
    assert e1.pairs == ((30, 0),)
    e2 = map_hextants_to_pqr(PointSet.of([(0, 0, 0, 0), (1, 1, 1, 1)]), 2, 3, 5)
    assert sorted(l for l, _ in e2.pairs) == [30, 900]
    rng = random.Random(32)
    for _ in range(20):
        p = rand_points_distinct(rng, rng.randint(1, 6), 4)
        corr = map_hextants_to_pqr(p, 2, 3, 5)
        assert check_corner_divisibility(p, corr, [2, 3, 5]).ok


def test_bottomless_map_values():
    pts, corr = map_powers_to_bottomless([0, 8, 12, 5], 2, [0])
    d = {lbl: pts.points[i] for lbl, i in corr.pairs}
    assert d[8] == (Fraction(7, 8), Fraction(1, 3))  # t(8) = 3
    assert d[12] == (Fraction(11, 12), Fraction(1, 2))  # t(12) = 2
    assert d[5] == (Fraction(4, 5), 2)  # sentinel for valuation 0
    assert d[0] == (-1, 0)  # x(0) below every 1 - 1/n (ledgered)


def test_bottomless_map_preserves():
    s = list(range(0, 45))
    pts, corr = map_powers_to_bottomless(s, 2, [0])
    h, labels, _ = ap_edges(s, APSpec.powers(2, [0], "finite"))
    assert verify_edge_preservation(h, labels, pts, BOTTOMLESS, corr).ok
    # general M: differences t^i with i >= 1
    pts2, corr2 = map_powers_to_bottomless(s, 3, [0, 1])
    ds = [3**i for i in range(1, 4)]
    h2, labels2, _ = ap_edges(s, APSpec.explicit(ds, [0, 1], "finite"))
    assert verify_edge_preservation(h2, labels2, pts2, BOTTOMLESS, corr2).ok


@pytest.mark.parametrize("t, failing", [(2, [0, 1, 2]), (3, [0, 1, 2, 3])])
def test_bottomless_map_general_m_needs_explicit_powers(t, failing):
    """As documented: with M != {0} the map preserves D = {t^i : i >= 1};
    the powers kind adds d = 1, and its progressions are reported failed."""
    s = range(31)
    pts, corr = map_powers_to_bottomless(s, t, [0, 1])
    h, labels, _ = ap_edges(s, APSpec.powers(t, [0, 1], "finite"))
    rep = verify_edge_preservation(h, labels, pts, BOTTOMLESS, corr)
    assert rep.status == "failed" and [labels[v] for v in rep.failing_edge] == failing
    ds = [t**i for i in range(1, 5)]
    h, labels, _ = ap_edges(s, APSpec.explicit(ds, [0, 1], "finite"))
    assert verify_edge_preservation(h, labels, pts, BOTTOMLESS, corr).ok


def test_rectangles_to_tfin():
    p2 = PointSet.of([(3, 5), (0, 0), (1, 1)])
    p3, corr = map_rectangles_to_tfin(p2)
    assert p3.points[0] == (3, 5, -5)
    h = capture_edges(p2, RECTANGLES)
    assert verify_edge_preservation(h, list(range(3)), p3, TFIN_SLABS, corr).ok
    rng = random.Random(33)
    for _ in range(25):
        p2 = rand_points(rng, rng.randint(1, 8), 2)
        p3, corr = map_rectangles_to_tfin(p2)
        h = capture_edges(p2, RECTANGLES)
        rep = verify_edge_preservation(h, list(range(len(p2.points))), p3, TFIN_SLABS, corr)
        assert rep.ok, (p2.points, rep)


def test_tfin_prefix_property():
    # includes the geometry where the literal multiples-contiguity fails
    p = PointSet.of([(1, 1, 1), (2, 3, 2), (3, 2, 3)])
    corr = map_octants_to_pq(p, 2, 3)
    assert check_tfin_prefix(p, corr).ok
    rng = random.Random(34)
    for _ in range(30):
        p = rand_points_distinct(rng, rng.randint(1, 8), 3)
        corr = map_octants_to_pq(p, 2, 3)
        assert check_tfin_prefix(p, corr).ok


def test_corrupted_correspondence_detected():
    s = list(range(0, 20))
    lay = map_powers_to_octants(s, chain_of_powers(2))
    spec = APSpec.powers(2, list(range(20)), "infinite")
    h, labels, _ = ap_edges(s, spec)
    pairs = list(lay.corr.pairs)
    pairs[1], pairs[3] = (pairs[1][0], pairs[3][1]), (pairs[3][0], pairs[1][1])
    bad = Correspondence("numbers-to-points", "octants", tuple(pairs))
    rep = verify_edge_preservation(h, labels, lay.points, OCTANTS, bad)
    assert not rep.ok and rep.failing_edge is not None


def test_correspondence_injectivity_enforced():
    with pytest.raises(ValueError):
        Correspondence("numbers-to-points", "octants", ((1, 0), (2, 0)))
