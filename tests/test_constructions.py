import itertools
import random
import warnings
from fractions import Fraction

import pytest

from polyshallow.constructions import (
    FalsifierAbort,
    GadgetParams,
    build_bottomless_no3shs,
    build_cross_lb,
    build_dual_strip_lb,
    build_sstrips_lb,
    build_strip_no2shs,
    dualstrips,
    falsify_bottomless,
    falsify_strips,
    witness_cross,
    witness_dual_strip,
)
from polyshallow.constructions.instance import copies_per_base
from polyshallow.constructions.sstrips import single_strip_part_at_least
from polyshallow.core import (
    ColorAssignment,
    Hypergraph,
    VertexSet,
    is_polychromatic,
)
from polyshallow.constructions.strips import CERTIFIED_M
from polyshallow.formats import instance_doc, instance_from
from polyshallow.geometry import capture_contains, capture_edges, strip_union
from polyshallow.solvers import UNSAT, SolveBudget, solve_shallow_hitting


# --- thm2: bottomless, no 3-shallow hitting set ------------------------------

def test_thm2_counts():
    assert build_bottomless_no3shs(12).n == 2004  # m^3 + 2m^2 - m
    inst3 = build_bottomless_no3shs(3)
    assert inst3.n == 42 and not inst3.theorem_scale
    with pytest.raises(ValueError):
        build_bottomless_no3shs(2)


def test_thm2_group_shapes():
    m = 12
    inst = build_bottomless_no3shs(m)
    assert len(inst.group("P")) == m
    for i in range(m):
        assert len(inst.group(f"A_{i}")) == m - 2
        assert len(inst.group(f"B_{i}")) == m
        for j in range(1, m + 1):
            assert len(inst.group(f"C_{i}_{j}")) == m


def test_thm2_baseline_is_an_edge():
    inst = build_bottomless_no3shs(12)
    assert capture_contains(inst.points, inst.family, inst.group("P"))
    # so are each B_i and each C_{i,j}
    assert capture_contains(inst.points, inst.family, inst.group("B_0"))
    assert capture_contains(inst.points, inst.family, inst.group("C_0_1"))


def test_thm2_falsifier_trivial_cases():
    inst = build_bottomless_no3shs(12)
    w = falsify_bottomless(inst, VertexSet.of([]))
    assert w.kind == "zero-hit" and w.edge == tuple(sorted(inst.group("P")))
    w2 = falsify_bottomless(inst, VertexSet.of(range(inst.n)))
    assert w2.kind == "overflow" and w2.detail == 12
    w3 = falsify_bottomless(inst, VertexSet.of([inst.group("P")[0]]))
    assert w3.kind == "zero-hit"  # case 2 window over A_1/B_1


def test_thm2_falsifier_case1():
    inst = build_bottomless_no3shs(12)
    s = VertexSet.of([inst.group("P")[2], inst.group("A_2")[0],
                      inst.group("B_2")[4], inst.group("C_2_5")[3]])
    w = falsify_bottomless(inst, s)
    assert w.kind == "overflow" and w.detail == 4


def test_thm2_falsifier_campaign():
    inst = build_bottomless_no3shs(12)
    rng = random.Random(99)
    for _ in range(400):
        dens = 0.01 + 0.49 * rng.random()
        s = VertexSet.of(v for v in range(inst.n) if rng.random() < dens)
        w = falsify_bottomless(inst, s)
        hits = sum(1 for v in w.edge if v in set(s.members))
        assert len(w.edge) == 12
        assert hits == 0 or hits >= 4
        assert capture_contains(inst.points, inst.family, w.edge)


def test_thm2_requires_theorem_scale():
    inst = build_bottomless_no3shs(5)
    with pytest.raises(ValueError):
        falsify_bottomless(inst, VertexSet.of([]))


# --- thm3: dual strips pigeonhole --------------------------------------------

def test_thm3_counts():
    strips, h, meta = build_dual_strip_lb(2)
    assert len(strips) == 4  # 4 * (ceil(3)/2 - 1) = 4
    strips4, _, _ = build_dual_strip_lb(4)
    assert len(strips4) == 8
    assert copies_per_base(8) == 5


def test_thm3_private_cells_are_edges():
    strips, h, meta = build_dual_strip_lb(4)
    groups = meta["groups"]
    for b1, b2 in itertools.combinations(range(4), 2):
        edge = tuple(sorted(groups[b1] + groups[b2]))
        assert edge in h.edges, (b1, b2)


def test_thm3_witness_protocol():
    rng = random.Random(7)
    for k in range(2, 7):
        strips, h, meta = build_dual_strip_lb(k)
        t = meta["copies"]
        for _ in range(60):
            chi = ColorAssignment(k, tuple(rng.randrange(k) for _ in range(4 * t)))
            w = witness_dual_strip(k, chi, meta)
            assert len(w.edge) == 2 * t
            assert w.edge in h.edges
            missing = w.detail
            assert all(chi.colors[v] != missing for v in w.edge)
            sub = Hypergraph.from_edges(len(strips), [w.edge])
            assert is_polychromatic(sub, chi) is not True


def test_thm3_all_zero_coloring():
    _, _, meta = build_dual_strip_lb(2)
    chi = ColorAssignment(2, (0,) * 4)
    w = witness_dual_strip(2, chi, meta)
    assert w.detail == 1


def test_thm3_witness_rechecks_private_cell(monkeypatch):
    # all-zero at k = 2 picks bases 0 and 1; a cell inside base 0 only
    # (x in (0, 2), outside x in (1, 3) and both y-strips) must abort
    _, _, meta = build_dual_strip_lb(2)
    chi = ColorAssignment(2, (0,) * 4)
    assert witness_dual_strip(2, chi, meta).edge == (0, 1)
    monkeypatch.setitem(dualstrips._PRIVATE_CELLS, (0, 1), (Fraction(1, 2), Fraction(-1)))
    with pytest.raises(FalsifierAbort, match="private cell of bases 0 and 1"):
        witness_dual_strip(2, chi, meta)


def test_thm3_disjoint_pair_coloring_k4():
    # copies of the four bases colored with pairs {0,1},{2,3},{0,2},{1,3}:
    # two bases share an absent color by counting
    strips, h, meta = build_dual_strip_lb(4)
    groups = meta["groups"]
    colors = [0] * len(strips)
    for b, pair in enumerate(([0, 1], [2, 3], [0, 2], [1, 3])):
        for t, v in enumerate(groups[b]):
            colors[v] = pair[t % 2]
    chi = ColorAssignment(4, tuple(colors))
    w = witness_dual_strip(4, chi, meta)
    assert len(w.edge) == 2 * meta["copies"]
    assert all(chi.colors[v] != w.detail for v in w.edge)
    sub = Hypergraph.from_edges(len(strips), [w.edge])
    assert is_polychromatic(sub, chi) is not True


# --- thm5: cross union pigeonhole ---------------------------------------------

def test_thm5_counts():
    assert build_cross_lb(2).n == 8
    assert build_cross_lb(4).n == 16


def test_thm5_all_triples_separable():
    inst = build_cross_lb(2)
    clusters = [inst.group(f"cluster_{c}") for c in range(8)]
    for triple in itertools.combinations(range(8), 3):
        pts = tuple(sorted(sum((clusters[c] for c in triple), ())))
        assert capture_contains(inst.points, inst.family, pts), triple


def test_thm5_witness_protocol():
    rng = random.Random(8)
    for k in (2, 3, 4):
        inst = build_cross_lb(k)
        t = inst.params["copies"]
        for _ in range(80):
            chi = ColorAssignment(k, tuple(rng.randrange(k) for _ in range(inst.n)))
            w = witness_cross(k, chi, inst)
            assert len(w.edge) == 3 * t
            assert all(chi.colors[v] != w.detail for v in w.edge)
            assert capture_contains(inst.points, inst.family, w.edge)


# --- thm4: strips, no-2-shallow construction ----------------------------------

def test_thm4_params():
    gp = GadgetParams.for_m(22)
    assert (gp.a, gp.b) == (7, 4) and gp.theorem_scale
    gp42 = GadgetParams.for_m(42)
    assert (gp42.a, gp42.b) == (13, 8)
    assert GadgetParams.for_m(21) == GadgetParams(21, 6, 8)  # every residue fits
    with pytest.raises(ValueError):
        GadgetParams.for_m(6)  # degenerate group sizes


def test_thm4_group_sizes_match_invariants():
    inst = build_strip_no2shs(22)
    m, a, b = 22, 7, 4
    assert len(inst.group("chi")) == m
    for j in (1, 2, 3):
        assert len(inst.group(f"X_0_{j}")) == 2 * a
        assert len(inst.group(f"B_0_{j}")) == m - 2 * a
        assert len(inst.group(f"E_0_{j}")) == a - b // 2 == m - 2 * a - b + 1
        assert len(inst.group(f"F_0_{j}")) == a - b // 2
        assert len(inst.group(f"H_0_{j}")) == b
        efh = len(inst.group(f"E_0_{j}")) + len(inst.group(f"F_0_{j}")) + len(inst.group(f"H_0_{j}"))
        assert efh == 2 * a


def test_thm4_structural_edges():
    inst = build_strip_no2shs(22)
    assert capture_contains(inst.points, inst.family, inst.group("chi"))
    b, c, x = inst.group("B_0_1"), inst.group("C_0_1"), inst.group("X_0_1")
    e, h, f = inst.group("E_0_1"), inst.group("H_0_1"), inst.group("F_0_1")
    assert capture_contains(inst.points, inst.family, b + x)      # (i)
    assert capture_contains(inst.points, inst.family, b[3:] + x + c[:3])  # (ii)
    assert capture_contains(inst.points, inst.family, e + h + f + b)      # (v)
    assert capture_contains(inst.points, inst.family, c + x)


def test_thm4_falsifier_trivial_cases():
    inst = build_strip_no2shs(22)
    w = falsify_strips(inst, VertexSet.of([]))
    assert w.kind == "zero-hit" and w.edge == tuple(sorted(inst.group("chi")))
    w2 = falsify_strips(inst, VertexSet.of(range(inst.n)))
    assert w2.kind == "overflow" and w2.detail == 22


def test_thm4_falsifier_row_overflow():
    inst = build_strip_no2shs(22)
    xi = inst.group("chi")[0]
    s = VertexSet.of([xi, inst.group("X_0_1")[0], inst.group("X_0_2")[0],
                      inst.group("X_0_3")[0]])
    w = falsify_strips(inst, s)
    hits = sum(1 for v in w.edge if v in set(s.members))
    assert hits == 0 or hits >= 3


def test_thm4_falsifier_campaign():
    inst = build_strip_no2shs(22)
    rng = random.Random(100)
    for _ in range(300):
        dens = 0.01 + 0.49 * rng.random()
        s = VertexSet.of(v for v in range(inst.n) if rng.random() < dens)
        w = falsify_strips(inst, s)
        hits = sum(1 for v in w.edge if v in set(s.members))
        assert len(w.edge) == 22 and (hits == 0 or hits >= 3)
        assert capture_contains(inst.points, inst.family, w.edge)


def row_sub_instance(inst, i):
    """Row i of a thm4 instance on its own: its points (the groups of row i
    and x_i), every exact-m x- or y-window of the whole instance that lies
    wholly inside them, and x_i forced in by a singleton edge. chi is an
    edge and the rows are translates of one another (the last row also
    gets the x-windows that reach x_{m-1}), so if row 0's sub-instance has
    no 2-shallow hitting set, neither has H_{=m}. Vertices are numbered
    outward from x_i in y, upper side first: the solver breaks degree ties
    by index, so it settles the band around x_i before the zones."""
    m = inst.params["m"]
    pts = inst.points.points
    xi = inst.group("chi")[i]
    row = {xi}
    for name, members in inst.groups.items():
        if name.split("_")[1:2] == [str(i)]:
            row.update(members)
    y_xi = pts[xi][1]
    local = sorted(row, key=lambda v: (pts[v][1] < y_xi, abs(pts[v][1] - y_xi)))
    index = {v: t for t, v in enumerate(local)}
    edges = {(index[xi],)}
    for axis in (0, 1):
        order = sorted(range(len(pts)), key=lambda v: pts[v][axis])
        for t in range(len(order) - m + 1):
            window = order[t:t + m]
            if all(v in row for v in window):
                edges.add(tuple(sorted(index[v] for v in window)))
    return Hypergraph.from_edges(len(local), edges)


@pytest.mark.slow
def test_thm4_row_certificate():
    # the certificate of the construction at its smallest theorem scale:
    # decided by exhausting the search, not by the node budget
    inst = build_strip_no2shs(22)
    h = row_sub_instance(inst, 0)
    assert (h.n, len(h.edges)) == (151, 260)
    res = solve_shallow_hitting(h, 2, SolveBudget(max_nodes=600_000))
    assert res.status == UNSAT, (
        f"{res.status} after {res.stats.nodes} nodes; the budget fits the "
        "solver's static degree-then-index branching on the outward vertex "
        "numbering of row_sub_instance, so a change to that order can exhaust "
        "it with nothing wrong in the construction")


def test_thm4_only_certified_m_claims_theorem_scale():
    # m = 25 is theorem scale by size, but its row sub-instance has a
    # 2-shallow hitting set, so the instance must not claim the theorem
    assert CERTIFIED_M == {22} and GadgetParams.for_m(25).theorem_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst22 = build_strip_no2shs(22)
        falsify_strips(inst22, VertexSet.of([]))
    assert inst22.theorem_scale
    with pytest.warns(UserWarning, match="m=25 has no row certificate"):
        inst25 = build_strip_no2shs(25)
    assert not inst25.theorem_scale
    assert not instance_from(instance_doc(inst25)).theorem_scale
    with pytest.warns(UserWarning, match="m=25 has no row certificate"):
        falsify_strips(inst25, VertexSet.of([]))


# --- thm6: diagonal strip-union copies ------------------------------------------

def small_strips_instance():
    # a small strips instance stands in for the thm4 base at test scale
    from polyshallow.constructions.instance import ConstructionInstance
    from polyshallow.geometry import STRIPS, PointSet
    pts = [(i, (3 * i) % 7) for i in range(7)]
    return ConstructionInstance("thm4", PointSet.of(pts, dim=2), STRIPS, {"m": 3}, {})


def test_thm6_copy_counts():
    base = small_strips_instance()
    assert build_sstrips_lb(1, 2, base).params["copies"] == 1
    assert build_sstrips_lb(2, 2, base).params["copies"] == 3
    assert build_sstrips_lb(2, 3, base).params["copies"] == 4


def test_thm6_edges_survive_translation():
    base = small_strips_instance()
    inst = build_sstrips_lb(2, 2, base)
    base_edges = capture_edges(base.points, base.family).edges
    for r in range(inst.params["copies"]):
        copy = inst.group(f"copy_{r}")
        for e in base_edges[:12]:
            image = [copy[v] for v in e]
            assert capture_contains(inst.points, base.family, image)


def test_thm6_pigeonhole_invariant():
    rng = random.Random(44)
    for s in (2, 3):
        for _ in range(10):
            n = rng.randint(4, 11)
            pts = set()
            while len(pts) < n:
                pts.add((rng.randint(0, 30), rng.randint(0, 30)))
            from polyshallow.geometry import PointSet
            p = PointSet.of(sorted(pts))
            h = capture_edges(p, strip_union(s))
            for m in (2, 3):
                for e in h.edges:
                    if len(e) >= s * (m - 1) + 1:
                        assert single_strip_part_at_least(p, e, m), (s, m, e)
