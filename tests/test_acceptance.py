"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Budgets and tolerances are pinned here, not deferred.

Criterion 3's solver clause spends up to its whole 600 s budget: H_22 of
the strips construction has no 2-shallow hitting set (certified row by
row in test_constructions.py), so the solver ends UNSAT or out of budget.
"""
import itertools
import random
import time

import pytest

from conftest import oracle_capture_sets, rand_points, rand_points_distinct
from polyshallow.apgraphs import APSpec, build_ap_hypergraph
from polyshallow.constructions import (
    FalsifierAbort,
    build_bottomless_no3shs,
    build_cross_lb,
    build_dual_strip_lb,
    build_sstrips_lb,
    build_strip_no2shs,
    falsify_bottomless,
    falsify_strips,
    witness_cross,
    witness_dual_strip,
)
from polyshallow.constructions.sstrips import single_strip_part_at_least
from polyshallow.core import (
    ColorAssignment,
    Hypergraph,
    VertexSet,
    is_polychromatic,
    is_shallow_hitting,
    restrict_at_least,
)
from polyshallow.embeddings import (
    chain_of_powers,
    check_corner_divisibility,
    check_tfin_prefix,
    map_hextants_to_pqr,
    map_octants_to_pq,
    map_powers_to_bottomless,
    map_powers_to_octants,
    map_pq_to_octants,
    map_rectangles_to_tfin,
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
    capture_contains,
    capture_edges,
    strip_union,
)
from polyshallow.solvers import (
    BUDGET_EXHAUSTED,
    SAT,
    UNSAT,
    SolveBudget,
    coloring_pipeline,
    min_m_polychromatic,
    probe_candidates,
    solve_many,
    solve_polychromatic,
    solve_shallow_hitting,
)


def report(num, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -------------------------------------------------------------------------
# 1. capture oracle equivalence, 8 families x 200 seeded point sets, < 60 s
# -------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rng = random.Random(20260101)
    fams = [BOTTOMLESS, STRIPS, strip_union(2), CROSS_UNION,
            RECTANGLES, OCTANTS, TFIN_SLABS, HEXTANTS]
    t0 = time.time()
    for trial in range(200):
        n = rng.randint(1, 10)
        seeds = {dim: rand_points(rng, n, dim, coord_range=3 * n)
                 for dim in (2, 3, 4)}
        for fam in fams:
            p = seeds[fam.dim]
            got = {frozenset(e) for e in capture_edges(p, fam).edges}
            want = oracle_capture_sets(p, fam.tag, fam.s)
            assert got == want, (trial, fam.tag, p.points)
    dt = time.time() - t0
    report(1, dt < 60, f"200 point sets x 8 families, exact set equality, {dt:.1f}s")


# -------------------------------------------------------------------------
# 2. thm2 falsifier campaign at m = 12, < 120 s
# -------------------------------------------------------------------------

def _structural_edges_thm2(inst):
    m = inst.params["m"]
    edges = [inst.group("P")]
    for i in range(m):
        edges.append(inst.group(f"B_{i}"))
        for j in range(1, m + 1):
            edges.append(inst.group(f"C_{i}_{j}"))
        a = inst.group(f"A_{i}")
        b = inst.group(f"B_{i}")
        edges.append((inst.group("P")[i],) + a[:-1] + (b[0], inst.group(f"C_{i}_1")[0]))
        for t in range(m - 2):
            edges.append(a[:-1] + b[t:t + 3])
    return Hypergraph.from_edges(inst.n, edges)


def test_criterion_2_thm2_falsifier():
    inst = build_bottomless_no3shs(12)
    assert inst.n == 2004
    rng = random.Random(20260102)
    sset_cache = set()
    t0 = time.time()
    aborts = 0
    for trial in range(10_000):
        dens = 0.01 + 0.49 * rng.random()
        s = VertexSet.of(v for v in range(inst.n) if rng.random() < dens)
        try:
            w = falsify_bottomless(inst, s)
        except FalsifierAbort:
            aborts += 1
            continue
        hits = sum(1 for v in w.edge if v in set(s.members))
        assert len(w.edge) == 12
        assert hits == 0 or hits >= 4
        if trial % 500 == 0:
            assert capture_contains(inst.points, inst.family, w.edge)
        else:
            sset_cache.add(w.edge)
    for edge in sset_cache:  # re-verify every distinct witness edge once
        assert capture_contains(inst.points, inst.family, edge)
    probes = probe_candidates(_structural_edges_thm2(inst), 3, 100, seed=7)
    for s in probes:
        try:
            w = falsify_bottomless(inst, s)
        except FalsifierAbort:
            aborts += 1
            continue
        hits = sum(1 for v in w.edge if v in set(s.members))
        assert len(w.edge) == 12 and (hits == 0 or hits >= 4)
        assert capture_contains(inst.points, inst.family, w.edge)
    dt = time.time() - t0
    report(2, aborts == 0 and dt < 120,
           f"10k random + 100 probe candidates, {aborts} aborts, {dt:.1f}s")


# -------------------------------------------------------------------------
# 3. thm4 falsifier + solver clause at m = 22 (no 2-shallow hitting set
#    exists; see the module docstring)
# -------------------------------------------------------------------------

def _uniform_strips_hypergraph(inst, m):
    pts = inst.points.points
    n = len(pts)
    edges = set()
    for axis in (0, 1):
        order = sorted(range(n), key=lambda v: pts[v][axis])
        for t in range(n - m + 1):
            edges.add(tuple(sorted(order[t:t + m])))
    return Hypergraph.from_edges(n, edges)


@pytest.mark.slow
def test_criterion_3_thm4_falsifier_and_solver():
    inst = build_strip_no2shs(22)
    rng = random.Random(20260103)
    aborts = 0
    t0 = time.time()
    for trial in range(10_000):
        dens = 0.01 + 0.49 * rng.random()
        s = VertexSet.of(v for v in range(inst.n) if rng.random() < dens)
        try:
            w = falsify_strips(inst, s)
        except FalsifierAbort:
            aborts += 1
            continue
        hits = sum(1 for v in w.edge if v in set(s.members))
        assert len(w.edge) == 22 and (hits == 0 or hits >= 3)
        if trial % 500 == 0:
            assert capture_contains(inst.points, inst.family, w.edge)
    h22 = _uniform_strips_hypergraph(inst, 22)
    probes = probe_candidates(h22, 2, 100, seed=7)
    for s in probes:
        try:
            w = falsify_strips(inst, s)
        except FalsifierAbort:
            aborts += 1
            continue
        hits = sum(1 for v in w.edge if v in set(s.members))
        assert len(w.edge) == 22 and (hits == 0 or hits >= 3)
    res = solve_shallow_hitting(h22, 2, SolveBudget(max_nodes=None, max_millis=600_000))
    dt = time.time() - t0
    ok = aborts == 0 and res.status in (UNSAT, BUDGET_EXHAUSTED)
    report(3, ok,
           f"{aborts} aborts; solve_shallow_hitting(H_22, c=2) -> {res.status} "
           f"({res.stats.nodes} nodes); {dt:.1f}s")


# -------------------------------------------------------------------------
# 4. strips shallow-hitting tightness: 3-shallow hitting sets always exist
# -------------------------------------------------------------------------

def test_criterion_4_strips_3shallow():
    rng = random.Random(20260104)
    t0 = time.time()
    sat = 0
    total = 0
    for trial in range(200):
        n = rng.randint(4, 14)
        m = rng.randint(3, 6)
        p = rand_points(rng, n, 2)
        h = capture_edges(p, STRIPS, exact=m)
        if not h.edges:
            h = Hypergraph.from_edges(n, [tuple(range(min(n, m)))])
        total += 1
        res = solve_shallow_hitting(h, 3)
        if res.status == SAT:
            assert is_shallow_hitting(h, res.witness, 3) is True
            sat += 1
    dt = time.time() - t0
    report(4, sat == total, f"{sat}/{total} SAT for H_=m, 3<=m<=6, n<=14, {dt:.1f}s")


# -------------------------------------------------------------------------
# 5. thm3 witness protocol + instance-level bound at k = 2
# -------------------------------------------------------------------------

def test_criterion_5_thm3_witness():
    rng = random.Random(20260105)
    t0 = time.time()
    for k in range(2, 9):
        strips, h, meta = build_dual_strip_lb(k)
        t = meta["copies"]
        for _ in range(1000):
            chi = ColorAssignment(k, tuple(rng.randrange(k) for _ in range(len(strips))))
            w = witness_dual_strip(k, chi, meta)
            assert len(w.edge) == 2 * t
            assert all(chi.colors[v] != w.detail for v in w.edge)
            assert w.edge in h.edges
    # k = 2: the instance-level bound 3 <= m (H_{>=2} is not 2-colorable)
    _, h2, _ = build_dual_strip_lb(2)
    res = solve_polychromatic(restrict_at_least(h2, 2), 2)
    dt = time.time() - t0
    report(5, res.status == UNSAT,
           f"7 k-values x 1000 colorings; k=2 instance bound m >= 3 ({res.status}); {dt:.1f}s")


# -------------------------------------------------------------------------
# 6. thm5: witness protocol, 56 separable triples, H_{>=5} 2-colorable
# -------------------------------------------------------------------------

def test_criterion_6_thm5():
    rng = random.Random(20260106)
    t0 = time.time()
    for k in range(2, 9):
        inst = build_cross_lb(k)
        t = inst.params["copies"]
        for _ in range(1000):
            chi = ColorAssignment(k, tuple(rng.randrange(k) for _ in range(inst.n)))
            w = witness_cross(k, chi, inst)
            assert len(w.edge) == 3 * t
            assert all(chi.colors[v] != w.detail for v in w.edge)
    inst2 = build_cross_lb(2)
    clusters = [inst2.group(f"cluster_{c}") for c in range(8)]
    separable = 0
    for triple in itertools.combinations(range(8), 3):
        pts = tuple(sorted(sum((clusters[c] for c in triple), ())))
        if capture_contains(inst2.points, inst2.family, pts):
            separable += 1
    colorable = 0
    for _ in range(100):
        n = rng.randint(5, 18)
        p = rand_points(rng, n, 2, coord_range=2 * n)
        h5 = restrict_at_least(capture_edges(p, CROSS_UNION), 5)
        if solve_polychromatic(h5, 2).status == SAT:
            colorable += 1
    dt = time.time() - t0
    report(6, separable == 56 and colorable == 100,
           f"{separable}/56 triples separable; {colorable}/100 instances "
           f"with H_>=5 2-colorable; {dt:.1f}s")


# -------------------------------------------------------------------------
# 7. thm6: pigeonhole structure + min_m envelope on diagonal copies
# -------------------------------------------------------------------------

def test_criterion_7_thm6():
    rng = random.Random(20260107)
    t0 = time.time()
    checked = 0
    for s, n_max in ((2, 20), (3, 12)):
        for _ in range(12):
            n = rng.randint(4, n_max)
            p = rand_points(rng, n, 2, coord_range=3 * n)
            h = capture_edges(p, strip_union(s))
            for m in (2, 3, 4):
                for e in h.edges:
                    if len(e) >= s * (m - 1) + 1:
                        assert single_strip_part_at_least(p, e, m), (s, m, e)
                        checked += 1
    # envelope: instance min_m of 2-fold diagonal copies >= 2 mb - 1
    from polyshallow.constructions.instance import ConstructionInstance
    envelope_ok = True
    for _ in range(5):
        n = rng.randint(4, 7)
        p = rand_points_distinct(rng, n, 2)
        base_h = capture_edges(p, STRIPS)
        mb = min_m_polychromatic(base_h, 2).m
        base_inst = ConstructionInstance("thm4", p, STRIPS, {"m": mb}, {})
        copies = build_sstrips_lb(2, 2, base_inst)
        h2 = capture_edges(copies.points, strip_union(2))
        m2 = min_m_polychromatic(h2, 2).m
        envelope_ok = envelope_ok and (m2 >= 2 * mb - 1)
    dt = time.time() - t0
    report(7, envelope_ok, f"{checked} pigeonhole checks; envelope holds; {dt:.1f}s")


# -------------------------------------------------------------------------
# 8. embedding preservation (forward and reverse)
# -------------------------------------------------------------------------

def test_criterion_8_embeddings():
    t0 = time.time()
    # (a) squares recursion, t in {2,3}, S = 0..40, M = N
    for t in (2, 3):
        s = list(range(41))
        lay = map_powers_to_octants(s, chain_of_powers(t))
        spec = APSpec.powers(t, list(range(41)), "infinite")
        h, labels, _ = build_ap_hypergraph(s, spec)
        assert verify_edge_preservation(h, labels, lay.points, OCTANTS, lay.corr).ok
    # (b) two-base valuations, S = 0..60
    s60 = list(range(61))
    for ms in ([0], [0, 1]):
        pts, corr = map_pq_to_octants(s60, 2, 3, ms)
        if ms == [0]:
            spec = APSpec.bi_powers(2, 3, [0], "infinite")
        else:
            ds = sorted({1} | {2**i * 3**j for i in range(1, 7) for j in range(1, 5)
                         if 2**i * 3**j <= 60})
            spec = APSpec.explicit(ds, ms, "infinite")
        h, labels, _ = build_ap_hypergraph(s60, spec)
        assert verify_edge_preservation(h, labels, pts, OCTANTS, corr).ok
    # (c) bottomless valuation maps, finite mode
    for t in (2, 3):
        for ms in ([0], [0, 1]):
            pts, corr = map_powers_to_bottomless(s60, t, ms)
            if ms == [0]:
                spec = APSpec.powers(t, [0], "finite")
            else:
                ds = [t**i for i in range(1, 7) if t**i <= 60]
                spec = APSpec.explicit(ds, ms, "finite")
            h, labels, _ = build_ap_hypergraph(s60, spec)
            assert verify_edge_preservation(h, labels, pts, BOTTOMLESS, corr).ok
    # (d) rectangles to bounded octant slabs, 100 random planar instances
    rng = random.Random(20260108)
    for _ in range(100):
        p2 = rand_points(rng, rng.randint(1, 12), 2)
        p3, corr = map_rectangles_to_tfin(p2)
        h = capture_edges(p2, RECTANGLES)
        assert verify_edge_preservation(
            h, list(range(len(p2.points))), p3, TFIN_SLABS, corr).ok
    # reverse maps: divisibility and prefix property
    for _ in range(200):
        p = rand_points_distinct(rng, rng.randint(1, 10), 3)
        corr = map_octants_to_pq(p, 2, 3)
        assert check_corner_divisibility(p, corr, [2, 3]).ok
        assert check_tfin_prefix(p, corr).ok
    for _ in range(200):
        p = rand_points_distinct(rng, rng.randint(1, 8), 4)
        corr = map_hextants_to_pqr(p, 2, 3, 5)
        assert check_corner_divisibility(p, corr, [2, 3, 5]).ok
    dt = time.time() - t0
    report(8, True, f"forward maps all-preserved; 200+200 reverse instances; {dt:.1f}s")


# -------------------------------------------------------------------------
# 9. shrink/hit/delete pipeline on strips, c = 3, k in {2, 3}
# -------------------------------------------------------------------------

def test_criterion_9_pipeline():
    rng = random.Random(20260109)
    t0 = time.time()
    failures = 0
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 3
        n = rng.randint(10, 60)
        p = rand_points_distinct(rng, n, 2)
        chi = coloring_pipeline(p, STRIPS, k, 3)
        threshold = 3 * (k - 1) + 1
        h = restrict_at_least(capture_edges(p, STRIPS), threshold)
        if is_polychromatic(h, chi) is not True:
            failures += 1
    dt = time.time() - t0
    report(9, failures == 0, f"100 pipelines (k alternating 2/3), {failures} failures, {dt:.1f}s")


# -------------------------------------------------------------------------
# 10. solver soundness + run-to-run determinism
# -------------------------------------------------------------------------

def test_criterion_10_solver_soundness():
    from conftest import rand_hypergraph
    from polyshallow.solvers import brute_force_polychromatic, brute_force_shallow

    rng = random.Random(20260110)
    t0 = time.time()
    for _ in range(500):
        h = rand_hypergraph(rng, 9, 12)
        k = rng.randint(1, 3)
        a = solve_polychromatic(h, k)
        b = brute_force_polychromatic(h, k)
        assert a.status == b.status
        if a.status == SAT:
            assert is_polychromatic(h, a.witness) is True
    for _ in range(500):
        h = rand_hypergraph(rng, 13, 14)
        c = rng.randint(1, 3)
        a = solve_shallow_hitting(h, c)
        b = brute_force_shallow(h, c)
        assert a.status == b.status
        if a.status == SAT:
            assert is_shallow_hitting(h, a.witness, c) is True
    # deterministic campaign output across three runs (wall-clock timing
    # excluded: it is inherently non-reproducible)
    problems = [(rand_hypergraph(rng, 9, 10), rng.randint(1, 3)) for _ in range(60)]
    budget = SolveBudget(max_nodes=10**6)
    outs = []
    for _ in range(3):
        res = solve_many(problems, "color", budget=budget)
        outs.append(repr([
            (r.status, None if r.witness is None else tuple(r.witness.colors),
             r.stats.nodes) for r in res
        ]).encode())
    dt = time.time() - t0
    report(10, outs[0] == outs[1] == outs[2],
           f"500+500 oracle agreements; byte-identical across runs; {dt:.1f}s")
