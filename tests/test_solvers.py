import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_hypergraph,
    rand_points,
    rand_points_distinct,
    reference_hitting,
    reference_min_m,
    reference_minimal_edges,
    reference_probe_candidates,
    reference_coloring_pipeline,
    reference_solve_polychromatic,
)
from polyshallow.core import (
    ColorAssignment,
    Hypergraph,
    VertexSet,
    is_polychromatic,
    is_shallow_hitting,
    restrict_at_least,
)
from polyshallow import solvers
from polyshallow.geometry import (
    BOTTOMLESS,
    CROSS_UNION,
    RECTANGLES,
    STRIPS,
    PointSet,
    capture_edges,
    strip_union,
)
from polyshallow.solvers import (
    BUDGET_EXHAUSTED,
    SAT,
    UNSAT,
    SolveBudget,
    brute_force_polychromatic,
    brute_force_shallow,
    coloring_pipeline,
    min_m_polychromatic,
    min_shallow_c,
    probe_candidates,
    solve_polychromatic,
    solve_shallow_hitting,
)


def K3_pairs():
    return Hypergraph.from_edges(3, [[0, 1], [1, 2], [0, 2]])


def test_polychromatic_examples():
    assert solve_polychromatic(K3_pairs(), 2).status == UNSAT
    assert solve_polychromatic(Hypergraph.from_edges(3, [[0, 1, 2]]), 3).status == SAT
    res = solve_polychromatic(Hypergraph.from_edges(4, [[0, 1], [2, 3], [1, 3]]), 2)
    assert res.status == SAT
    assert is_polychromatic(Hypergraph.from_edges(4, [[0, 1], [2, 3], [1, 3]]), res.witness) is True


def test_hitting_examples():
    assert solve_shallow_hitting(Hypergraph.from_edges(3, [[0, 1, 2]]), 1).status == SAT
    assert solve_shallow_hitting(K3_pairs(), 1).status == UNSAT
    res = solve_shallow_hitting(K3_pairs(), 2)
    assert res.status == SAT and is_shallow_hitting(K3_pairs(), res.witness, 2) is True
    # only from_edges drops empty edges; an empty edge is never hit
    for h in (Hypergraph(3, ((), (0, 1))), Hypergraph(1, ((),)),
              Hypergraph(4, ((), (0,), (1, 2, 3)))):
        for c in (1, 2):
            res = solve_shallow_hitting(h, c)
            assert (res.status, res.stats.nodes) == (UNSAT, 0)
            assert brute_force_shallow(h, c).status == UNSAT


def test_agreement_with_brute_force():
    rng = random.Random(51)
    for _ in range(120):
        h = rand_hypergraph(rng, 9, 12)
        k = rng.randint(1, 3)
        a = solve_polychromatic(h, k)
        b = brute_force_polychromatic(h, k)
        assert a.status == b.status
        if a.status == SAT:
            assert is_polychromatic(h, a.witness) is True
    for _ in range(120):
        h = rand_hypergraph(rng, 12, 14)
        c = rng.randint(1, 3)
        a = solve_shallow_hitting(h, c)
        b = brute_force_shallow(h, c)
        assert a.status == b.status
        if a.status == SAT:
            assert is_shallow_hitting(h, a.witness, c) is True


def _strip_union_captures(rng, count, n_max):
    for _ in range(count):
        yield capture_edges(rand_points_distinct(rng, rng.randint(3, n_max), 2), strip_union(2))


def test_minimal_edges_match_oracle():
    # one _Levels per hypergraph, driven through the levels in order, every
    # level and every other one (the size cut skips levels): the minimal
    # edges of each H_>=m (order included) and its degrees
    rng = random.Random(63)
    hs = [rand_hypergraph(rng, 12, 30) for _ in range(150)]
    hs += [restrict_at_least(h, rng.randint(1, 4)) for h in _strip_union_captures(rng, 40, 10)]
    hs += [Hypergraph(h.n, tuple(e for e in h.edges if len(e) == 3)) for h in hs[:20]]
    for h in hs:
        for step in (1, 2):
            levels = solvers._Levels(h)
            for m in range(step, h.max_edge_size + 2, step):
                hm = restrict_at_least(h, m)
                brute = tuple(e for e in sorted(hm.edges, key=len)
                              if not any(set(f) < set(e) for f in hm.edges))
                assert levels.minimal_edges(m) == reference_minimal_edges(hm) == brute
                assert levels.degree == [sum(v in e for e in hm.edges) for v in range(h.n)]


def test_color_agrees_with_brute_force_on_nested_captures():
    rng = random.Random(64)
    statuses = set()
    for h in _strip_union_captures(rng, 30, 8):
        for k in (1, 2, 3):
            if k == 3 and h.n > 7:
                continue
            hm = restrict_at_least(h, rng.randint(k, 2 * k))
            a = solve_polychromatic(hm, k)
            assert a.status == brute_force_polychromatic(hm, k).status
            if a.status == SAT:
                assert is_polychromatic(hm, a.witness) is True
            statuses.add((k, a.status))
    assert {(2, SAT), (2, UNSAT), (3, SAT), (3, UNSAT)} <= statuses


def test_brute_force_guard():
    h = Hypergraph.from_edges(40, [[0, 1]])
    with pytest.raises(ValueError):
        brute_force_shallow(h, 1)
    with pytest.raises(ValueError):
        brute_force_polychromatic(h, 3)


def test_budget_exhaustion():
    pairs = Hypergraph.from_edges(4, [[0, 1], [2, 3]])  # nothing forced at the root
    res = solve_polychromatic(pairs, 2, SolveBudget(max_nodes=1))
    assert (res.status, res.stats.nodes, res.partial) == (BUDGET_EXHAUSTED, 1, None)
    res = solve_shallow_hitting(pairs, 1, SolveBudget(max_nodes=1))
    assert (res.status, res.stats.nodes, res.partial) == (BUDGET_EXHAUSTED, 1, VertexSet((0,)))
    # a zero time budget is spent before the first node, on every run
    timed = SolveBudget(max_nodes=None, max_millis=0)
    for solve, p in ((solve_polychromatic, 2), (solve_shallow_hitting, 1)):
        res = solve(pairs, p, timed)
        assert (res.status, res.stats.nodes) == (BUDGET_EXHAUSTED, 0)
    with pytest.raises(ValueError):
        SolveBudget(max_nodes=None, max_millis=None)
    for nodes, millis in ((-5, None), (None, -3), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            SolveBudget(max_nodes=nodes, max_millis=millis)
    SolveBudget(max_nodes=0, max_millis=0)


def test_min_shallow_c_examples():
    disjoint = Hypergraph.from_edges(4, [[0, 1], [2, 3]])
    assert min_shallow_c(disjoint).c == 1
    assert min_shallow_c(K3_pairs()).c == 2
    with pytest.raises(ValueError):
        min_shallow_c(Hypergraph.from_edges(3, []))
    with pytest.raises(ValueError, match="empty edge"):
        min_shallow_c(Hypergraph(3, ((), (0, 1))))


def test_min_m_examples():
    rec = min_m_polychromatic(Hypergraph.from_edges(1, [[0]]), 1)
    assert rec.m == 1
    rec2 = min_m_polychromatic(K3_pairs(), 2)
    assert rec2.m == 3  # UNSAT at 2, vacuous at 3
    assert rec2.unsat_below is not None
    assert is_polychromatic(restrict_at_least(K3_pairs(), rec2.m), rec2.coloring) is True


def test_min_m_monotone_under_edge_deletion():
    rng = random.Random(53)
    for _ in range(20):
        h = rand_hypergraph(rng, 7, 8)
        if not h.edges:
            continue
        m1 = min_m_polychromatic(h, 2).m
        smaller = Hypergraph.from_edges(h.n, h.edges[:-1])
        m2 = min_m_polychromatic(smaller, 2).m
        assert m2 <= m1


def test_determinism_across_runs():
    rng = random.Random(54)
    problems = []
    for _ in range(40):
        problems.append((rand_hypergraph(rng, 9, 10), rng.randint(1, 3)))
    budget = SolveBudget(max_nodes=10**6)
    runs = []
    for _ in range(3):
        results = [solve_polychromatic(h, k, budget) for h, k in problems]
        runs.append([
            (r.status, None if r.witness is None else tuple(r.witness.colors),
             r.stats.nodes)
            for r in results
        ])
    assert runs[0] == runs[1] == runs[2]


def _summary(res):
    w = res.witness
    if w is not None:
        w = w.colors if isinstance(w, ColorAssignment) else w.members
    p = None if res.partial is None else res.partial.members
    return (res.status, res.stats.nodes, res.stats.max_depth, w, p)


def test_search_is_pinned():
    # Recorded from the static degree-then-index search; a change to the
    # branching order or the propagation re-records these values.
    expected = [
        ("SAT", 7, 7, (1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0), None),
        ("UNSAT", 102, 5, None, None),
        ("SAT", 7, 5, (0, 3, 5, 8), None),
        ("BUDGET_EXHAUSTED", 3, 2, None, (8,)),
        ("SAT", 8, 8, (0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1), None),
        ("SAT", 18, 6, (0, 1, 2, 0, 1, 0, 1, 2, 1, 2, 1, 2, 2, 2), None),
        ("SAT", 9, 7, (0, 2, 3, 4, 8, 9), None),
        ("BUDGET_EXHAUSTED", 3, 2, None, (3,)),
        ("SAT", 10, 10, (0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0), None),
        ("UNSAT", 57, 4, None, None),
        ("SAT", 14, 9, (4, 5, 6, 7, 9, 10, 14), None),
        ("BUDGET_EXHAUSTED", 3, 2, None, (9,)),
        ("SAT", 10, 9, (1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0), None),
        ("UNSAT", 39, 3, None, None),
        ("SAT", 18, 4, (3, 7, 9, 11, 13), None),
        ("BUDGET_EXHAUSTED", 3, 2, None, (1,)),
    ]
    rng = random.Random(60)
    got = []
    for _ in range(4):
        n = rng.randint(10, 16)
        h = Hypergraph.from_edges(n, [rng.sample(range(n), rng.randint(3, 5))
                                      for _ in range(rng.randint(n, 2 * n))])
        got += [_summary(solve_polychromatic(h, 2)),
                _summary(solve_polychromatic(h, 3)),
                _summary(solve_shallow_hitting(h, 2)),
                _summary(solve_shallow_hitting(h, 2, SolveBudget(max_nodes=3)))]
    # nested hypergraphs: H_{>=2k} of 2-fold strip-union captures, then
    # (m, colouring, nodes and depth of the UNSAT search below m) of min-m
    expected += [
        ("UNSAT", 38, 5, None, None),
        ("SAT", 200, 7, (2, 2, 1, 1, 0, 2, 0, 2, 0, 1), None),
        ("SAT", 13, 5, (1, 0, 0, 1, 0, 1, 1, 0, 0, 1), None),
        ("UNSAT", 1083, 7, None, None),
        ("SAT", 5, 4, (0, 1, 0, 1, 0, 1, 0, 1), None),
        ("SAT", 32, 6, (1, 2, 0, 1, 1, 2, 0, 2), None),
        (4, (0, 1, 0, 1, 0, 1, 0, 1), 10, 3),
    ]
    rng = random.Random(62)
    for _ in range(3):
        n = rng.randint(8, 10)
        p = PointSet.of(list(zip(rng.sample(range(40), n), rng.sample(range(40), n))))
        h = capture_edges(p, strip_union(2))
        got += [_summary(solve_polychromatic(restrict_at_least(h, 2 * k), k)) for k in (2, 3)]
    rec = min_m_polychromatic(h, 2)
    got.append((rec.m, rec.coloring.colors, rec.unsat_below.nodes, rec.unsat_below.max_depth))
    assert got == expected


HITTING_BUDGETS = (5, 50, 10**6)


def _check_packed_hitting(h, c, nodes):
    budget = SolveBudget(max_nodes=nodes)
    got = solve_shallow_hitting(h, c, budget)
    assert _summary(got) == _summary(reference_hitting(h, c, budget))
    return got.status


def test_packed_hitting_matches_reference():
    # the packed counters reach the same fixpoints and conflicts as the
    # (chosen, undecided) reference, so the whole search record is equal
    rng = random.Random(66)
    statuses = set()
    for _ in range(600):
        n = rng.randint(1, 16)
        h = Hypergraph.from_edges(n, [rng.sample(range(n), rng.randint(1, min(7, n)))
                                      for _ in range(rng.randint(1, 2 * n))])
        c = rng.randint(1, 3)
        for nodes in HITTING_BUDGETS:
            statuses.add((nodes, _check_packed_hitting(h, c, nodes)))
    assert {(5, BUDGET_EXHAUSTED), (10**6, SAT), (10**6, UNSAT)} <= statuses


@st.composite
def _hitting_problems(draw):
    n = draw(st.integers(1, 14))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=7),
                          min_size=1, max_size=2 * n))
    return (Hypergraph.from_edges(n, edges), draw(st.integers(1, 3)),
            draw(st.sampled_from(HITTING_BUDGETS)))


@settings(max_examples=300)
@given(_hitting_problems())
def test_packed_hitting_matches_reference_property(problem):
    _check_packed_hitting(*problem)



MIN_M_BUDGETS = (0, 3, 50, 10**6)


def _min_m_record(rec):
    below = rec.unsat_below
    return (rec.status, rec.m, rec.k, rec.coloring and rec.coloring.colors,
            below and (below.nodes, below.max_depth))


def _check_min_m(h, k, nodes):
    budget = SolveBudget(max_nodes=nodes)
    got = min_m_polychromatic(h, k, budget)
    assert _min_m_record(got) == _min_m_record(reference_min_m(h, k, budget))
    return got.status, got.unsat_below is not None


def test_min_m_scan_matches_reference():
    # the one-pass scan searches the same minimal edges in the same degree
    # order as a restriction and a fresh solve per m, so the records are equal
    rng = random.Random(67)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        h = Hypergraph.from_edges(n, [rng.sample(range(n), rng.randint(1, n))
                                      for _ in range(rng.randint(0, 3 * n))])
        k = rng.randint(1, 3)
        for nodes in MIN_M_BUDGETS:
            seen.add((nodes, *_check_min_m(h, k, nodes)))
    for fam in (STRIPS, strip_union(2), CROSS_UNION, BOTTOMLESS, RECTANGLES):
        for i in range(8):
            n = rng.randint(3, 9)
            p = rand_points(rng, n, 2, coord_range=5) if i % 2 else rand_points_distinct(rng, n, 2)
            h = capture_edges(p, fam)
            for k in (2, 3):
                for nodes in (3, 10**6):
                    seen.add((nodes, *_check_min_m(h, k, nodes)))
    assert {(3, BUDGET_EXHAUSTED, True), (10**6, SAT, True), (10**6, SAT, False),
            (0, BUDGET_EXHAUSTED, False)} <= seen


@st.composite
def _min_m_problems(draw):
    n = draw(st.integers(1, 10))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
                          max_size=3 * n))
    return (Hypergraph.from_edges(n, edges), draw(st.integers(1, 3)),
            draw(st.sampled_from(MIN_M_BUDGETS)))


@settings(max_examples=300)
@given(_min_m_problems())
def test_min_m_scan_matches_reference_property(problem):
    _check_min_m(*problem)


def _uniform(rng, n, r):
    return Hypergraph.from_edges(n, [rng.sample(range(n), r) for _ in range(rng.randint(1, 2 * n))])


def test_solve_polychromatic_matches_reference():
    # one level of _Levels prepares the same minimal edges, degrees and size
    # cut as the per-call reference, so the whole search record is equal
    rng = random.Random(68)
    hs = [rand_hypergraph(rng, 10, 14) for _ in range(150)]
    for h in _strip_union_captures(rng, 20, 8):
        hs += [h, restrict_at_least(h, rng.randint(2, 5))]
    hs += [_uniform(rng, rng.randint(4, 10), r) for r in (2, 3, 4) for _ in range(10)]
    hs += [Hypergraph(3, ((), (0, 1))), Hypergraph(1, ((),)), Hypergraph.from_edges(4, [])]
    # the solve benchmark's colour problems: H_>=5 of cross-union captures
    hs += [restrict_at_least(capture_edges(rand_points_distinct(rng, n, 2), CROSS_UNION), 5)
           for n in range(5, 13) for _ in range(2)]
    seen = set()
    for h in hs:
        for k in (1, 2, 3):
            for nodes in MIN_M_BUDGETS:
                budget = SolveBudget(max_nodes=nodes)
                got = _summary(solve_polychromatic(h, k, budget))
                assert got == _summary(reference_solve_polychromatic(h, k, budget))
                seen.add((got[0], got[1] > 0))
    assert {(BUDGET_EXHAUSTED, True), (SAT, True), (UNSAT, True), (UNSAT, False)} <= seen


def test_pipeline_strips():
    rng = random.Random(55)
    for k in (2, 3):
        for _ in range(5):
            p = rand_points_distinct(rng, rng.randint(8, 20), 2)
            chi = coloring_pipeline(p, STRIPS, k, 3)
            threshold = 3 * (k - 1) + 1
            h = restrict_at_least(capture_edges(p, STRIPS), threshold)
            assert is_polychromatic(h, chi) is True


def test_pipeline_k1():
    rng = random.Random(56)
    p = rand_points_distinct(rng, 6, 2)
    chi = coloring_pipeline(p, STRIPS, 1, 3)
    assert chi.k == 1 and set(chi.colors) == {0}


def _pipeline_outcome(pipeline, p, fam, k, c):
    """The pipeline's colours, or the type and message of what it raised."""
    try:
        return pipeline(p, fam, k, c).colors
    except (ValueError, solvers.PipelineError) as exc:
        return type(exc).__name__, str(exc)


def _criterion_9_inputs():
    rng = random.Random(20260109)  # criterion 9's draws, in its order
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 3
        yield rand_points_distinct(rng, rng.randint(10, 60), 2), STRIPS, k, 3


def _small_inputs():
    """4 to 12 points over five families, every other set with coordinates
    in 0..3, so ties stop some pipelines in their shrink step."""
    rng = random.Random(61)
    fams = [BOTTOMLESS, STRIPS, RECTANGLES, CROSS_UNION, strip_union(2)]
    for i in range(300):
        n = rng.randint(4, 12)
        p = rand_points(rng, n, 2, coord_range=3) if i % 2 else rand_points_distinct(rng, n, 2)
        yield p, fams[i % 5], rng.randint(2, 3), rng.randint(1, 3)


@pytest.mark.parametrize("inputs, kinds", [
    (_criterion_9_inputs, {"colouring"}),
    (_small_inputs, {"colouring", "ValueError", "PipelineError"}),
], ids=["criterion-9", "small-ties"])
def test_pipeline_matches_reference(inputs, kinds):
    seen = set()
    for p, fam, k, c in inputs():
        got = _pipeline_outcome(coloring_pipeline, p, fam, k, c)
        assert got == _pipeline_outcome(reference_coloring_pipeline, p, fam, k, c)
        seen.add(got[0] if isinstance(got[0], str) else "colouring")
    assert seen == kinds


def test_min_m_bottomless_envelope():
    # instance-level m at k=2 never exceeds the proven family bound 3k-2 = 4
    rng = random.Random(58)
    from polyshallow.geometry import BOTTOMLESS

    for _ in range(25):
        p = rand_points_distinct(rng, rng.randint(2, 9), 2)
        h = capture_edges(p, BOTTOMLESS)
        rec = min_m_polychromatic(h, 2)
        assert rec.m <= 4


def test_min_c_strips_at_most_3():
    rng = random.Random(59)
    for _ in range(25):
        p = rand_points_distinct(rng, rng.randint(4, 12), 2)
        m = rng.randint(3, 5)
        h = restrict_at_least(capture_edges(p, STRIPS), m)
        h = Hypergraph.from_edges(h.n, [e for e in h.edges if len(e) == m])
        if not h.edges:
            continue
        assert min_shallow_c(h).c <= 3


def test_probe_candidates_deterministic():
    h = K3_pairs()
    a = probe_candidates(h, 2, 10, seed=5)
    b = probe_candidates(h, 2, 10, seed=5)
    assert [x.members for x in a] == [y.members for y in b]
    assert len(a) == 10


def test_probe_candidates_match_reference():
    rng = random.Random(62)
    for seed in range(200):
        h = rand_hypergraph(rng, 14, 25)
        c, count = rng.randint(1, 3), rng.randint(1, 8)
        got = [s.members for s in probe_candidates(h, c, count, seed)]
        assert got == [s.members for s in reference_probe_candidates(h, c, count, seed)]


ONE = Hypergraph.from_edges(1, [[0]])  # decided before any branching
QUAD = Hypergraph.from_edges(4, [[0, 1, 2, 3]])
PAIRS = Hypergraph.from_edges(4, [[0, 1], [2, 3]])
DIAGONAL = PointSet.of([[i, i] for i in range(4)])


@pytest.mark.parametrize("run, checker, rejected_call", [
    (lambda: solve_polychromatic(ONE, 1), "is_polychromatic", 1),
    (lambda: solve_polychromatic(QUAD, 2), "is_polychromatic", 1),
    (lambda: solve_shallow_hitting(ONE, 1), "is_shallow_hitting", 1),
    (lambda: solve_shallow_hitting(PAIRS, 1), "is_shallow_hitting", 1),
    (lambda: min_m_polychromatic(QUAD, 2), "is_polychromatic", 1),  # the re-check on H_>=m
    (lambda: coloring_pipeline(DIAGONAL, STRIPS, 2, 1), "is_polychromatic", 1),
], ids=["color-root", "color-search", "hit-root", "hit-search", "min-m", "pipeline"])
def test_rejected_witness_raises(monkeypatch, run, checker, rejected_call):
    calls = []

    def check(*args):
        calls.append(args)
        return len(calls) != rejected_call

    monkeypatch.setattr(solvers, checker, check)
    with pytest.raises(AssertionError, match="failed its re-check"):
        run()


def test_witness_recheck_runs_under_python_O():
    code = ("from polyshallow import core, solvers\n"
            "solvers.is_shallow_hitting = lambda *a: False\n"
            "try:\n"
            "    solvers.solve_shallow_hitting(core.Hypergraph.from_edges(1, [[0]]), 1)\n"
            "except AssertionError:\n"
            "    raise SystemExit(7)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 7
