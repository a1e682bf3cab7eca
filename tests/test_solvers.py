import os
import random
import subprocess
import sys

import pytest

from conftest import rand_hypergraph, rand_points_distinct
from polyshallow.core import (
    ColorAssignment,
    Hypergraph,
    VertexSet,
    is_polychromatic,
    is_shallow_hitting,
    restrict_at_least,
)
from polyshallow import solvers
from polyshallow.geometry import STRIPS, capture_edges
from polyshallow.solvers import (
    BUDGET_EXHAUSTED,
    SAT,
    UNSAT,
    PipelineError,
    SolveBudget,
    brute_force_polychromatic,
    brute_force_shallow,
    coloring_pipeline,
    min_m_polychromatic,
    min_shallow_c,
    probe_candidates,
    solve_many,
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


def test_min_shallow_c_examples():
    disjoint = Hypergraph.from_edges(4, [[0, 1], [2, 3]])
    assert min_shallow_c(disjoint).c == 1
    assert min_shallow_c(K3_pairs()).c == 2
    with pytest.raises(ValueError):
        min_shallow_c(Hypergraph.from_edges(3, []))


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
        results = solve_many(problems, "color", budget=budget)
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
    assert got == expected


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


def test_pipeline_oracle_failure_reported():
    rng = random.Random(57)
    p = rand_points_distinct(rng, 8, 2)

    def broken_oracle(hu, c):
        return None

    with pytest.raises(PipelineError):
        coloring_pipeline(p, STRIPS, 2, 3, hitting_oracle=broken_oracle)


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


ONE = Hypergraph.from_edges(1, [[0]])  # decided before any branching
QUAD = Hypergraph.from_edges(4, [[0, 1, 2, 3]])
PAIRS = Hypergraph.from_edges(4, [[0, 1], [2, 3]])


@pytest.mark.parametrize("run, checker, rejected_call", [
    (lambda: solve_polychromatic(ONE, 1), "is_polychromatic", 1),
    (lambda: solve_polychromatic(QUAD, 2), "is_polychromatic", 1),
    (lambda: solve_shallow_hitting(ONE, 1), "is_shallow_hitting", 1),
    (lambda: solve_shallow_hitting(PAIRS, 1), "is_shallow_hitting", 1),
    (lambda: min_m_polychromatic(QUAD, 2), "is_polychromatic", 2),  # its own re-check
], ids=["color-root", "color-search", "hit-root", "hit-search", "min-m"])
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
