"""Exact decision procedures for polychromatic colorability and shallow
hitting sets, brute-force oracles for cross-validation, and the shrink /
hit / delete coloring pipeline.

Both solvers run on one engine, `_search`: an iterative depth-first search
that branches on the undecided vertices in a static degree-then-index
order, undoes through a trail of decided vertices and stops at a node or
wall-clock budget. Each problem brings a small propagator that keeps
per-edge counters, decides the vertices they force and reports dead edges:

- `_Coloring` keeps, per edge, a count of each color and the number of
  colors still missing. An edge with one missing color and one uncolored
  vertex forces that vertex to the missing color; an edge missing more
  colors than it has uncolored vertices is dead.
- `_Hitting` keeps, per edge, the (chosen, undecided) counters. An edge
  with nothing chosen and one undecided vertex forces it in; an edge with
  c chosen forces its undecided vertices out.

UNSAT is reported only when the search space is exhausted (pruning removes
only provably dead branches). SAT witnesses are re-verified through the
core checkers before being returned.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import geometry
from .core import (
    ColorAssignment,
    Hypergraph,
    VertexSet,
    is_polychromatic,
    is_shallow_hitting,
    restrict_at_least,
)

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class SolveBudget:
    """Node and/or wall-clock limits; at least one must be finite."""

    max_nodes: Optional[int] = 10**7
    max_millis: Optional[int] = None

    def __post_init__(self):
        if self.max_nodes is None and self.max_millis is None:
            raise ValueError("at least one budget limit must be finite")


@dataclass
class SolveStats:
    nodes: int = 0
    max_depth: int = 0
    millis: int = 0


@dataclass
class SolveResult:
    status: str
    witness: object = None  # ColorAssignment | VertexSet | None
    stats: SolveStats = field(default_factory=SolveStats)
    partial: object = None  # best-effort assignment on budget exhaustion

    def to_doc(self) -> dict:
        doc = {"status": self.status, "nodes": self.stats.nodes, "millis": self.stats.millis}
        if isinstance(self.witness, ColorAssignment):
            doc["witness"] = {"k": self.witness.k, "colors": list(self.witness.colors)}
        elif isinstance(self.witness, VertexSet):
            doc["witness"] = {"members": list(self.witness.members)}
        return doc


def _static_order(h: Hypergraph) -> list[int]:
    deg = [0] * h.n
    for e in h.edges:
        for v in e:
            deg[v] += 1
    return sorted(range(h.n), key=lambda v: (-deg[v], v))


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------

class _Propagator:
    """State shared by both problems: one value per vertex (-1 while
    undecided), the trail of decided vertices and the edges to re-examine.

    A subclass keeps its per-edge counters and provides `assign(v, val)`
    (False when an edge dies), `unassign(v)` (undoes `assign`, last in
    first out), `propagate()` (decides what the pending edges force; False
    on conflict) and `partial()` (what a budget-exhausted search reports).
    """

    def __init__(self, h: Hypergraph):
        self.edges = h.edges
        self.edges_of: list[list[int]] = [[] for _ in range(h.n)]
        for ei, e in enumerate(h.edges):
            for v in e:
                self.edges_of[v].append(ei)
        self.value = [-1] * h.n
        self.trail: list[int] = []
        self.pending: list[int] = []

    def partial(self):
        return None


def _search(h: Hypergraph, budget: SolveBudget, prop: _Propagator, values, finish) -> SolveResult:
    """Depth-first search over the undecided vertices in the static order,
    trying `values` in turn for each and letting `prop` decide what every
    branch forces. `finish()` turns a complete assignment into the
    re-checked witness."""
    t0 = time.monotonic()

    def spent_millis() -> int:
        return int((time.monotonic() - t0) * 1000)

    n = h.n
    order = _static_order(h)
    value, trail, pending = prop.value, prop.trail, prop.pending
    assign, unassign, propagate = prop.assign, prop.unassign, prop.propagate

    def undo_to(mark: int) -> None:
        pending.clear()
        while len(trail) > mark:
            unassign(trail.pop())

    def next_pos(start: int) -> int:
        """Position in the static order of the first undecided vertex at or
        after start; every vertex before a branching vertex is decided."""
        for t in range(start, n):
            if value[order[t]] == -1:
                return t
        return n

    pending.extend(range(len(h.edges)))
    if not propagate():
        return SolveResult(UNSAT, stats=SolveStats(0, 0, spent_millis()))
    t = next_pos(0)
    if t == n:
        return SolveResult(SAT, finish(), SolveStats(0, 0, spent_millis()))
    max_nodes, max_millis = budget.max_nodes, budget.max_millis
    nodes = max_depth = 0
    stack: list[list[int]] = [[t, 0, len(trail)]]  # (order position, value index, trail mark)
    while stack:
        frame = stack[-1]
        t, vi, mark = frame
        undo_to(mark)
        if vi == len(values):
            stack.pop()
            if stack:
                stack[-1][1] += 1
            continue
        if (max_nodes is not None and nodes >= max_nodes) or (
            max_millis is not None and not nodes & 0xFF and spent_millis() >= max_millis
        ):
            return SolveResult(BUDGET_EXHAUSTED, stats=SolveStats(nodes, max_depth, spent_millis()),
                               partial=prop.partial())
        nodes += 1
        max_depth = max(max_depth, len(stack))
        if assign(order[t], values[vi]) and propagate():
            w = next_pos(t + 1)
            if w == n:
                witness = finish()
                return SolveResult(SAT, witness, SolveStats(nodes, max_depth, spent_millis()))
            stack.append([w, 0, len(trail)])
        else:
            frame[1] += 1
    return SolveResult(UNSAT, stats=SolveStats(nodes, max_depth, spent_millis()))


# ---------------------------------------------------------------------------
# Polychromatic coloring solver
# ---------------------------------------------------------------------------

class _Coloring(_Propagator):
    """Per-edge color counts, missing-color and uncolored counters."""

    def __init__(self, h: Hypergraph, k: int):
        super().__init__(h)
        self.count = [[0] * k for _ in h.edges]
        self.missing = [k] * len(h.edges)
        self.uncolored = [len(e) for e in h.edges]

    def assign(self, v: int, c: int) -> bool:
        self.value[v] = c
        self.trail.append(v)
        count, missing, uncolored, pending = self.count, self.missing, self.uncolored, self.pending
        ok = True
        for ei in self.edges_of[v]:
            uncolored[ei] -= 1
            cnt = count[ei]
            cnt[c] += 1
            if cnt[c] == 1:
                missing[ei] -= 1
            if missing[ei] > uncolored[ei]:
                ok = False
            else:
                pending.append(ei)
        return ok

    def unassign(self, v: int) -> None:
        c = self.value[v]
        self.value[v] = -1
        count, missing, uncolored = self.count, self.missing, self.uncolored
        for ei in self.edges_of[v]:
            uncolored[ei] += 1
            cnt = count[ei]
            cnt[c] -= 1
            if not cnt[c]:
                missing[ei] += 1

    def propagate(self) -> bool:
        value, edges, count, missing, uncolored = (
            self.value, self.edges, self.count, self.missing, self.uncolored)
        pending, assign = self.pending, self.assign
        while pending:
            ei = pending.pop()
            if uncolored[ei] == 1 and missing[ei] == 1:
                v = next(u for u in edges[ei] if value[u] == -1)
                if not assign(v, count[ei].index(0)):
                    return False
        return True


def solve_polychromatic(h: Hypergraph, k: int, budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Exact search for a polychromatic k-coloring of h.

    Propagation: an edge with exactly one missing color and exactly one
    uncolored vertex forces that vertex to the missing color. Pruning: an
    edge whose missing-color count exceeds its uncolored count is dead.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # an edge smaller than k can never see all k colors
    if any(len(e) < k for e in h.edges):
        return SolveResult(UNSAT)
    prop = _Coloring(h, k)

    def finish() -> ColorAssignment:
        chi = ColorAssignment(k, tuple(prop.value))
        if is_polychromatic(h, chi) is not True:
            raise AssertionError("solver colouring failed its re-check")
        return chi

    return _search(h, budget, prop, range(k), finish)


# ---------------------------------------------------------------------------
# Shallow hitting set solver
# ---------------------------------------------------------------------------

class _Hitting(_Propagator):
    """Per-edge (chosen, undecided) counters; a value is 0 (out) or 1 (in)."""

    def __init__(self, h: Hypergraph, c: int):
        super().__init__(h)
        self.c = c
        self.chosen = [0] * len(h.edges)
        self.undecided = [len(e) for e in h.edges]

    def assign(self, v: int, val: int) -> bool:
        self.value[v] = val
        self.trail.append(v)
        c, chosen, undecided, pending = self.c, self.chosen, self.undecided, self.pending
        ok = True
        for ei in self.edges_of[v]:
            undecided[ei] -= 1
            if val:
                chosen[ei] += 1
                if chosen[ei] > c:
                    ok = False
            ch, u = chosen[ei], undecided[ei]
            if ch == 0 and u == 0:
                ok = False
            elif (ch == 0 and u == 1) or (ch == c and u):
                pending.append(ei)
        return ok

    def unassign(self, v: int) -> None:
        val = self.value[v]
        self.value[v] = -1
        chosen, undecided = self.chosen, self.undecided
        for ei in self.edges_of[v]:
            undecided[ei] += 1
            if val:
                chosen[ei] -= 1

    def propagate(self) -> bool:
        c, value, edges, chosen, undecided = self.c, self.value, self.edges, self.chosen, self.undecided
        pending, assign = self.pending, self.assign
        while pending:
            ei = pending.pop()
            if undecided[ei] == 0:
                continue
            if chosen[ei] == 0 and undecided[ei] == 1:
                v = next(u for u in edges[ei] if value[u] == -1)
                if not assign(v, 1):
                    return False
            elif chosen[ei] == c:
                for u in edges[ei]:
                    if value[u] == -1 and not assign(u, 0):
                        return False
        return True

    def partial(self) -> VertexSet:
        return VertexSet.of(v for v, val in enumerate(self.value) if val == 1)


def solve_shallow_hitting(h: Hypergraph, c: int, budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Exact search for a vertex set U with 1 <= |e cap U| <= c per edge.

    Per-edge counters (chosen, undecided) drive the propagation: an edge
    with chosen == 0 and one undecided vertex forces it in; an edge with
    chosen == c forces its undecided vertices out.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    prop = _Hitting(h, c)

    def finish() -> VertexSet:
        u = prop.partial()
        if is_shallow_hitting(h, u, c) is not True:
            raise AssertionError("solver hitting set failed its re-check")
        return u

    return _search(h, budget, prop, (1, 0), finish)  # membership tried in-first


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

_GUARD = 10**7


def brute_force_polychromatic(h: Hypergraph, k: int) -> SolveResult:
    """Exhaustive enumeration of all k^n colorings (guarded)."""
    if k**h.n > _GUARD:
        raise ValueError(f"guard exceeded: {k}^{h.n} > {_GUARD}")
    t0 = time.monotonic()
    colors = [0] * h.n
    count = 0
    while True:
        count += 1
        chi = ColorAssignment(k, tuple(colors))
        if is_polychromatic(h, chi) is True:
            ms = int((time.monotonic() - t0) * 1000)
            return SolveResult(SAT, chi, SolveStats(count, 0, ms))
        i = h.n - 1
        while i >= 0 and colors[i] == k - 1:
            colors[i] = 0
            i -= 1
        if i < 0:
            break
        colors[i] += 1
    ms = int((time.monotonic() - t0) * 1000)
    return SolveResult(UNSAT, stats=SolveStats(count, 0, ms))


def brute_force_shallow(h: Hypergraph, c: int) -> SolveResult:
    """Exhaustive enumeration of all 2^n vertex subsets (guarded)."""
    if 2**h.n > _GUARD:
        raise ValueError(f"guard exceeded: 2^{h.n} > {_GUARD}")
    t0 = time.monotonic()
    for mask in range(1 << h.n):
        u = VertexSet.of(v for v in range(h.n) if (mask >> v) & 1)
        if is_shallow_hitting(h, u, c) is True:
            ms = int((time.monotonic() - t0) * 1000)
            return SolveResult(SAT, u, SolveStats(mask + 1, 0, ms))
    ms = int((time.monotonic() - t0) * 1000)
    return SolveResult(UNSAT, stats=SolveStats(1 << h.n, 0, ms))


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

@dataclass
class MinCResult:
    status: str  # SAT when a smallest c was determined
    c: Optional[int]
    witness: Optional[VertexSet]
    last_decided: int  # largest c for which UNSAT was proven (0 if none)


def min_shallow_c(h: Hypergraph, budget: SolveBudget = SolveBudget()) -> MinCResult:
    """Smallest c admitting a c-shallow hitting set; the all-vertices set
    witnesses c = max edge size, so the scan terminates."""
    if not h.edges:
        raise ValueError("hypergraph has no edges")
    last_decided = 0
    for c in range(1, h.max_edge_size + 1):
        res = solve_shallow_hitting(h, c, budget)
        if res.status == SAT:
            return MinCResult(SAT, c, res.witness, last_decided)
        if res.status == BUDGET_EXHAUSTED:
            return MinCResult(BUDGET_EXHAUSTED, None, None, last_decided)
        last_decided = c
    raise AssertionError("all-vertices set should witness c = max edge size")


@dataclass
class MRecord:
    """Instance-level smallest m with H_{>=m} polychromatically k-colorable."""

    instance_id: str
    k: int
    m: int
    coloring: ColorAssignment
    unsat_below: Optional[SolveStats]  # exhausted-search certificate at m-1
    status: str = SAT


def min_m_polychromatic(
    h: Hypergraph, k: int, budget: SolveBudget = SolveBudget(), instance_id: str = ""
) -> MRecord:
    """Scan m upward from 1; colorability is monotone in m (edges only
    disappear), so the first SAT is the minimum."""
    unsat_stats: Optional[SolveStats] = None
    m = 1
    while True:
        hm = restrict_at_least(h, m)
        res = solve_polychromatic(hm, k, budget)
        if res.status == SAT:
            if is_polychromatic(hm, res.witness) is not True:
                raise AssertionError("solver colouring failed its re-check")
            return MRecord(instance_id, k, m, res.witness, unsat_stats)
        if res.status == BUDGET_EXHAUSTED:
            return MRecord(instance_id, k, m, None, unsat_stats, status=BUDGET_EXHAUSTED)
        unsat_stats = res.stats
        m += 1
        if m > h.max_edge_size + 1:  # empty edge set is vacuously colorable
            raise AssertionError("vacuous restriction must be SAT")


# ---------------------------------------------------------------------------
# Coloring pipeline (shrink to uniform, hit, delete, repeat)
# ---------------------------------------------------------------------------

class PipelineError(RuntimeError):
    pass


def coloring_pipeline(
    points: geometry.PointSet,
    fam: geometry.RangeFamily,
    k: int,
    c: int,
    hitting_oracle: Optional[Callable[[Hypergraph, int], Optional[VertexSet]]] = None,
    budget: SolveBudget = SolveBudget(),
) -> ColorAssignment:
    """Color the points so every captured edge of size >= c*(k-1)+1 is
    polychromatic: k-1 rounds of (shrink edges to the exact target size,
    take a c-shallow hitting set of the uniform hypergraph, color it,
    delete it), then one final color for the survivors.
    """
    if k < 1 or c < 1:
        raise ValueError("k and c must be positive")
    n = len(points.points)
    colors = [k - 1] * n

    if hitting_oracle is None:
        def hitting_oracle(hu: Hypergraph, cc: int) -> Optional[VertexSet]:
            res = solve_shallow_hitting(hu, cc, budget)
            return res.witness if res.status == SAT else None

    threshold = c * (k - 1) + 1
    base = capture_at_least(points, fam, threshold)
    # current edges as original-index vertex sets
    current: set[tuple[int, ...]] = set(base)
    alive = sorted(range(n))

    for j in range(k - 1):
        target = c * (k - 1 - j) + 1
        sub_points = geometry.PointSet(points.dim, tuple(points.points[v] for v in alive))
        to_orig = list(alive)
        to_sub = {v: i for i, v in enumerate(alive)}
        shrink_memo: dict[tuple[int, ...], tuple[int, ...]] = {}

        def shrink_to(edge_sub: tuple[int, ...]) -> tuple[int, ...]:
            e = edge_sub
            while len(e) > target:
                if e in shrink_memo:
                    e = shrink_memo[e]
                    continue
                smaller = geometry.shrink_edge(sub_points, fam, VertexSet(e)).members
                shrink_memo[e] = smaller
                e = smaller
            return e

        uniform: set[tuple[int, ...]] = set()
        for e in current:
            e_sub = tuple(sorted(to_sub[v] for v in e))
            uniform.add(shrink_to(e_sub))
        hu = Hypergraph.from_edges(len(alive), uniform)
        u = hitting_oracle(hu, c)
        if u is None:
            raise PipelineError(f"no {c}-shallow hitting set found in round {j}")
        chk = is_shallow_hitting(hu, u, c)
        if chk is not True:
            raise PipelineError(f"oracle returned an invalid hitting set: {chk}")
        hit_orig = {to_orig[v] for v in u.members}
        for v in hit_orig:
            colors[v] = j
        alive = [v for v in alive if v not in hit_orig]
        current = {
            tuple(to_orig[w] for w in eu if to_orig[w] not in hit_orig) for eu in uniform
        }
    return ColorAssignment(k, tuple(colors))


def capture_at_least(points: geometry.PointSet, fam: geometry.RangeFamily, m: int) -> list[tuple[int, ...]]:
    h = geometry.capture_edges(points, fam, at_least=m)
    return [tuple(e) for e in h.edges]


# ---------------------------------------------------------------------------
# Campaign runner
# ---------------------------------------------------------------------------

def solve_many(problems, kind: str, budget: SolveBudget = SolveBudget()):
    """Solve a batch of (hypergraph, parameter) problems in input order;
    kind is "color" or "hitting"."""
    solve = {"color": solve_polychromatic, "hitting": solve_shallow_hitting}.get(kind)
    if solve is None:
        raise ValueError(f"unknown kind {kind!r}")
    return [solve(h, p, budget) for h, p in problems]


# ---------------------------------------------------------------------------
# Probe candidates for falsifier campaigns
# ---------------------------------------------------------------------------

def probe_candidates(
    h: Hypergraph, c: int, count: int, seed: int
) -> list[VertexSet]:
    """Deterministic best-effort hitting-set candidates: seeded greedy
    covers plus budget-exhausted solver partials. These are the adversarial
    inputs the falsifiers must defeat."""
    rng = random.Random(seed)
    out: list[VertexSet] = []
    edges = [set(e) for e in h.edges]
    edges_of: list[list[int]] = [[] for _ in range(h.n)]
    for ei, e in enumerate(edges):
        for v in e:
            edges_of[v].append(ei)
    for i in range(count):
        if i % 2 == 0:
            # greedy cover: walk the edges in a seeded order, hit each
            # uncovered edge with its highest-degree vertex (seeded ties)
            members: set[int] = set()
            order = list(range(len(edges)))
            rng.shuffle(order)
            for ei in order:
                e = edges[ei]
                if any(v in members for v in e):
                    continue
                v = max(sorted(e), key=lambda u: (len(edges_of[u]), rng.random()))
                members.add(v)
            out.append(VertexSet.of(members))
        else:
            res = solve_shallow_hitting(h, c, SolveBudget(max_nodes=50 + 37 * i))
            if res.status == SAT:
                out.append(res.witness)
            elif res.partial is not None:
                out.append(res.partial)
            else:
                out.append(VertexSet.of(rng.sample(range(h.n), min(h.n, 5))))
    return out
