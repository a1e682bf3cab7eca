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
  colors than it has uncolored vertices is dead. It runs on the
  inclusion-minimal edges only. That is exact and leaves the search
  unchanged: if e is a subset of f, f is polychromatic whenever e is;
  when f is dead, e is dead too; and when f forces a vertex, e forces the
  same color on it or is dead. So at every node the propagation reaches
  the same fixpoint, or a conflict, as on all edges; with the branching
  order still taken from the degrees in the full hypergraph, the status,
  node count, depth and witness are the same too.
- One colour path: `_Levels(h)` prepares the colour search on each level
  H_>=m of h, with the minimal edges of every level from one containment
  pass, and cuts a level with an edge smaller than k. `min_m_polychromatic`
  runs it for m = 1, 2, ...; `solve_polychromatic` runs it once, at the
  smallest edge size of h, where H_>=m is h itself.
- `_Hitting` packs the chosen and undecided counts of an edge into one
  int, `undecided + ONE * chosen` with ONE one more than the largest edge
  size: putting a vertex in adds ONE - 1 to each of its edges, leaving it
  out subtracts 1. An edge with nothing chosen and one undecided vertex
  forces it in; an edge with c chosen forces its undecided vertices out.

UNSAT is reported only when the search space is exhausted (pruning removes
only provably dead branches). SAT witnesses are re-verified through the
core checkers before being returned.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from . import geometry
from .core import (
    ColorAssignment,
    Edge,
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
    """Node and/or wall-clock limits, each >= 0; at least one is finite."""

    max_nodes: Optional[int] = 10**7
    max_millis: Optional[int] = None

    def __post_init__(self):
        if self.max_nodes is None and self.max_millis is None:
            raise ValueError("at least one budget limit must be finite")
        if min(self.max_nodes or 0, self.max_millis or 0) < 0:
            raise ValueError("budget limits must be non-negative")


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


def _static_order(degree: list[int]) -> list[int]:
    """Vertices by decreasing degree, ties by index (the sort is stable,
    also in reverse)."""
    return sorted(range(len(degree)), key=degree.__getitem__, reverse=True)


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

    def __init__(self, n: int, edges: tuple[Edge, ...]):
        self.edges = edges
        self.edges_of: list[list[int]] = [[] for _ in range(n)]
        for ei, e in enumerate(edges):
            for v in e:
                self.edges_of[v].append(ei)
        self.value = [-1] * n
        self.trail: list[int] = []
        self.pending: list[int] = []

    def partial(self):
        return None


def _search(order: list[int], budget: SolveBudget, prop: _Propagator, values, finish) -> SolveResult:
    """Depth-first search over the undecided vertices in the static `order`
    of all vertices, trying `values` in turn for each and letting `prop`
    decide what every branch forces. `finish()` turns a complete
    assignment into the re-checked witness."""
    t0 = time.monotonic()

    def spent_millis() -> int:
        return int((time.monotonic() - t0) * 1000)

    n = len(order)
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

    pending.extend(range(len(prop.edges)))
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

    def __init__(self, n: int, edges: tuple[Edge, ...], k: int):
        super().__init__(n, edges)
        self.count = [[0] * k for _ in edges]
        self.missing = [k] * len(edges)
        self.uncolored = [len(e) for e in edges]

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


def _colour_search(n: int, edges: tuple[Edge, ...], degree: list[int], k: int,
                   budget: SolveBudget, full: Callable[[], Hypergraph]) -> SolveResult:
    """`_Coloring` on `edges`, the inclusion-minimal edges of the hypergraph
    `full()`, branching in the order of its vertex degrees `degree`. The
    witness is re-checked against `full()`, which is called only then."""
    prop = _Coloring(n, edges, k)

    def finish() -> ColorAssignment:
        chi = ColorAssignment(k, tuple(prop.value))
        if is_polychromatic(full(), chi) is not True:
            raise AssertionError("solver colouring failed its re-check")
        return chi

    return _search(_static_order(degree), budget, prop, range(k), finish)


class _Levels:
    """The colour searches on the levels H_>=m of one hypergraph h, for m
    in increasing order.

    The edges are sorted by size once (stably, so canonically within a
    size), and the degrees are lowered as edges drop out. The minimal edges
    of H_>=m come from one containment pass with witnesses: each edge keeps
    the size of a known proper sub-edge, its witness (0 while none is
    known, -1 once it is known to have none left). An edge whose witness is
    at least m is not minimal; an edge of size m, or with witness -1, is.
    Any other edge is looked up once with one vertex dropped (a hit makes
    its witness its size - 1, which settles it for every later m), then
    tested against the minimal edges kept so far at this level, each held
    as a bitmask under its first vertex.
    """

    def __init__(self, h: Hypergraph):
        self.n = h.n
        self.edges = edges = sorted(h.edges, key=len)  # stable: canonical order within a size
        self.bit = bit = [1 << v for v in range(h.n)]
        self.degree = degree = [0] * h.n  # in H_>=m, not in its minimal edges
        self.masks = masks = []
        for e in edges:  # each edge's bitmask and the degrees in one pass
            mask = 0
            for v in e:
                mask |= bit[v]
                degree[v] += 1
            masks.append(mask)
        self.is_edge = set(masks)
        self.sub_size = [0] * len(edges)  # per edge, its witness
        self.lo = 0  # edges[lo:] is H_>=m

    def _drop_below(self, m: int) -> int:
        """Drops the edges smaller than m, lowering the degrees; returns lo."""
        edges, degree, lo = self.edges, self.degree, self.lo
        while lo < len(edges) and len(edges[lo]) < m:
            for v in edges[lo]:
                degree[v] -= 1
            lo += 1
        self.lo = lo
        return lo

    def minimal_edges(self, m: int) -> tuple[Edge, ...]:
        """The inclusion-minimal edges of H_>=m, smallest first."""
        edges, masks, bit, is_edge, sub_size = self.edges, self.masks, self.bit, self.is_edge, self.sub_size
        kept, kept_at = [], [[] for _ in range(self.n)]
        for i in range(self._drop_below(m), len(edges)):
            w, e = sub_size[i], edges[i]
            if w >= m:
                continue
            if w >= 0 and len(e) > m:
                mask = masks[i]
                # the drop-one lookup: is e minus one vertex an edge?
                if not w and not is_edge.isdisjoint(map(mask.__xor__, map(bit.__getitem__, e))):
                    sub_size[i] = len(e) - 1
                    continue
                sub = next((f for v in e for f in kept_at[v] if f & mask == f), 0)
                if sub:
                    sub_size[i] = sub.bit_count()
                    continue
                sub_size[i] = -1  # none of size >= m, so none at a later level
            kept.append(e)
            kept_at[e[0]].append(masks[i])
        return tuple(kept)

    def colour(self, m: int, k: int, budget: SolveBudget, full: Callable[[], Hypergraph]) -> SolveResult:
        """The colour search on H_>=m, re-checked against `full()`, which
        builds H_>=m."""
        if k < 1:
            raise ValueError("k must be >= 1")
        lo = self._drop_below(m)
        # an edge smaller than k can never see all k colors
        if lo < len(self.edges) and len(self.edges[lo]) < k:
            return SolveResult(UNSAT)
        return _colour_search(self.n, self.minimal_edges(m), self.degree, k, budget, full)


def solve_polychromatic(h: Hypergraph, k: int, budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Exact search for a polychromatic k-coloring of h.

    Propagation: an edge with exactly one missing color and exactly one
    uncolored vertex forces that vertex to the missing color. Pruning: an
    edge whose missing-color count exceeds its uncolored count is dead.
    Both run on the inclusion-minimal edges; the branching order comes
    from the degrees in h, and the witness is re-checked against all of h.
    This is the one level of `_Levels` at the smallest edge size of h
    (0 for the empty edge or no edges), where H_>=m is h itself.
    """
    return _Levels(h).colour(min(map(len, h.edges), default=0), k, budget, lambda: h)


# ---------------------------------------------------------------------------
# Shallow hitting set solver
# ---------------------------------------------------------------------------

class _Hitting(_Propagator):
    """One packed counter per edge, `state = undecided + ONE * chosen` with
    ONE one more than the largest edge size, so both counts can be read
    back; a value is 0 (out) or 1 (in).

    An in-assignment adds ONE - 1 to each edge of the vertex: the edge
    dies at `state >= (c + 1) * ONE` and is queued once it holds c chosen
    vertices and some undecided ones (`c * ONE < state < (c + 1) * ONE`).
    An out-assignment subtracts 1: the edge dies at `state == 0` (nothing
    chosen, nothing left) and is queued as a unit edge at `state == 1`. An
    edge already holding c chosen is not queued again on an out-assignment;
    it was queued when it reached c.
    """

    def __init__(self, h: Hypergraph, c: int):
        super().__init__(h.n, h.edges)
        one = h.max_edge_size + 1
        self.step_in = one - 1
        self.full = c * one  # above it: c chosen, some still undecided
        self.over = (c + 1) * one  # from it on: more than c chosen
        self.state = [len(e) for e in h.edges]

    def assign(self, v: int, val: int) -> bool:
        self.value[v] = val
        self.trail.append(v)
        state, pending = self.state, self.pending
        ok = True
        if val:
            step, full, over = self.step_in, self.full, self.over
            for ei in self.edges_of[v]:
                s = state[ei] = state[ei] + step
                if s > full:
                    if s < over:
                        pending.append(ei)
                    else:
                        ok = False
        else:
            for ei in self.edges_of[v]:
                s = state[ei] = state[ei] - 1
                if s < 2:
                    if s:
                        pending.append(ei)
                    else:
                        ok = False
        return ok

    def unassign(self, v: int) -> None:
        step = -self.step_in if self.value[v] else 1
        self.value[v] = -1
        state = self.state
        for ei in self.edges_of[v]:
            state[ei] += step

    def propagate(self) -> bool:
        value, edges, state, full = self.value, self.edges, self.state, self.full
        pending, assign = self.pending, self.assign
        while pending:
            ei = pending.pop()
            s = state[ei]
            if s == 1:
                v = next(u for u in edges[ei] if value[u] == -1)
                if not assign(v, 1):
                    return False
            elif s > full:
                for u in edges[ei]:
                    if value[u] == -1 and not assign(u, 0):
                        return False
            elif not s:  # an empty edge at the root; assign reports the rest
                return False
        return True

    def partial(self) -> VertexSet:
        return VertexSet.of(v for v, val in enumerate(self.value) if val == 1)


def solve_shallow_hitting(h: Hypergraph, c: int, budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Exact search for a vertex set U with 1 <= |e cap U| <= c per edge.

    Per-edge counts of chosen and undecided vertices drive the
    propagation: an edge with nothing chosen and one undecided vertex
    forces it in; an edge with c chosen forces its undecided vertices out.
    An empty edge can never be hit, so h with one is UNSAT at the root.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    prop = _Hitting(h, c)

    def finish() -> VertexSet:
        u = prop.partial()
        if is_shallow_hitting(h, u, c) is not True:
            raise AssertionError("solver hitting set failed its re-check")
        return u

    order = _static_order([len(es) for es in prop.edges_of])
    return _search(order, budget, prop, (1, 0), finish)  # membership tried in-first


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
    if not h.edges[0]:  # the empty edge sorts first
        raise ValueError("hypergraph has an empty edge")
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

    k: int
    m: int
    coloring: ColorAssignment
    unsat_below: Optional[SolveStats]  # exhausted-search certificate at m-1
    status: str = SAT


def min_m_polychromatic(h: Hypergraph, k: int, budget: SolveBudget = SolveBudget()) -> MRecord:
    """Scan m upward from 1; colorability is monotone in m (edges only
    disappear), so the first SAT is the minimum. Each level m is the
    colour search of `_Levels` on H_>=m, which does the work per
    hypergraph once for the whole scan; H_>=m itself is built only at SAT,
    for the re-check of the colouring.
    """
    levels = _Levels(h)
    unsat_stats: Optional[SolveStats] = None
    for m in range(1, h.max_edge_size + 2):  # the top level has no edge: SAT
        res = levels.colour(m, k, budget, partial(restrict_at_least, h, m))
        if res.status == SAT:  # re-checked on H_>=m
            return MRecord(k, m, res.witness, unsat_stats)
        if res.status == BUDGET_EXHAUSTED:
            return MRecord(k, m, None, unsat_stats, status=BUDGET_EXHAUSTED)
        unsat_stats = res.stats
    raise AssertionError("vacuous restriction must be SAT")


# ---------------------------------------------------------------------------
# Coloring pipeline (shrink to uniform, hit, delete, repeat)
# ---------------------------------------------------------------------------

class PipelineError(RuntimeError):
    """A round found no valid c-shallow hitting set. `status` is UNSAT or
    BUDGET_EXHAUSTED from the default search, else None."""

    def __init__(self, message: str, status: Optional[str] = None):
        super().__init__(message)
        self.status = status


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

    status = None  # of the default oracle's last search
    if hitting_oracle is None:
        def hitting_oracle(hu: Hypergraph, cc: int) -> Optional[VertexSet]:
            nonlocal status
            res = solve_shallow_hitting(hu, cc, budget)
            status = res.status
            return res.witness if res.status == SAT else None

    threshold = c * (k - 1) + 1
    # current edges as original-index vertex sets
    current = set(geometry.capture_edges(points, fam, at_least=threshold).edges)
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
            raise PipelineError(f"no {c}-shallow hitting set found in round {j}", status)
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
