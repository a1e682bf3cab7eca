"""Shared helpers: seeded random inputs, the independent capture oracle
(exhaustive threshold search over the coordinate grid), the reference
shallow-hitting propagator with separate counters per edge, and the
reference progression builder and edge-preservation verifier."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from polyshallow import solvers
from polyshallow.apgraphs import APEdgeLabel, a0_admissible, enumerate_differences
from polyshallow.core import Hypergraph, VertexSet
from polyshallow.embeddings import PreservationReport
from polyshallow.geometry import PointSet, capture_contains


def rand_points(rng: random.Random, n: int, dim: int, coord_range: int = 12) -> PointSet:
    """Random integer-coordinate points, duplicates removed (ties allowed
    per-axis, equal points not)."""
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(0, coord_range)) for _ in range(dim)))
    return PointSet.of(sorted(pts))


def rand_points_distinct(rng: random.Random, n: int, dim: int) -> PointSet:
    """Random points with globally distinct coordinates on every axis
    (the generic position the constructions emit)."""
    axes = []
    for _ in range(dim):
        vals = rng.sample(range(4 * n + 4), n)
        rng.shuffle(vals)
        axes.append([Fraction(v) for v in vals])
    return PointSet.of(list(zip(*axes)))


def rand_hypergraph(rng: random.Random, n_max: int, e_max: int) -> Hypergraph:
    n = rng.randint(1, n_max)
    ne = rng.randint(0, e_max)
    edges = [rng.sample(range(n), rng.randint(1, n)) for _ in range(ne)]
    return Hypergraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate every threshold combination directly
# ---------------------------------------------------------------------------

def _grid(points, axis):
    vals = sorted(set(p[axis] for p in points))
    # cuts strictly between consecutive values, plus beyond both extremes
    cuts = [vals[0] - 1]
    for a, b in zip(vals, vals[1:]):
        cuts.append(Fraction(a + b, 2))
    cuts.append(vals[-1] + 1)
    return vals, cuts


def oracle_capture_sets(p: PointSet, tag: str, s: int = 1) -> set[frozenset]:
    """All capturable subsets by brute threshold search, independent of the
    production enumeration (loops over explicit boundary grids)."""
    pts = p.points
    n = len(pts)
    out: set[frozenset] = set()

    def interval_sets(axis):
        _, cuts = _grid(pts, axis)
        res = set()
        for lo, hi in itertools.combinations(cuts, 2):
            res.add(frozenset(i for i in range(n) if lo < pts[i][axis] < hi))
        return res

    if tag == "bottomless":
        _, ycuts = _grid(pts, 1)
        for xs in interval_sets(0):
            for y0 in ycuts:
                got = frozenset(i for i in xs if pts[i][1] < y0)
                if got:
                    out.add(got)
    elif tag == "strips":
        out = {s0 for s0 in interval_sets(0) | interval_sets(1) if s0}
    elif tag == "strip-union":
        singles = [c for c in interval_sets(0) | interval_sets(1) if c]
        layer = {frozenset()}
        for _ in range(s):
            layer = {u | c for u in layer for c in singles}
            out |= {x for x in layer if x}
    elif tag == "cross-union":
        verts = interval_sets(0) | {frozenset()}  # a strip may be placed empty
        horiz = interval_sets(1) | {frozenset()}
        for a in verts:
            for b in horiz:
                u = a | b
                if u:
                    out.add(u)
    elif tag == "rectangles":
        for xs in interval_sets(0):
            for ys in interval_sets(1):
                u = xs & ys
                if u:
                    out.add(u)
    elif tag in ("octants", "hextants"):
        dim = p.dim
        _, xcuts = _grid(pts, 0)
        downs = [_grid(pts, ax)[1] for ax in range(1, dim)]
        for x0 in xcuts:
            base = [i for i in range(n) if pts[i][0] > x0]
            for combo in itertools.product(*downs):
                got = frozenset(
                    i for i in base
                    if all(pts[i][ax] < combo[ax - 1] for ax in range(1, dim))
                )
                if got:
                    out.add(got)
    elif tag == "tfin-slabs":
        _, ycuts = _grid(pts, 1)
        _, zcuts = _grid(pts, 2)
        for xs in interval_sets(0):
            for y0 in ycuts:
                mid = [i for i in xs if pts[i][1] < y0]
                for z0 in zcuts:
                    got = frozenset(i for i in mid if pts[i][2] < z0)
                    if got:
                        out.add(got)
    else:
        raise ValueError(tag)
    return out


# ---------------------------------------------------------------------------
# Reference shallow-hitting propagator: separate (chosen, undecided) counters
# ---------------------------------------------------------------------------

class CountingHitting(solvers._Propagator):
    """Per-edge (chosen, undecided) counters; a value is 0 (out) or 1 (in).
    The slow path that the packed `solvers._Hitting` is checked against."""

    def __init__(self, h: Hypergraph, c: int):
        super().__init__(h.n, h.edges)
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


def reference_hitting(h: Hypergraph, c: int, budget: solvers.SolveBudget) -> solvers.SolveResult:
    """`solve_shallow_hitting` on `CountingHitting`: the same engine, order
    and value order, no witness re-check. h must have no empty edge."""
    prop = CountingHitting(h, c)
    order = solvers._static_order([len(es) for es in prop.edges_of])
    return solvers._search(order, budget, prop, (1, 0), prop.partial)


# ---------------------------------------------------------------------------
# Reference progression builder and edge-preservation verifier
# ---------------------------------------------------------------------------

def reference_build_ap_hypergraph(s_vertices, spec):
    """`apgraphs.build_ap_hypergraph` the slow way: one admissibility test
    per (d, a0), each intersection and prefix sorted afresh, the edges
    canonicalised by `Hypergraph.from_edges`."""
    svals = sorted(set(s_vertices))
    if not svals:
        raise ValueError("S must be nonempty")
    if any(v < 0 for v in svals):
        raise ValueError("S must contain naturals")
    sset = set(svals)
    index = {v: i for i, v in enumerate(svals)}
    diffs = enumerate_differences(spec, max(svals[-1], 1))
    edges = {}
    for d in diffs:
        for a0 in range(0, svals[-1] + 1):
            if not a0_admissible(a0, d, spec.M):
                continue
            members = [v for v in range(a0, svals[-1] + 1, d) if v in sset]
            if not members:
                continue
            full = tuple(sorted(index[v] for v in members))
            if full not in edges:
                edges[full] = APEdgeLabel(a0, d, None)
            if spec.mode == "finite":
                for ln in range(len(members)):
                    prefix = tuple(sorted(index[v] for v in members[: ln + 1]))
                    if prefix not in edges:
                        edges[prefix] = APEdgeLabel(a0, d, (members[ln] - a0) // d)
    return Hypergraph.from_edges(len(svals), edges.keys()), svals, edges


def reference_verify(source, source_labels, target, fam, corr):
    """`embeddings.verify_edge_preservation` the slow way: one full
    `capture_contains` call per source edge."""
    to_point = dict(corr.pairs)
    for v in range(source.n):
        if source_labels[v] not in to_point:
            raise ValueError(f"label {source_labels[v]} has no image point")
    for e in source.edges:
        image = [to_point[source_labels[v]] for v in e]
        if not capture_contains(target, fam, image):
            return PreservationReport("failed", fam.tag, corr.direction, e)
    return PreservationReport("all-preserved", fam.tag, corr.direction)
