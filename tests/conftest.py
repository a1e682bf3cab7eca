"""Shared helpers: the one hypothesis profile, seeded random inputs, the
independent capture oracle (exhaustive threshold search over the
coordinate grid), the reference shallow-hitting propagator with separate
counters per edge, the reference colour path (minimal edges, degrees and
size cut per call) and on it the per-m reference of the min-m scan, the
reference progression builder and edge-preservation verifier, the
reference tfin-slab prefix check, the per-base-count references of the
power difference sets and the corner labellings, the
Fraction-arithmetic references of the three forward embedding maps and
of the chain digit walk, the per-row layout of the strips construction,
and the edge canonicalisation of `Hypergraph.from_edges` that sorts every
edge."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hypothesis import settings

from polyshallow import solvers
from polyshallow.apgraphs import APEdgeLabel, a0_admissible, enumerate_differences
from polyshallow.constructions import ConstructionInstance, GadgetParams
from polyshallow.constructions import strips
from polyshallow.core import Hypergraph, VertexSet, is_polychromatic, restrict_at_least
from polyshallow.embeddings import (
    Correspondence,
    PreservationReport,
    SquareLayout,
    valuation,
)
from polyshallow.geometry import STRIPS, TFIN_SLABS, PointSet, capture_contains, capture_edges

# Every property test is reproducible: no random seed, no example database
# and no deadline; a test sets only its own max_examples.
settings.register_profile("polyshallow", derandomize=True, database=None, deadline=None)
settings.load_profile("polyshallow")


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
# Reference colour path: minimal edges, degrees and the size cut per call
# ---------------------------------------------------------------------------

def reference_minimal_edges(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The inclusion-minimal edges of h, smallest first; h's own edges when
    all have one size (distinct edges of one size cannot nest).

    Each kept edge is held as a bitmask under its first vertex, so a
    candidate is tested only against the kept edges that start inside it.
    """
    edges = h.edges
    if len(set(map(len, edges))) < 2:
        return edges
    bit = [1 << v for v in range(h.n)]
    kept_at: list[list[int]] = [[] for _ in range(h.n)]
    kept = []
    for e in sorted(edges, key=len):
        mask = sum(map(bit.__getitem__, e))
        for v in e:
            for f in kept_at[v]:
                if f & mask == f:
                    break
            else:
                continue
            break  # e contains the kept edge f
        else:
            kept_at[e[0]].append(mask)
            kept.append(e)
    return tuple(kept)


def reference_solve_polychromatic(h: Hypergraph, k: int,
                                  budget: solvers.SolveBudget) -> solvers.SolveResult:
    """`solvers.solve_polychromatic` on its own preparation: the size cut,
    the degrees in h and `reference_minimal_edges`, then the same colour
    search."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if min(map(len, h.edges), default=k) < k:
        return solvers.SolveResult(solvers.UNSAT)
    degree = [0] * h.n
    for e in h.edges:
        for v in e:
            degree[v] += 1
    return solvers._colour_search(h.n, reference_minimal_edges(h), degree, k, budget, lambda: h)


def reference_min_m(h: Hypergraph, k: int, budget: solvers.SolveBudget) -> solvers.MRecord:
    """`solvers.min_m_polychromatic` the slow way: for each m from 1 up,
    build H_>=m with `restrict_at_least` and solve it from scratch with
    `reference_solve_polychromatic`."""
    unsat_stats = None
    m = 1
    while True:
        hm = restrict_at_least(h, m)
        res = reference_solve_polychromatic(hm, k, budget)
        if res.status == solvers.SAT:
            if is_polychromatic(hm, res.witness) is not True:
                raise AssertionError("solver colouring failed its re-check")
            return solvers.MRecord(k, m, res.witness, unsat_stats)
        if res.status == solvers.BUDGET_EXHAUSTED:
            return solvers.MRecord(k, m, None, unsat_stats, status=solvers.BUDGET_EXHAUSTED)
        unsat_stats = res.stats
        m += 1
        if m > h.max_edge_size + 1:  # empty edge set is vacuously colorable
            raise AssertionError("vacuous restriction must be SAT")


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


def reference_tfin_prefix(pts, corr):
    """`embeddings.check_tfin_prefix` the slow way: per tfin-slab edge, scan
    every point for the octant edge and compare sorted label lists."""
    labels = [corr.label_of(i) for i in range(len(pts.points))]
    xr, yr, zr = pts.ranks
    for e in capture_edges(pts, TFIN_SLABS).edges:
        lox = min(xr[i] for i in e)
        topy = max(yr[i] for i in e)
        topz = max(zr[i] for i in e)
        octant_edge = [
            i for i in range(len(pts)) if xr[i] >= lox and yr[i] <= topy and zr[i] <= topz
        ]
        oct_labels = sorted(labels[i] for i in octant_edge)
        e_labels = sorted(labels[i] for i in e)
        if oct_labels[: len(e_labels)] != e_labels:
            return PreservationReport("failed", "tfin-slabs", "points-to-numbers", e)
    return PreservationReport("all-preserved", "tfin-slabs", "points-to-numbers")


# ---------------------------------------------------------------------------
# Reference difference sets and corner labellings: one copy per base count
# ---------------------------------------------------------------------------

def reference_enumerate_differences(spec, bound):
    """The power kinds of `apgraphs.enumerate_differences` the slow way: one
    nest of loops per number of bases."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = set()
    if spec.kind == "powers":
        (t,) = spec.params
        v = 1
        while v <= bound:
            out.add(v)
            v *= t
    elif spec.kind == "biPowers":
        p, q = spec.params
        a = 1
        while a <= bound:
            v = a
            while v <= bound:
                out.add(v)
                v *= q
            a *= p
    elif spec.kind == "triPowers":
        p1, p2, p3 = spec.params
        a = 1
        while a <= bound:
            b = a
            while b <= bound:
                v = b
                while v <= bound:
                    out.add(v)
                    v *= p3
                b *= p2
            a *= p1
    else:
        raise ValueError(f"not a power kind: {spec.kind!r}")
    return sorted(out)


def _increasing_labels(bases, coprime_to):
    """Per point (in ascending x-rank): base * k with the smallest k >= 1
    coprime to `coprime_to` keeping labels strictly increasing."""
    labels = []
    prev = 0
    for base in bases:
        k = prev // base + 1
        while math.gcd(k, coprime_to) != 1:
            k += 1
        labels.append(base * k)
        prev = labels[-1]
    return labels


def reference_corner_labels(pts, bases):
    """`embeddings.map_octants_to_pq` for two bases and
    `embeddings.map_hextants_to_pqr` for three, one body per base count."""
    if len(bases) == 2:
        p, q = bases
        if pts.dim != 3:
            raise ValueError("need a 3-dimensional point set")
        if p < 2 or q < 2 or math.gcd(p, q) != 1:
            raise ValueError("p, q must be coprime and >= 2")
        by_x = pts.orders[0][0]
        per_point = [p ** (1 + pts.position(1, i)) * q ** (1 + pts.position(2, i)) for i in by_x]
        labels = _increasing_labels(per_point, p * q)
        pairs = tuple(sorted((labels[pos], i) for pos, i in enumerate(by_x)))
        return Correspondence("points-to-numbers", "octants", pairs)
    p1, p2, p3 = bases
    if pts.dim != 4:
        raise ValueError("need a 4-dimensional point set")
    for a, b in ((p1, p2), (p1, p3), (p2, p3)):
        if math.gcd(a, b) != 1:
            raise ValueError("bases must be pairwise coprime")
    if min(p1, p2, p3) < 2:
        raise ValueError("bases must be >= 2")
    by_x = pts.orders[0][0]
    per_point = [p1 ** (1 + pts.position(1, i)) * p2 ** (1 + pts.position(2, i))
                 * p3 ** (1 + pts.position(3, i)) for i in by_x]
    labels = _increasing_labels(per_point, p1 * p2 * p3)
    pairs = tuple(sorted((labels[pos], i) for pos, i in enumerate(by_x)))
    return Correspondence("points-to-numbers", "hextants", pairs)


# ---------------------------------------------------------------------------
# Reference forward maps: Fraction arithmetic throughout
# ---------------------------------------------------------------------------

def reference_chain_digits(chain, n):
    """`_Chain.digits` the slow way: greedy from the top, each step looking
    up the largest position whose divisor is <= the rest from position 0."""

    def top_position(n):
        i = 0
        while True:
            try:
                nxt = chain.divisor(i + 1)
            except IndexError:
                return min(i, len(chain.divisors) - 1)
            if nxt > n:
                return i
            i += 1

    out = []
    while n > 0:
        i = top_position(n)
        d = chain.divisor(i)
        c = n // d
        out.append((i, c))
        n -= c * d
    out.reverse()
    return out


def reference_map_powers_to_octants(s_vertices, chain):
    """`embeddings.map_powers_to_octants` the slow way: every square placed
    recursively with Fraction adds, multiplies and divides."""
    svals = sorted(set(s_vertices))
    if any(v < 0 for v in svals):
        raise ValueError("S must contain naturals")
    children = {0: set()}
    for n in svals:
        acc = 0
        for pos, val in reference_chain_digits(chain, n):
            parent = acc
            acc += val * chain.divisor(pos)
            children.setdefault(parent, set()).add((pos, val, acc))
            children.setdefault(acc, set())

    boxes = {}

    def place(node, yw, zs, side):
        boxes[node] = (yw, zs, side)
        kids = sorted(children.get(node, ()))
        for r, (_, _, kid) in enumerate(kids, start=1):
            kside = side / (2 ** (r + 2))
            kyw = yw + side * (1 - Fraction(1, 2**r))
            kzs = zs + side * Fraction(1, 2**r) - kside
            place(kid, kyw, kzs, kside)

    place(0, Fraction(0), Fraction(0), Fraction(1))
    pts = []
    pairs = []
    for i, n in enumerate(svals):
        yw, zs, _ = boxes[n]
        pts.append((Fraction(n), yw, zs))
        pairs.append((n, i))
    return SquareLayout(
        PointSet.of(pts, dim=3),
        Correspondence("numbers-to-points", "octants", tuple(pairs)),
        boxes,
    )


def reference_map_pq_to_octants(s_vertices, p, q, M):
    """`embeddings.map_pq_to_octants` the slow way: each coordinate built
    by Fraction subtraction and addition. Checks as the fast map does."""
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError("p, q must be coprime and >= 2")
    ms = sorted(set(M))
    if len({mu % (p * q) for mu in ms}) != len(ms):
        raise ValueError("duplicate residues in M")
    svals = sorted(set(s_vertices))
    if any(v < 0 for v in svals):
        raise ValueError("S must contain naturals")
    pts = []
    if ms == [0]:
        for n in svals:
            g1, g2 = valuation(n, p), valuation(n, q)
            y = Fraction(-1) if g1 is None else (Fraction(1) if g1 == 0 else Fraction(1, g1) - 1)
            z = Fraction(-1) if g2 is None else (Fraction(1) if g2 == 0 else Fraction(1, g2) - 1)
            pts.append((Fraction(n), y, z))
    else:
        if any(not 0 <= mu < p * q for mu in ms):
            raise ValueError("M must lie in [0, pq) for the residue-square layout")
        for n in svals:
            r = n % (p * q)
            base = n - r
            g1, g2 = valuation(base, p), valuation(base, q)
            y = (Fraction(-1) if g1 is None else Fraction(1, g1) - 1) - 2 * r
            z = (Fraction(-1) if g2 is None else Fraction(1, g2) - 1) + 2 * r
            pts.append((Fraction(n), y, z))
    pairs = tuple((n, i) for i, n in enumerate(svals))
    return PointSet.of(pts, dim=3), Correspondence("numbers-to-points", "octants", pairs)


def reference_map_powers_to_bottomless(s_vertices, t, M):
    """`embeddings.map_powers_to_bottomless` the slow way: x built as
    1 - 1/n (plus 2r) by Fraction subtraction. Checks as the fast map does."""
    if t < 2:
        raise ValueError("t must be >= 2")
    ms = sorted(set(M))
    if len({mu % t for mu in ms}) != len(ms):
        raise ValueError("duplicate residues in M")
    svals = sorted(set(s_vertices))
    if any(v < 0 for v in svals):
        raise ValueError("S must contain naturals")
    pts = []
    if ms == [0]:
        for n in svals:
            if n == 0:
                pts.append((Fraction(-1), Fraction(0)))
                continue
            tv = valuation(n, t)
            y = Fraction(2) if tv == 0 else Fraction(1, tv)
            pts.append((1 - Fraction(1, n), y))
    else:
        if any(not 0 <= mu < t for mu in ms):
            raise ValueError("M must lie in [0, t) for the residue-box layout")
        for n in svals:
            if n == 0:
                pts.append((Fraction(0), Fraction(0)))
                continue
            r = n % t
            base = n - r
            tv = valuation(base, t)
            y = Fraction(0) if tv is None else Fraction(1, tv)
            pts.append((2 * r + 1 - Fraction(1, n), y))
    pairs = tuple((n, i) for i, n in enumerate(svals))
    return PointSet.of(pts, dim=2), Correspondence("numbers-to-points", "bottomless", pairs)


# ---------------------------------------------------------------------------
# Strips construction, one row at a time; from_edges sorting every edge
# ---------------------------------------------------------------------------

def _reference_stretch(pattern: str, sizes: dict) -> list[tuple[str, int]]:
    """`strips._stretch` with the index rounded from a float quotient."""
    ref: dict = {}
    for rank, tok in enumerate(pattern.split()):
        ref.setdefault(tok[0], {})[int(tok[1:])] = rank
    keyed = []
    for blk, n in sizes.items():
        ranks = ref[blk]
        for j in range(n):
            jj = round(j * (len(ranks) - 1) / (n - 1)) if n > 1 else 0
            keyed.append((ranks[jj], j, blk))
    keyed.sort()
    return [(blk, j) for _, j, blk in keyed]


def reference_build_strip_no2shs(m: int) -> ConstructionInstance:
    """`strips.build_strip_no2shs` the slow way: each row builds its own x
    table and y order and names its groups point by point. No warning."""
    gp = GadgetParams.for_m(m)
    a, b = gp.a, gp.b
    sz = gp.sizes
    top_zone = _reference_stretch(strips._TOP_ZONE,
                                  {g: sz[g] for g, _ in strips._TOP_COLUMNS if g != "X"})
    top_band = _reference_stretch(strips._TOP_X, {"X": 2 * a})[::-1]
    low_zone = _reference_stretch(strips._LOW_ZONE,
                                  {k: sz[g] for k, (g, _) in strips._LOW_TOKENS.items()})
    s_lo = _reference_stretch(strips._LOW_SLO, {"s": 1, "R": a - 1})
    x2 = _reference_stretch(strips._LOW_X2, {"L": a, "U": a})

    columns = strips._TOP_COLUMNS + strips._LOW_COLUMNS + strips._PAD_COLUMNS
    row_width = sum(sz[g] for g, _ in columns)
    row_height = 6 * m + 3 * b + 7
    pts: list[tuple[int, int]] = []
    groups: dict[str, list[int]] = {}
    chi: list[int] = []
    for i in range(m):
        xs: dict = {}  # (group, gadget, index) -> x
        for g, j in columns:
            for t in range(sz[g]):
                xs[(g, j, t)] = i * row_width + len(xs)
        y_order = [(g, j, t) for g, j in strips._PAD_COLUMNS for t in range(sz[g])]
        y_order += [strips._LOW_TOKENS[blk] + (t,) for blk, t in low_zone]
        y_order += [("X", 3, a if blk == "s" else a + 1 + t) for blk, t in s_lo]
        y_order += [("X", 2, t if blk == "L" else a + t) for blk, t in x2]
        y_order.append(("chi",))
        y_order += [("X", 1, t) for _, t in top_band]
        y_order += [("X", 3, t) for t in range(a)]
        y_order += [(blk, 1, t) for blk, t in reversed(top_zone)]
        for y, key in enumerate(y_order):  # vertex indices follow y
            if key == ("chi",):
                x = m * row_width + (m - 1 - i)
                chi.append(len(pts))
            else:
                x = xs[key]
                groups.setdefault(f"{key[0]}_{i}_{key[1]}", []).append((key[2], len(pts)))
            pts.append((x, i * row_height + y))
    named = {name: tuple(v for _, v in sorted(members)) for name, members in groups.items()}
    named["chi"] = tuple(chi)
    return ConstructionInstance("thm4", PointSet.of(pts, dim=2), STRIPS,
                                {"m": m, "a": a, "b": b}, named,
                                theorem_scale=m in strips.CERTIFIED_M)


def reference_from_edges(n: int, edges) -> Hypergraph:
    """`Hypergraph.from_edges` with every edge sorted and deduplicated,
    canonical or not; the result passes full validation."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    canon = set()
    for e in edges:
        t = tuple(sorted(set(e)))
        if t:
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} has a vertex outside [0, {n})")
            canon.add(t)
    return Hypergraph(n, tuple(sorted(canon)))
