"""The benchmark workloads: falsify_embed (the falsify and embed op lists)
and solve.

Each workload has three parts:

- ``plan(rng, n_ops)`` draws the raw inputs (plain ints and lists) from the
  seeded generator. It calls no library code.
- ``setup(raw, workdir)`` turns the raw inputs into library objects. This is
  the timed set-up phase (``setup_s``). It returns the list of ops.
- every ``Op`` has ``run`` (the timed library call), ``check`` (validation
  after the timed region) and ``canon`` (a canonical text of the output,
  hashed into the run's digest; the part before ``|`` names the outcome).

Library functions are looked up on their modules at call time, so that the
span wrappers of ``tracing.py`` see every call an op makes. The checks use
the references bound below, taken before any wrapper is installed, so that
validation is never traced; none of them calls ``geometry``.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from polyshallow import apgraphs, cli, constructions, core, embeddings, formats, geometry, solvers
from polyshallow.constructions import FalsifierAbort
from polyshallow.constructions.instance import ConstructionInstance

_is_polychromatic = core.is_polychromatic
_is_shallow_hitting = core.is_shallow_hitting
_restrict_at_least = core.restrict_at_least

# failure classes returned by Op.check
NO_ANSWER = "no-answer"  # the library gave up: falsifier abort, budget exhausted
WRONG = "wrong"  # the library answered and the answer was rejected

MIN_OPS = 200  # at least ten ops lie beyond p95


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[tuple[str, str]]]
    canon: Callable[[object], str]


def _ranks(values) -> list[int]:
    """Rank of each value in ascending order; values must be distinct."""
    order = sorted(range(len(values)), key=values.__getitem__)
    if any(values[a] == values[b] for a, b in zip(order, order[1:])):
        raise ValueError("coordinates are not distinct on this axis")
    rank = [0] * len(values)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


def _distinct_axes(rng, n: int, dim: int) -> list[list[int]]:
    """Per-axis coordinate lists with globally distinct values on every axis
    (the generic position of the acceptance suite's generator)."""
    return [rng.sample(range(4 * n + 4), n) for _ in range(dim)]


# ---------------------------------------------------------------------------
# falsify: falsifier campaign on the thm2 (m = 12) and thm4 (m = 22) instances
# ---------------------------------------------------------------------------

class Falsify:
    """Set-up writes both instances with ``polyshallow generate`` and loads
    them back through ``formats.instance_from``, the path ``polyshallow
    falsify`` takes. An op is one falsifier call on a random candidate."""

    name = "falsify"
    n_ops = 400
    cycle = 2
    instances = {"thm2": (12, 2004), "thm4": (22, 3322)}  # m, number of points

    def plan(self, rng, n_ops):
        """Half the ops per instance; candidate densities are uniform in
        [0.01, 0.5], stratified so every run covers the range evenly."""
        raw = []
        per_kind = n_ops // 2
        for which, (_, n) in self.instances.items():
            for j in range(per_kind):
                dens = 0.01 + 0.49 * (j + rng.random()) / per_kind
                raw.append((which, [v for v in range(n) if rng.random() < dens]))
        rng.shuffle(raw)
        return raw

    def setup(self, raw, workdir):
        insts = {}
        for which, (m, n) in self.instances.items():
            path = os.path.join(workdir, f"{which}.json")
            code = cli.main(["generate", which, "--m", str(m), "--out", path])
            if code != 0:
                raise RuntimeError(f"generate {which} exited with {code}")
            with open(path) as f:
                insts[which] = formats.instance_from(json.load(f))
            if insts[which].n != n:
                raise RuntimeError(f"{which} has {insts[which].n} points, expected {n}")
        checkers = {which: _CaptureCheck(inst) for which, inst in insts.items()}
        ops = []
        for which, members in raw:
            cand = core.VertexSet.of(members)
            ops.append(Op(which, partial(_falsify, which, insts[which], cand),
                          partial(checkers[which].check, cand), _canon_witness))
        return ops


def _falsify(which, inst, cand):
    fn = constructions.falsify_bottomless if which == "thm2" else constructions.falsify_strips
    try:
        return fn(inst, cand)
    except FalsifierAbort as exc:
        return exc


def _canon_witness(w) -> str:
    if isinstance(w, FalsifierAbort):
        return "abort|"
    return f"{w.kind}|{w.detail}:{','.join(map(str, w.edge))}"


class _CaptureCheck:
    """Order-exact validation of a falsifier witness, independent of
    ``geometry``: the constructions place points at distinct coordinates, so
    a strips edge is m consecutive points in x or y order, and a bottomless
    edge leaves no other point in its x-span at or below its top."""

    def __init__(self, inst: ConstructionInstance):
        self.inst = inst
        self.m = inst.params["m"]
        self.c = 3 if inst.kind == "thm2" else 2
        self._ranks = None

    def ranks(self):
        if self._ranks is None:  # built lazily, outside set-up and the timed region
            pts = self.inst.points.points
            xr = _ranks([p[0] for p in pts])
            yr = _ranks([p[1] for p in pts])
            by_x = sorted(range(len(pts)), key=xr.__getitem__)
            self._ranks = (xr, yr, by_x)
        return self._ranks

    def captured(self, edge) -> bool:
        xr, yr, by_x = self.ranks()
        lo = min(xr[v] for v in edge)
        hi = max(xr[v] for v in edge)
        if self.inst.kind == "thm4":
            ys = [yr[v] for v in edge]
            return hi - lo == len(edge) - 1 or max(ys) - min(ys) == len(edge) - 1
        top = max(yr[v] for v in edge)
        members = set(edge)
        return all(v in members or yr[v] > top for v in by_x[lo:hi + 1])

    def check(self, cand, w):
        if isinstance(w, FalsifierAbort):
            return NO_ANSWER, f"falsifier abort: {w}"
        edge = w.edge
        if len(edge) != self.m or len(set(edge)) != self.m:
            return WRONG, f"witness has {len(set(edge))} points, wanted {self.m}"
        members = set(cand.members)
        hits = sum(1 for v in edge if v in members)
        if 1 <= hits <= self.c:
            return WRONG, f"witness has {hits} hits, inside [1, {self.c}]"
        want = ("zero-hit", 0) if hits == 0 else ("overflow", hits)
        if (w.kind, w.detail) != want:
            return WRONG, f"witness reports {w.kind}/{w.detail}, counted {want}"
        if not self.captured(edge):
            return WRONG, "witness edge is not captured by the family"
        return None


# ---------------------------------------------------------------------------
# solve: exact solver decisions under a fixed node budget
# ---------------------------------------------------------------------------

NODE_BUDGET = 1000
BATCH = 2  # criterion-4 and criterion-6 instances, each, in one batch op


class Solve:
    """One block of 100 ops holds every valid thm4 m in 10..22 once (H_=m,
    c = 2), half of the min-m ops on 2-fold diagonal strip-union copies of a
    4-point base, and small batches. A batch holds BATCH criterion-4
    instances (strips H_=m, 3 <= m <= 6, c = 3) and as many criterion-6
    instances (cross-union H_>=5, k = 2). With distinct coordinates the strips of a
    base depend only on its order type, the permutation from x order to y
    order, so a run of two blocks holds one min-m op per permutation of 4.
    The mix and the heavy ops are the same for every seed; the seed picks
    the coordinates, the small instances and the order."""

    name = "solve"
    n_ops = 200
    block_ops = 100
    cycle = 2 * block_ops

    def __init__(self):
        self.thm4_m = [m for m in range(10, 23) if _valid_strip_m(m)]
        self.order_types = list(itertools.permutations(range(4)))

    def plan(self, rng, n_ops):
        raw = []
        half = len(self.order_types) // 2
        for b in range(n_ops // self.block_ops):
            block = [("thm4", m) for m in self.thm4_m]
            for perm in self.order_types[(b % 2) * half:(b % 2 + 1) * half]:
                xs = sorted(rng.sample(range(20), 4))
                ys = sorted(rng.sample(range(20), 4))
                block.append(("minm", [xs, [ys[perm[i]] for i in range(4)]]))
            for i in range(self.block_ops - len(block)):
                batch = []
                for j in range(BATCH * i, BATCH * (i + 1)):
                    n4 = 4 + j % 11
                    strips = set()
                    while len(strips) < n4:
                        strips.add((rng.randint(0, 12), rng.randint(0, 12)))
                    batch.append(("hit", (rng.randint(3, 6), sorted(strips))))
                    n6 = 5 + j % 8
                    cross = set()
                    while len(cross) < n6:
                        cross.add((rng.randint(0, 2 * n6), rng.randint(0, 2 * n6)))
                    batch.append(("color", sorted(cross)))
                block.append(("batch", batch))
            rng.shuffle(block)
            raw.extend(block)
        return raw

    def setup(self, raw, workdir):
        budget = solvers.SolveBudget(max_nodes=NODE_BUDGET)
        thm4 = {m: _uniform_strips_hypergraph(constructions.build_strip_no2shs(m), m)
                for m in self.thm4_m}
        ops = []
        for kind, data in raw:
            if kind == "thm4":
                h = thm4[data]
                ops.append(Op(kind, partial(_solve_hitting, h, 2, budget),
                              partial(_check_hitting, h, 2), _canon_solve))
            elif kind == "minm":
                p = geometry.PointSet.of(list(zip(*data)))
                mb = solvers.min_m_polychromatic(geometry.capture_edges(p, geometry.STRIPS), 2).m
                base = ConstructionInstance("thm4", p, geometry.STRIPS, {"m": mb}, {})
                copies = constructions.build_sstrips_lb(2, 2, base)
                h2 = geometry.capture_edges(copies.points, geometry.strip_union(2))
                ops.append(Op(kind, partial(_min_m, h2, budget),
                              partial(_check_min_m, h2, mb), _canon_min_m))
            else:
                problems = []
                for which, inst in data:
                    if which == "hit":
                        m, pts = inst
                        h = geometry.capture_edges(geometry.PointSet.of(pts), geometry.STRIPS, exact=m)
                        if not h.edges:
                            h = core.Hypergraph.from_edges(len(pts), [tuple(range(min(len(pts), m)))])
                        problems.append((h, 3, True))
                    else:
                        h = geometry.capture_edges(geometry.PointSet.of(inst), geometry.CROSS_UNION)
                        problems.append((core.restrict_at_least(h, 5), 2, False))
                ops.append(Op(kind, partial(_solve_batch, problems, budget),
                              partial(_check_batch, problems), _canon_batch))
        return ops


def _valid_strip_m(m: int) -> bool:
    try:
        constructions.GadgetParams.for_m(m)
    except ValueError:
        return False
    return True


def _uniform_strips_hypergraph(inst, m):
    """H_=m of a strips instance with distinct coordinates: every m
    consecutive points in x order and in y order (criterion 3's scan)."""
    pts = inst.points.points
    n = len(pts)
    edges = set()
    for axis in (0, 1):
        order = sorted(range(n), key=lambda v: pts[v][axis])
        for t in range(n - m + 1):
            edges.add(tuple(sorted(order[t:t + m])))
    return core.Hypergraph.from_edges(n, edges)


def _solve_hitting(h, c, budget):
    return solvers.solve_shallow_hitting(h, c, budget)


def _min_m(h, budget):
    return solvers.min_m_polychromatic(h, 2, budget)


def _solve_batch(problems, budget):
    return tuple(solvers.solve_shallow_hitting(h, c, budget) if hitting
                 else solvers.solve_polychromatic(h, c, budget)
                 for h, c, hitting in problems)


def _check_batch(problems, results):
    for (h, c, hitting), res in zip(problems, results):
        bad = (_check_hitting if hitting else _check_color)(h, c, res)
        if bad is not None:
            return bad
    return None


def _canon_batch(results) -> str:
    return "/".join(r.status for r in results) + "|" + ";".join(
        _canon_solve(r).split("|", 1)[1] for r in results)


def _decided(res):
    """UNSAT is an answer; only an exhausted budget leaves the op open."""
    if res.status == solvers.BUDGET_EXHAUSTED:
        return NO_ANSWER, "node budget exhausted"
    return None


def _check_hitting(h, c, res):
    bad = _decided(res)
    if bad is None and res.status == solvers.SAT and _is_shallow_hitting(h, res.witness, c) is not True:
        bad = WRONG, "witness is not a shallow hitting set"
    return bad


def _check_color(h, k, res):
    bad = _decided(res)
    if bad is None and res.status == solvers.SAT and _is_polychromatic(h, res.witness) is not True:
        bad = WRONG, "witness is not a polychromatic colouring"
    return bad


def _check_min_m(h2, mb, rec):
    if rec.status == solvers.BUDGET_EXHAUSTED:
        return NO_ANSWER, "node budget exhausted"
    if _is_polychromatic(_restrict_at_least(h2, rec.m), rec.coloring) is not True:
        return WRONG, "colouring is not polychromatic on H_>=m"
    if rec.m < 2 * mb - 1:
        return WRONG, f"envelope broken: m2 = {rec.m} < 2*{mb} - 1"
    return None


def _canon_solve(res) -> str:
    return f"{res.status}|" + json.dumps(res.to_doc() | {"millis": 0}, sort_keys=True)


def _canon_min_m(rec) -> str:
    colors = None if rec.coloring is None else list(rec.coloring.colors)
    return f"{rec.status}|" + json.dumps([rec.m, colors])


# ---------------------------------------------------------------------------
# embed: forward progression -> geometry maps and reverse labelling checks
# ---------------------------------------------------------------------------

class Embed:
    """A block of eight ops: the three forward maps on S = 0..N (squares
    recursion, two-base valuation, bottomless valuation in finite mode),
    each followed by build_ap_hypergraph and verify_edge_preservation, and
    five reverse checks on 3-D and 4-D points. N, t, M and the point counts
    cycle over their ranges, so the mix is the same for every seed and the
    seed picks the points of the reverse checks and the op order."""

    name = "embed"
    n_ops = 256
    block = ("sq", "rev3", "pq", "rev4", "bl", "rev3", "rev4", "rev3")
    forward_n = range(24, 56, 2)
    cycle = len(block) * 2 * len(forward_n)  # every N with t = 2 and t = 3

    def plan(self, rng, n_ops):
        raw = []
        for i in range(n_ops):
            kind = self.block[i % len(self.block)]
            j = i // len(self.block)
            if kind == "rev3":
                raw.append((kind, _distinct_axes(rng, 1 + (i * 7 + j) % 10, 3)))
            elif kind == "rev4":
                raw.append((kind, _distinct_axes(rng, 1 + (i * 5 + j) % 8, 4)))
            else:  # N, t and M cycle, so every run holds the same forward maps
                n_top = self.forward_n[(j // 2) % len(self.forward_n)]
                raw.append((kind, (n_top, 2 + j % 2, [0] if (j // 4) % 2 == 0 else [0, 1])))
        rng.shuffle(raw)
        return raw

    def setup(self, raw, workdir):
        ops = []
        for kind, data in raw:
            if kind in ("rev3", "rev4"):
                p = geometry.PointSet.of(list(zip(*data)))
                ops.append(Op(kind, partial(_reverse, p), _check_reports, _canon_reports))
                continue
            n_top, t, ms = data
            s = list(range(n_top + 1))
            if kind == "sq":
                spec = apgraphs.APSpec.powers(t, s, "infinite")
            elif kind == "pq":
                if ms == [0]:
                    spec = apgraphs.APSpec.bi_powers(2, 3, ms, "infinite")
                else:
                    ds = {1} | {2**i * 3**j for i in range(1, 8) for j in range(1, 6)}
                    spec = apgraphs.APSpec.explicit([d for d in ds if d <= n_top], ms, "infinite")
            else:
                if ms == [0]:
                    spec = apgraphs.APSpec.powers(t, ms, "finite")
                else:
                    ds = [t**i for i in range(1, 8) if t**i <= n_top]
                    spec = apgraphs.APSpec.explicit(ds, ms, "finite")
            ops.append(Op(kind, partial(_forward, kind, s, t, ms, spec),
                          _check_reports, _canon_reports))
        return ops


def _forward(kind, s, t, ms, spec):
    if kind == "sq":
        lay = embeddings.map_powers_to_octants(s, embeddings.chain_of_powers(t))
        pts, corr, fam = lay.points, lay.corr, geometry.OCTANTS
    elif kind == "pq":
        pts, corr = embeddings.map_pq_to_octants(s, 2, 3, ms)
        fam = geometry.OCTANTS
    else:
        pts, corr = embeddings.map_powers_to_bottomless(s, t, ms)
        fam = geometry.BOTTOMLESS
    h, labels, _ = apgraphs.build_ap_hypergraph(s, spec)
    return (embeddings.verify_edge_preservation(h, labels, pts, fam, corr),)


def _reverse(p):
    if p.dim == 3:
        corr = embeddings.map_octants_to_pq(p, 2, 3)
        return (embeddings.check_corner_divisibility(p, corr, [2, 3]),
                embeddings.check_tfin_prefix(p, corr))
    corr = embeddings.map_hextants_to_pqr(p, 2, 3, 5)
    return (embeddings.check_corner_divisibility(p, corr, [2, 3, 5]),)


def _check_reports(reports):
    for rep in reports:
        if not rep.ok:
            return WRONG, f"{rep.family} edge {rep.failing_edge} not preserved"
    return None


def _canon_reports(reports) -> str:
    status = "/".join(r.status for r in reports)
    return status + "|" + ";".join(f"{r.family}:{r.failing_edge}" for r in reports)


# ---------------------------------------------------------------------------
# falsify_embed: the falsify and embed op lists run as one workload
# ---------------------------------------------------------------------------

class FalsifyEmbed:
    """The ops of ``Falsify`` and ``Embed`` shuffled into one list. The two
    check the paper's constructions and embeddings, and together reach
    ``constructions``, ``formats``, ``cli``, ``apgraphs`` and
    ``embeddings``. One workload instead of two gives each run twice the
    time within the same total time of a benchmark check, which the noise
    of a shared machine needs."""

    name = "falsify_embed"
    parts = (Falsify(), Embed())
    n_ops = sum(part.n_ops for part in parts)
    cycle = n_ops

    def plan(self, rng, n_ops):
        reps = n_ops // self.cycle
        raw = [(j, r) for j, part in enumerate(self.parts)
               for r in part.plan(rng, reps * part.n_ops)]
        rng.shuffle(raw)
        return raw

    def setup(self, raw, workdir):
        per_part = [part.setup([r for j, r in raw if j == k], workdir)
                    for k, part in enumerate(self.parts)]
        iters = [iter(ops) for ops in per_part]
        return [next(iters[j]) for j, _ in raw]


WORKLOADS = {w.name: w for w in (FalsifyEmbed(), Solve())}
