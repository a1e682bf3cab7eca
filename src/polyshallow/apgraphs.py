"""Hypergraphs induced by arithmetic progressions with differences from a
structured set D and admissible start offsets (a0 - m*d lands in M).

The edge set is the maximal model: every distinct nonempty intersection of
an admissible progression with the vertex set S, differences capped at
max(S, 1) (larger differences add nothing but unreachable singletons).
Finite mode additionally keeps every prefix of each intersection.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .core import Hypergraph, _unchecked

# The power kinds, with one, two and three pairwise coprime bases: D holds
# every product of powers of the bases.
_POWER_KINDS = ("powers", "biPowers", "triPowers")


@dataclass(frozen=True)
class APSpec:
    """Difference-set generator, offset set M, finite/infinite mode.

    kind: one of "explicit", "powers", "biPowers", "triPowers",
    "divisorChain"; params holds the generator arguments (for the power
    kinds, one, two or three pairwise coprime bases).
    """

    kind: str
    params: tuple[int, ...]
    M: tuple[int, ...]
    mode: str = "infinite"

    @staticmethod
    def explicit(ds: Iterable[int], M: Iterable[int], mode: str = "infinite") -> "APSpec":
        return APSpec("explicit", tuple(sorted(set(ds))), tuple(sorted(set(M))), mode)

    @staticmethod
    def powers(t: int, M: Iterable[int], mode: str = "infinite") -> "APSpec":
        return APSpec("powers", (t,), tuple(sorted(set(M))), mode)

    @staticmethod
    def bi_powers(p: int, q: int, M: Iterable[int], mode: str = "infinite") -> "APSpec":
        return APSpec("biPowers", (p, q), tuple(sorted(set(M))), mode)

    @staticmethod
    def tri_powers(p1: int, p2: int, p3: int, M: Iterable[int], mode: str = "infinite") -> "APSpec":
        return APSpec("triPowers", (p1, p2, p3), tuple(sorted(set(M))), mode)

    @staticmethod
    def divisor_chain(chain: Iterable[int], M: Iterable[int], mode: str = "infinite") -> "APSpec":
        return APSpec("divisorChain", tuple(chain), tuple(sorted(set(M))), mode)

    def __post_init__(self):
        if self.mode not in ("finite", "infinite"):
            raise ValueError("mode must be 'finite' or 'infinite'")
        if any(m < 0 for m in self.M):
            raise ValueError("M must contain naturals")
        k, ps = self.kind, self.params
        if k == "explicit":
            if any(d < 1 for d in ps):
                raise ValueError("explicit differences must be positive")
        elif k in _POWER_KINDS:
            count = _POWER_KINDS.index(k) + 1
            if (len(ps) != count or any(b < 2 for b in ps)
                    or any(gcd(a, b) != 1 for a, b in combinations(ps, 2))):
                raise ValueError(f"{k} needs {count} pairwise coprime base(s) >= 2, got {list(ps)}")
        elif k == "divisorChain":
            prev = 1
            for d in ps:
                if d <= prev or d % prev != 0:
                    raise ValueError("chain must be strictly increasing, each dividing the next")
                prev = d
        else:
            raise ValueError(f"unknown generator kind {k!r}")


def enumerate_differences(spec: APSpec, bound: int) -> list[int]:
    """All elements of D that are <= bound, ascending, duplicate-free.

    1 is always in D for the power-style generators (empty exponents) and
    for divisorChain (d_0 = 1 implicit).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    k, ps = spec.kind, spec.params
    out: set[int] = set()
    if k == "explicit":
        out = {d for d in ps if d <= bound}
    elif k in _POWER_KINDS:
        out = {1}
        for b in ps:  # times each power of b, every product of the bases before it
            for v in list(out):
                v *= b
                while v <= bound:
                    out.add(v)
                    v *= b
    elif k == "divisorChain":
        out = {1} | {d for d in ps if d <= bound}
    return sorted(out)


def sorted_naturals(s_vertices: Iterable[int]) -> list[int]:
    """The vertex values S ascending without repeats; a negative one is an
    error."""
    svals = sorted(set(s_vertices))
    if svals and svals[0] < 0:
        raise ValueError("S must contain naturals")
    return svals


def a0_admissible(a0: int, d: int, M: Iterable[int]) -> bool:
    """True iff some m >= 0 has a0 - m*d in M, i.e. some mu in M with
    mu <= a0 and a0 = mu (mod d)."""
    if a0 < 0 or d < 1:
        raise ValueError("need a0 >= 0 and d >= 1")
    return any(mu <= a0 and (a0 - mu) % d == 0 for mu in M)


class APEdgeLabel(NamedTuple):
    """Provenance of an edge: start a0, difference d, finite length in steps
    (None marks an infinite progression). A named tuple, because a build
    makes one per edge and a tuple is the cheapest immutable record."""

    a0: int
    d: int
    length: Optional[int]


def build_ap_hypergraph(
    s_vertices: Iterable[int], spec: APSpec
) -> tuple[Hypergraph, list[int], dict[tuple[int, ...], APEdgeLabel]]:
    """Hypergraph on S (sorted ascending; vertex i is labels[i]) plus a map
    from each edge to one witnessing progression label.

    Differences ascend, and for each the admissible starts a0 (those in
    mu + d*N for some mu in M) ascend; an edge keeps the label of the first
    progression that gives it, the full intersection before its prefixes.
    The starts of one residue class mod d are those from its least offset
    on, so there is one range per class. Vertex indices grow with the
    values, so each intersection and each of its prefixes is already a
    sorted edge."""
    svals = sorted_naturals(s_vertices)
    if not svals:
        raise ValueError("S must be nonempty")
    index = {v: i for i, v in enumerate(svals)}
    top = svals[-1]
    diffs = enumerate_differences(spec, max(top, 1))
    edges: dict[tuple[int, ...], APEdgeLabel] = {}
    ms_down = sorted(spec.M, reverse=True)
    for d in diffs:
        least = {mu % d: mu for mu in ms_down}  # the last write is the least
        starts = sorted(a0 for mu in least.values() for a0 in range(mu, top + 1, d))
        for a0 in starts:
            full = tuple([index[v] for v in range(a0, top + 1, d) if v in index])
            if not full:
                continue
            if full not in edges:
                edges[full] = APEdgeLabel(a0, d, None)
            if spec.mode == "finite":
                for ln in range(len(full)):
                    prefix = full[: ln + 1]
                    if prefix not in edges:
                        edges[prefix] = APEdgeLabel(a0, d, (svals[full[ln]] - a0) // d)
    return _unchecked(Hypergraph, n=len(svals), edges=tuple(sorted(edges))), svals, edges


def expand_label(label: APEdgeLabel, s_vertices: Iterable[int]) -> tuple[int, ...]:
    """Re-expand a stored label against S; returns the member values."""
    svals = sorted(set(s_vertices))
    hi = svals[-1] if label.length is None else label.a0 + label.length * label.d
    sset = set(svals)
    return tuple(v for v in range(label.a0, hi + 1, label.d) if v in sset)
