"""Finite hypergraph algebra: the restriction H_>=m and the validity
checks for polychromatic colorings and shallow hitting sets.

Edges are stored sorted and deduplicated (set semantics). A Hypergraph
built directly may hold the empty edge; only `Hypergraph.from_edges` drops
empty edges, and the hitting solver and `min_shallow_c` handle them. All
operations are pure functions on immutable values.

Validation happens once, where data enters from outside the program: the
public constructors `Hypergraph(n, edges)` and `VertexSet(members)` check
everything, `Hypergraph.from_edges` canonicalises each edge (a strictly
increasing tuple is taken as it is) and range-checks it as it goes,
`VertexSet.of` sorts and deduplicates what is not strictly increasing,
and `formats` and `geometry.rat` check documents and coordinates. A
producer whose output is canonical by construction (`restrict_at_least`
here, `geometry.capture_edges`, `apgraphs.build_ap_hypergraph`) builds its
value with `_unchecked`, which skips the second check.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import ge, lt
from typing import Iterable, Union

Edge = tuple[int, ...]


def _unchecked(cls, **fields):
    """A frozen `Hypergraph` or `VertexSet` with the given fields, built
    without `__post_init__`. The caller guarantees what that would check:
    a VertexSet's members are strictly increasing; a Hypergraph's edges
    are each strictly increasing, with every vertex in [0, n), and the
    edge tuple is strictly increasing (canonical order, no repeats).
    The fields are set one by one, as the dataclass `__init__` does:
    touching `obj.__dict__` would give each instance a dict of its own,
    about 150 bytes more."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Hypergraph:
    """n vertices (indices 0..n-1) plus a canonically sorted edge tuple."""

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = set()
        for e in edges:
            # a strictly increasing tuple is its own canonical form
            if type(e) is not tuple or not all(map(lt, e, e[1:])):
                e = tuple(sorted(set(e)))
            if e:
                if e[0] < 0 or e[-1] >= n:
                    raise ValueError(f"edge {e} has a vertex outside [0, {n})")
                canon.add(e)
        return _unchecked(Hypergraph, n=n, edges=tuple(sorted(canon)))

    def __post_init__(self):
        # sorted and duplicate-free means strictly increasing pairwise
        for e in self.edges:
            if any(map(ge, e, e[1:])):
                raise ValueError(f"edge {e} is not sorted/deduplicated")
            # sorted, so its ends bound every vertex
            if e and (e[0] < 0 or e[-1] >= self.n):
                raise ValueError(f"edge {e} has a vertex outside [0, {self.n})")
        if any(map(ge, self.edges, self.edges[1:])):
            raise ValueError("edge list is not canonically sorted")

    @property
    def max_edge_size(self) -> int:
        return max((len(e) for e in self.edges), default=0)


@dataclass(frozen=True)
class ColorAssignment:
    """Vertex coloring with k colors, entries in [0, k)."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one color")
        if self.colors and (min(self.colors) < 0 or max(self.colors) >= self.k):
            raise ValueError("color out of range")


@dataclass(frozen=True)
class VertexSet:
    """Sorted duplicate-free vertex indices."""

    members: tuple[int, ...]

    @staticmethod
    def of(items: Iterable[int]) -> "VertexSet":
        """The set of `items`, in any order and with repeats; a strictly
        increasing input is taken as it is."""
        t = tuple(items)
        if not all(map(lt, t, t[1:])):
            t = tuple(sorted(set(t)))
        return _unchecked(VertexSet, members=t)

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and duplicate-free")

    def __contains__(self, v: int) -> bool:
        """Membership by bisection of the sorted members."""
        i = bisect_left(self.members, v)
        return i < len(self.members) and self.members[i] == v

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete violating edge.

    kind is one of "missing-color" (detail = the absent color),
    "zero-hit" (detail = 0), "overflow" (detail = |e cap U|).
    """

    edge: Edge
    kind: str
    detail: int

    def __post_init__(self):
        if self.kind not in ("missing-color", "zero-hit", "overflow"):
            raise ValueError(f"unknown witness kind {self.kind!r}")


CheckResult = Union[bool, ViolationWitness]


def restrict_at_least(h: Hypergraph, m: int) -> Hypergraph:
    """Keep exactly the edges of size >= m; n unchanged."""
    return _unchecked(Hypergraph, n=h.n, edges=tuple(e for e in h.edges if len(e) >= m))


def is_polychromatic(h: Hypergraph, chi: ColorAssignment) -> CheckResult:
    """True iff every edge sees all k colors; else the first violating edge
    (edges are canonically ordered) with its smallest missing color."""
    if len(chi.colors) != h.n:
        raise ValueError("coloring length does not match vertex count")
    full = (1 << chi.k) - 1
    bit = [1 << c for c in chi.colors]  # each vertex's colour as a bit
    for e in h.edges:
        seen = 0
        for v in e:
            seen |= bit[v]
        if seen != full:
            for c in range(chi.k):
                if not (seen >> c) & 1:
                    return ViolationWitness(e, "missing-color", c)
    return True


def is_shallow_hitting(h: Hypergraph, u: VertexSet, c: int) -> CheckResult:
    """True iff 1 <= |e cap u| <= c for every edge; else first violator."""
    if c < 1:
        raise ValueError("c must be positive")
    if u.members and (u.members[0] < 0 or u.members[-1] >= h.n):
        raise IndexError("vertex set not contained in [0, n)")
    hit = set(u.members).intersection
    for e in h.edges:
        hits = len(hit(e))
        if hits == 0:
            return ViolationWitness(e, "zero-hit", 0)
        if hits > c:
            return ViolationWitness(e, "overflow", hits)
    return True
