"""Shared construction-instance container and falsifier plumbing."""
from __future__ import annotations

from dataclasses import dataclass
from ..core import ViolationWitness
from ..geometry import PointSet, RangeFamily, capture_contains


class FalsifierAbort(AssertionError):
    """Raised when a falsifier finds no violation: either the construction
    is mis-built or the candidate genuinely is a shallow hitting set.
    Must abort loudly."""


def copies_per_base(k: int) -> int:
    """ceil(3k/4) - 1: the copies of each base strip of the dual-strip
    bound and the points of each cluster of the cross-union bound."""
    return -(-3 * k // 4) - 1


# m whose row sub-instance the exact solver proves to have no 2-shallow
# hitting set (tests/test_constructions.py, test_thm4_row_certificate)
CERTIFIED_M = frozenset({22})


@dataclass(frozen=True)
class ConstructionInstance:
    """Point set plus named vertex groups (index tuples) and parameters."""

    kind: str  # "thm2" | "thm3" | "thm4" | "thm5" | "thm6"
    points: PointSet
    family: RangeFamily
    params: dict
    groups: dict  # name -> tuple of vertex indices

    @property
    def theorem_scale(self) -> bool:
        """True where the construction's claim is proven for this instance:
        thm2 needs m >= 12 and thm4 a certified m; the other kinds claim
        theirs at every size."""
        m = self.params.get("m")
        if self.kind == "thm2":
            return isinstance(m, int) and m >= 12
        if self.kind == "thm4":
            return isinstance(m, int) and m in CERTIFIED_M
        return True

    @property
    def n(self) -> int:
        return len(self.points.points)

    def group(self, name: str) -> tuple[int, ...]:
        return self.groups[name]


def checked_witness(
    inst: ConstructionInstance,
    edge_vertices,
    hits: int,
    m: int,
    max_hits: int,
) -> ViolationWitness:
    """Validate a falsifier result before returning it: the edge must be
    capturable, have size exactly m, and have a hit count outside [1, c]."""
    edge = tuple(sorted(edge_vertices))
    if len(edge) != m:
        raise FalsifierAbort(f"witness edge has size {len(edge)}, wanted {m}")
    if not capture_contains(inst.points, inst.family, edge):
        raise FalsifierAbort(f"witness edge is not capturable: {edge[:8]}...")
    if hits == 0:
        return ViolationWitness(edge, "zero-hit", 0)
    if hits > max_hits:
        return ViolationWitness(edge, "overflow", hits)
    raise FalsifierAbort(f"witness edge has {hits} hits, inside [1, {max_hits}]")
