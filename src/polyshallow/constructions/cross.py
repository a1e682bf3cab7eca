"""Cross-union (horizontal plus vertical strip) lower bound: 8 clusters
arranged so every 3 of them are exactly separable by one cross."""
from __future__ import annotations

from fractions import Fraction

from ..core import ColorAssignment, ViolationWitness
from ..geometry import CROSS_UNION, PointSet, capture_contains
from .instance import ConstructionInstance, FalsifierAbort, copies_per_base

_CENTERS = ((1, 2), (2, 4), (3, 1), (4, 3), (5, -2), (6, 0), (7, -3), (8, -1))


def build_cross_lb(k: int) -> ConstructionInstance:
    """8 clusters of ceil(3k/4)-1 points each at the fixed centers, with
    tight diagonal jitter keeping all coordinates globally distinct. The
    first point of the first cluster has no jitter and int coordinates."""
    if k < 2:
        raise ValueError("k must be >= 2")
    t = copies_per_base(k)
    pts: list[tuple[int | Fraction, int | Fraction]] = []
    groups: dict[str, tuple[int, ...]] = {}
    for ci, (cx, cy) in enumerate(_CENTERS):
        idxs = []
        for r in range(t):
            step = r * 8 + ci  # distinct across clusters too
            jit = Fraction(step, 100 * t) if step else 0
            pts.append((cx + jit, cy + jit))
            idxs.append(len(pts) - 1)
        groups[f"cluster_{ci}"] = tuple(idxs)
    return ConstructionInstance(
        "thm5", PointSet.of(pts, dim=2), CROSS_UNION, {"k": k, "copies": t}, groups
    )


def witness_cross(
    k: int, coloring: ColorAssignment, inst: ConstructionInstance | None = None
) -> ViolationWitness:
    """Any k-coloring leaves a common color absent from 3 clusters; their
    union is a cross-captured edge of size 3*(ceil(3k/4)-1) missing it."""
    if inst is None:
        inst = build_cross_lb(k)
    if coloring.k != k:
        raise ValueError(f"coloring has k = {coloring.k} colors, not k = {k}")
    t = inst.params["copies"]
    if len(coloring.colors) != 8 * t:
        raise ValueError("coloring length does not match the instance")
    absent: list[set[int]] = []
    for ci in range(8):
        seen = {coloring.colors[v] for v in inst.group(f"cluster_{ci}")}
        absent.append(set(range(k)) - seen)
    for color in range(k):
        holders = [ci for ci in range(8) if color in absent[ci]]
        if len(holders) >= 3:
            picked = holders[:3]
            edge = tuple(sorted(sum((inst.group(f"cluster_{ci}") for ci in picked), ())))
            if not capture_contains(inst.points, CROSS_UNION, edge):
                raise FalsifierAbort(f"clusters {picked} are not cross-separable")
            return ViolationWitness(edge, "missing-color", color)
    raise FalsifierAbort("no color absent from three clusters; pigeonhole failed")
