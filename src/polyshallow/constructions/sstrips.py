"""Strip-union lower bound: diagonal copies of a strips instance so the
pigeonhole over copies forces a union edge missing a color."""
from __future__ import annotations

from fractions import Fraction

from ..geometry import PointSet, _maximal_usable_runs, strip_union
from .instance import ConstructionInstance


def build_sstrips_lb(s: int, k: int, base: ConstructionInstance) -> ConstructionInstance:
    """k(s-1)+1 translated copies of a strips instance along a diagonal,
    far enough apart that every original edge stays captured within its
    copy. Groups map copy index to its vertex indices; copy_of maps every
    new vertex back to its original index."""
    if s < 1 or k < 2:
        raise ValueError("need s >= 1 and k >= 2")
    if base.family.tag != "strips":
        raise ValueError("base instance must use the strips family")
    copies = k * (s - 1) + 1
    xs = [pt[0] for pt in base.points.points]
    ys = [pt[1] for pt in base.points.points]
    span_x = max(xs) - min(xs) + 1
    span_y = max(ys) - min(ys) + 1
    pts: list[tuple[Fraction, Fraction]] = []
    groups: dict[str, tuple[int, ...]] = {}
    copy_of: list[int] = []
    for r in range(copies):
        idxs = []
        for v, (x, y) in enumerate(base.points.points):
            pts.append((x + r * span_x, y + r * span_y))
            copy_of.append(v)
            idxs.append(len(pts) - 1)
        groups[f"copy_{r}"] = tuple(idxs)
    return ConstructionInstance(
        "thm6",
        PointSet.of(pts, dim=2),
        strip_union(s),
        {"s": s, "k": k, "copies": copies, "base_n": len(base.points.points),
         "copy_of": tuple(copy_of)},
        groups,
    )


def single_strip_part_at_least(
    points: PointSet, edge: tuple[int, ...], m: int
) -> bool:
    """Pigeonhole invariant: does some single strip capture >= m points of
    the edge while staying inside it? True for every union edge of size
    >= s(m-1)+1 by counting. Checked against maximal within-edge runs."""
    best = 0
    for axis in (0, 1):
        for run in _maximal_usable_runs(points, frozenset(edge), axis):
            best = max(best, len(run))
    return best >= m
