"""Dual-strip lower bound: copies of four base strips whose pairwise
private cells force a non-polychromatic edge under any coloring."""
from __future__ import annotations

from fractions import Fraction

from ..core import ColorAssignment, Hypergraph, ViolationWitness
from ..geometry import Strip, dual_strips_hypergraph
from .instance import FalsifierAbort, copies_per_base

# base strips: V1 = x in (0,2), V2 = x in (1,3), H1 = y in (0,2), H2 = y in (1,3)
_BASES = (("x", 0, 2), ("x", 1, 3), ("y", 0, 2), ("y", 1, 3))

# one interior point per pair of bases, outside the other two bases even
# after the copies are widened
_PRIVATE_CELLS = {
    (0, 1): (Fraction(3, 2), Fraction(-1)),
    (0, 2): (Fraction(1, 2), Fraction(1, 2)),
    (0, 3): (Fraction(1, 2), Fraction(5, 2)),
    (1, 2): (Fraction(5, 2), Fraction(1, 2)),
    (1, 3): (Fraction(5, 2), Fraction(5, 2)),
    (2, 3): (Fraction(-1), Fraction(3, 2)),
}


def _copies(t: int) -> tuple[Strip, ...]:
    """t copies of each base strip, base by base, nested outward by
    distinct tiny rational offsets so every intersection pattern of the
    bases is preserved. The first copy is the base itself, with int
    bounds."""
    offsets = [0] + [Fraction(r, 8 * (t + 1)) for r in range(1, t)]
    return tuple(Strip(axis, lo - d, hi + d) for axis, lo, hi in _BASES for d in offsets)


def build_dual_strip_lb(k: int) -> tuple[list[Strip], Hypergraph, dict]:
    """ceil(3k/4)-1 copies of each base strip (`_copies`); returns the
    strips, their dual hypergraph, and the groups (base index -> strip
    indices)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    t = copies_per_base(k)
    strips = list(_copies(t))
    groups = {b: tuple(range(b * t, (b + 1) * t)) for b in range(len(_BASES))}
    return strips, dual_strips_hypergraph(strips), {"k": k, "copies": t, "groups": groups}


def witness_dual_strip(
    k: int, coloring: ColorAssignment, meta: dict | None = None
) -> ViolationWitness:
    """Any k-coloring of the strips leaves some color absent from the
    copies of two base strips; the stabbed edge of their private cell
    (all copies of both) misses that color. The edge is re-checked: it
    must be the set of strips that contain the private cell."""
    if meta is None:
        _, _, meta = build_dual_strip_lb(k)
    if coloring.k != k:
        raise ValueError(f"coloring has k = {coloring.k} colors, not k = {k}")
    t = meta["copies"]
    groups = meta["groups"]
    if len(coloring.colors) != 4 * t:
        raise ValueError("coloring length does not match the strip count")
    absent: list[set[int]] = []
    for b in range(4):
        seen = {coloring.colors[i] for i in groups[b]}
        absent.append(set(range(k)) - seen)
        if len(absent[b]) * 4 <= k - 4:  # sanity: each base misses > k/4 colors
            raise FalsifierAbort("pigeonhole bound violated; bad copy count")
    for color in range(k):
        holders = [b for b in range(4) if color in absent[b]]
        if len(holders) >= 2:
            b1, b2 = holders[0], holders[1]
            edge = tuple(sorted(groups[b1] + groups[b2]))
            cell = _PRIVATE_CELLS[(b1, b2)]
            if edge != tuple(i for i, s in enumerate(_copies(t)) if s.contains(*cell)):
                raise FalsifierAbort(f"the private cell of bases {b1} and {b2} is not their edge")
            return ViolationWitness(edge, "missing-color", color)
    raise FalsifierAbort("no color absent from two bases; pigeonhole failed")
