"""No-3-shallow-hitting-set construction for bottomless rectangles and its
proof-derived falsifier.

Layout (integer coordinates, globally distinct in x and y). The baseline
row P_1..P_m sits at the bottom; above (and around) each P_i one gadget
occupies a private vertical slab:

    west -> east:  C_{i,1} ... C_{i,m} | P_i | a_1..a_{m-3} | b_m..b_1 | spare

Heights inside gadget i (one private band, bottom -> top): a_1..a_{m-3},
spare, then b_1, C_{i,1}, b_2, C_{i,2}, ..., b_m, C_{i,m}. So B_i runs on a
northwest diagonal (east-lowest), each C group is a SW-NE diagonal sitting
vertically between consecutive B points, and A_i = {a_1..a_{m-3}, spare}
is an ascending chain whose last point is parked east of B_i below B's
y-range. The spare point makes |A_i| = m-2 with P_i counted separately
(vertex count m^3 + 2m^2 - m) while keeping the case analysis exact: the
case-1 rectangle {P_i} u (A_i minus spare) u {b_j, c} has exactly m points
and at least 4 hits, and every case-2 window edge has exactly m points.
"""
from __future__ import annotations

from ..core import ViolationWitness, VertexSet
from ..geometry import BOTTOMLESS, PointSet
from .instance import ConstructionInstance, FalsifierAbort, checked_witness


def build_bottomless_no3shs(m: int) -> ConstructionInstance:
    """Point set whose size-m bottomless edges admit no 3-shallow hitting
    set (theorem scale m >= 12; smaller m >= 3 accepted but flagged)."""
    if m < 3:
        raise ValueError("m must be at least 3")
    slab = m * m + 2 * m - 1  # points per gadget incl. P_i
    pts: list[tuple[int, int]] = []
    groups: dict[str, tuple[int, ...]] = {}
    p_indices: list[int] = []

    def add(x: int, y: int) -> int:
        pts.append((x, y))
        return len(pts) - 1

    band = m * m + 2 * m - 2  # non-P points per gadget
    for i in range(m):
        x0 = i * slab
        y0 = m + i * band
        ys = iter(range(y0, y0 + band))
        # x slots (west -> east)
        c_slots = [[x0 + (j * m) + t for t in range(m)] for j in range(m)]
        p_slot = x0 + m * m
        a_slots = [x0 + m * m + 1 + t for t in range(m - 3)]
        b_slots = [x0 + m * m + (m - 2) + (m - j) for j in range(1, m + 1)]  # b_j
        spare_slot = x0 + m * m + 2 * m - 2
        # heights (bottom -> top): a's, spare, then b_j / C_{i,j} interleaved
        p_idx = add(p_slot, i)
        a_idx = [add(xs, next(ys)) for xs in a_slots]
        spare_idx = add(spare_slot, next(ys))
        b_idx: list[int] = []
        c_idx: list[list[int]] = []
        for j in range(m):
            b_idx.append(add(b_slots[j], next(ys)))
            c_idx.append([add(xs, next(ys)) for xs in c_slots[j]])
        p_indices.append(p_idx)
        groups[f"A_{i}"] = tuple(a_idx + [spare_idx])
        groups[f"B_{i}"] = tuple(b_idx)
        for j in range(m):
            groups[f"C_{i}_{j + 1}"] = tuple(c_idx[j])
    groups["P"] = tuple(p_indices)
    return ConstructionInstance(
        "thm2",
        PointSet.of(pts, dim=2),
        BOTTOMLESS,
        {"m": m},
        groups,
    )


def falsify_bottomless(inst: ConstructionInstance, s: VertexSet) -> ViolationWitness:
    """Return a size-m bottomless edge with 0 or >= 4 points of s.

    Follows the case analysis: a clean baseline row, a heavy baseline row,
    then (for the lowest hit P_i) either the four-corner rectangle when
    A_i has a hit, or a clean 3-window of B_i joined to A_i minus the
    spare point, or B_i itself which then holds >= ceil(m/3) >= 4 hits.
    """
    if inst.kind != "thm2":
        raise ValueError("not a thm2 instance")
    m = inst.params["m"]
    if not inst.theorem_scale:
        raise ValueError("falsifier requires theorem scale m >= 12")
    sset = frozenset(s.members)
    p = inst.group("P")
    p_hits = [v for v in p if v in sset]
    if not p_hits:
        return checked_witness(inst, p, 0, m, 3)
    if len(p_hits) >= 4:
        return checked_witness(inst, p, len(p_hits), m, 3)
    i = p.index(p_hits[0])
    a = inst.group(f"A_{i}")
    core, spare = a[:-1], a[-1]
    b = inst.group(f"B_{i}")
    core_hits = [v for v in core if v in sset]
    if core_hits:
        # case 1: a second hit beside P_i sits on the A_i diagonal
        b_hits = [j for j, v in enumerate(b) if v in sset]
        if not b_hits:
            return checked_witness(inst, b, 0, m, 3)
        j = b_hits[0]
        c_group = inst.group(f"C_{i}_{j + 1}")
        c_hits = [v for v in c_group if v in sset]
        if not c_hits:
            return checked_witness(inst, c_group, 0, m, 3)
        c = c_hits[0]  # westmost-lowest hit in the group
        edge = (p[i],) + core + (b[j], c)
        hits = sum(1 for v in edge if v in sset)
        return checked_witness(inst, edge, hits, m, 3)
    # case 2: A_i clean beside P_i; scan 3-windows of B_i
    for j in range(m - 2):
        window = b[j : j + 3]
        if not any(v in sset for v in window):
            edge = core + window
            return checked_witness(inst, edge, 0, m, 3)
    hits = sum(1 for v in b if v in sset)
    if hits < 4:
        raise FalsifierAbort(
            f"every 3-window of B_{i} is hit but B_{i} has only {hits} hits"
        )
    return checked_witness(inst, b, hits, m, 3)
