"""No-2-shallow-hitting-set construction for axis-parallel strips and its
falsifier.

Sizes: m = 3a + b/2 - 1 and nB = m - 2a (``GadgetParams``). Every row i
holds one point x_i of script-X, three 2a-sets X_{i,1..3} and the gadget
groups B, C (nB each), E, F (a - b/2), H (b), G (b - 2) and D, I, J, K
(one point each) of gadgets (i, 1..3); 6m + 3b + 7 points per row.
Coordinates are integers, globally distinct in x and in y.

x order (west to east): for each row, the super-strip of gadget (i, 1),
then the low region, then the pad; after all rows the script-X slab.

- super-strip (i, 1):  G D I J K | E H F | B_1 | X_1 | C_1
- low region:          E_3 H_3 F_3 | E_2 H_2 F_2 | B_2 | X_2 | X_3 | C_3 |
                       B_3 G_3 D_3 I_3 J_3 K_3
- pad:                 C_2 G_2 D_2 I_2 J_2 K_2
- script-X slab:       x_{m-1} .. x_0 (a NW diagonal), so chi is a strip.

X_3 is split by role: X_3[:a] is S_up, X_3[a] is sigma, X_3[a+1:] with
sigma is S_lo.

y order inside row i (bottom to top):

    pad | low zone | S_lo | X_2 | x_i | X_1 | S_up | top zone

The low zone is every non-X point of the low region, the top zone every
non-X point of super-strip (i, 1). Rows are stacked in y.

Proof that H_{=m} has no 2-shallow hitting set S (m = 22, so b = 4 and
the band S_lo..S_up holds exactly m - 1 points on each side of x_i):

1. chi is an exact-m vertical strip, so some x_i is in S.
2. Every y-window through x_i has at most one further hit, so the m - 1
   points below x_i (S_lo, X_2) hold h_b <= 1 hits, the m - 1 above
   (X_1, S_up) hold h_a <= 1, and two such hits are >= m apart in y.
3. X_1 clean. The top zone, S_up, X_1 and x_i are y-consecutive and the
   super-strip is x-consecutive; no set with X_1 clean and x_i in S meets
   all their exact-m windows with 1 or 2 points (certificate A).
4. X_1 hit. Then S_up is clean by 2. If X_2 is clean, the x-window
   X_2 + S_up + sigma forces sigma, and S_lo minus sigma is clean by 2
   (case ii). If X_2 is hit, its hit lies among the a lowest points of
   X_2, because the hit of X_1 is >= m above it; that forces the whole of
   X_3 clean, and the x-run X_2[a..] + X_3 of length m - 1 pins the hit
   to X_2[a - 1] and C_3[0] (case iii). In both cases no set meets every
   exact-m window of the low region in x and of the low zone, S_lo, X_2
   and x_i in y (certificate B).

Certificates A and B come from a computer search over the y orders of
the two zones, checked by enumerating every set that meets the x-windows;
``tests/test_constructions.py`` checks the whole argument again with the
exact solver on the row sub-instance (the points of one row and the
exact-m windows of H_{=m} inside them, x_i forced in).

The zone, X_1, S_lo and X_2 orders are those patterns, drawn for m = 22.
For other m the builder stretches each pattern over the group sizes
(rank interpolation), which keeps the arrangement and the steps 1, 2 and
the forcing in 4, but certificates A and B are not known to hold there.
m = 22 is the only certified m (``CERTIFIED_M``). Below theorem scale,
and at theorem-scale m other than 22, the instance may admit 2-shallow
hitting sets: the row sub-instances at m = 25 and m = 28 have them. The
builder therefore sets ``theorem_scale`` only at a certified m and warns
at every other m; the falsifier warns on an uncertified instance. The
falsifier is exact for every m:
it walks the steps above and ends with a scan of every exact-m vertical
and horizontal window, which together are exactly the edges of H_{=m},
so it aborts only on a genuine 2-shallow hitting set.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from ..core import ViolationWitness, VertexSet
from ..geometry import STRIPS, PointSet
from .instance import ConstructionInstance, FalsifierAbort, checked_witness


@dataclass(frozen=True)
class GadgetParams:
    """Derived sizes of the strip gadget."""

    m: int
    a: int
    b: int

    @staticmethod
    def for_m(m: int) -> "GadgetParams":
        a = -(-m // 3) - 1
        b = {0: 8, 1: 4, 2: 6}[m % 3]
        if m != 3 * a + b // 2 - 1:
            raise ValueError(f"m={m} does not satisfy m = 3a + b/2 - 1")
        if a - b // 2 < 1 or b - 2 < 1:
            raise ValueError(f"m={m} gives degenerate group sizes (a={a}, b={b})")
        return GadgetParams(m, a, b)

    @property
    def theorem_scale(self) -> bool:
        return self.m >= 5 * self.b

    @property
    def nB(self) -> int:
        return self.m - 2 * self.a

    @property
    def sizes(self) -> dict:
        a, b = self.a, self.b
        return {"X": 2 * a, "B": self.nB, "C": self.nB, "E": a - b // 2,
                "F": a - b // 2, "H": b, "G": b - 2, "D": 1, "I": 1,
                "J": 1, "K": 1}


# m whose row sub-instance the exact solver proves to have no 2-shallow
# hitting set (tests/test_constructions.py, test_thm4_row_certificate)
CERTIFIED_M = frozenset({22})


def _warn_uncertified(m: int) -> None:
    warnings.warn(
        f"strips construction at m={m} has no row certificate (certified: "
        f"m in {sorted(CERTIFIED_M)}); its H_=m may admit 2-shallow hitting sets",
        UserWarning,
        stacklevel=3,
    )


# Certified y orders at m = 22 (bottom to top). A token is a letter and an
# index into a group: top-zone letters name the groups of gadget (i, 1),
# low-zone letters are mapped by _LOW_TOKENS.
_TOP_ZONE = ("I0 G1 H0 G0 E4 E2 F3 F4 E1 C7 H1 H3 E0 J0 F0 K0 H2 F1 E3 C6 C5 "
             "B5 B7 B6 F2 C3 C0 C1 C4 B0 B3 C2 B4 B1 B2 D0")
_TOP_X = "X9 X6 X1 X3 X8 X11 X2 X4 X12 X7 X0 X5 X10 X13"  # X_1, listed top down
_LOW_ZONE = ("k0 i0 B0 g1 B4 B1 B3 B2 B5 B6 f1 f2 h1 e2 e1 e3 E0 h3 F4 f0 h2 H0 "
             "C0 f3 H1 E2 H2 F2 F0 F3 H3 F1 g0 j0 d0 C2 b6 B7 h0 C5 C1 e4 C7 e0 "
             "b3 E4 f4 E3 E1 C6 b7 C3 b4 b0 b5 b2 C4 b1")
_LOW_SLO = "s0 R5 R3 R2 R0 R4 R1"  # s0 = sigma, R = X_3[a + 1:]
_LOW_X2 = "L0 L3 L4 L2 L5 L1 L6 U6 U2 U1 U4 U3 U5 U0"  # L = X_2[:a], U = X_2[a:]
_LOW_TOKENS = {"E": ("E", 2), "H": ("H", 2), "F": ("F", 2), "B": ("B", 2), "C": ("C", 3),
               "e": ("E", 3), "h": ("H", 3), "f": ("F", 3), "b": ("B", 3), "g": ("G", 3),
               "d": ("D", 3), "i": ("I", 3), "j": ("J", 3), "k": ("K", 3)}


# x order of one row: super-strip (i, 1), low region, pad; (group, gadget)
_TOP_COLUMNS = tuple((g, 1) for g in "GDIJKEHFBXC")
_LOW_COLUMNS = (("E", 3), ("H", 3), ("F", 3), ("E", 2), ("H", 2), ("F", 2), ("B", 2),
                ("X", 2), ("X", 3), ("C", 3), ("B", 3), ("G", 3), ("D", 3), ("I", 3),
                ("J", 3), ("K", 3))
_PAD_COLUMNS = (("C", 2), ("G", 2), ("D", 2), ("I", 2), ("J", 2), ("K", 2))


def _stretch(pattern: str, sizes: dict) -> list[tuple[str, int]]:
    """Lay a y order drawn at m = 22 over blocks of the given sizes: block
    member j takes the rank of the pattern member at the same relative
    position. At m = 22 this is the pattern itself."""
    ref: dict = {}
    for rank, tok in enumerate(pattern.split()):
        ref.setdefault(tok[0], {})[int(tok[1:])] = rank
    keyed = []
    for blk, n in sizes.items():
        ranks = ref[blk]
        for j in range(n):
            # round half to even, on the exact quotient
            jj = round(Fraction(j * (len(ranks) - 1), n - 1)) if n > 1 else 0
            keyed.append((ranks[jj], j, blk))
    keyed.sort()
    return [(blk, j) for _, j, blk in keyed]


def build_strip_no2shs(m: int) -> ConstructionInstance:
    """Strips instance of m rows, one per point of script-X, laid out as in
    the module docstring; valid m satisfy m = 3a + b/2 - 1. m = 22 is the
    smallest theorem scale and the only certified m. Every other valid m
    is built with theorem_scale False and a warning: its instance may
    admit 2-shallow hitting sets (the row sub-instances at m = 25 and 28
    have them)."""
    gp = GadgetParams.for_m(m)
    if m not in CERTIFIED_M:
        _warn_uncertified(m)
    a, b = gp.a, gp.b
    sz = gp.sizes
    top_zone = _stretch(_TOP_ZONE, {g: sz[g] for g, _ in _TOP_COLUMNS if g != "X"})
    top_band = _stretch(_TOP_X, {"X": 2 * a})[::-1]
    low_zone = _stretch(_LOW_ZONE, {k: sz[g] for k, (g, _) in _LOW_TOKENS.items()})
    s_lo = _stretch(_LOW_SLO, {"s": 1, "R": a - 1})
    x2 = _stretch(_LOW_X2, {"L": a, "U": a})

    columns = _TOP_COLUMNS + _LOW_COLUMNS + _PAD_COLUMNS
    row_width = sum(sz[g] for g, _ in columns)
    row_height = 6 * m + 3 * b + 7
    # row 0, laid out once: the x of each (group, gadget, index) and the y
    # order. A row holds row_height points and vertex indices follow y, so
    # the point at place y of row i is vertex i * row_height + y.
    xs: dict = {}
    for g, j in columns:
        for t in range(sz[g]):
            xs[(g, j, t)] = len(xs)
    y_order = [(g, j, t) for g, j in _PAD_COLUMNS for t in range(sz[g])]
    y_order += [_LOW_TOKENS[blk] + (t,) for blk, t in low_zone]
    y_order += [("X", 3, a if blk == "s" else a + 1 + t) for blk, t in s_lo]
    y_order += [("X", 2, t if blk == "L" else a + t) for blk, t in x2]
    y_chi = len(y_order)
    y_order.append(("chi",))
    y_order += [("X", 1, t) for _, t in top_band]
    y_order += [("X", 3, t) for t in range(a)]
    y_order += [(blk, 1, t) for blk, t in reversed(top_zone)]
    members: dict = {}  # (group, gadget) -> [(index, y)]
    for y, key in enumerate(y_order):
        if y != y_chi:
            members.setdefault(key[:2], []).append((key[2], y))
    row_x = [xs.get(key, 0) for key in y_order]  # chi is placed per row
    row_groups = {gj: [y for _, y in sorted(ys)] for gj, ys in members.items()}

    # row i is row 0 moved by i * row_width in x and i * row_height in y;
    # its x_i goes to the script-X slab east of every row
    pts: list[tuple[int, int]] = []
    named: dict[str, tuple[int, ...]] = {}
    for i in range(m):
        dx, dy = i * row_width, i * row_height
        row = [(dx + x, dy + y) for y, x in enumerate(row_x)]
        row[y_chi] = (m * row_width + (m - 1 - i), dy + y_chi)
        pts += row
        for (g, j), ys in row_groups.items():
            named[f"{g}_{i}_{j}"] = tuple(dy + y for y in ys)
    named["chi"] = tuple(i * row_height + y_chi for i in range(m))
    return ConstructionInstance(
        "thm4",
        PointSet.of(pts, dim=2),
        STRIPS,
        {"m": m, "a": a, "b": b},
        named,
        theorem_scale=m in CERTIFIED_M,
    )


# ---------------------------------------------------------------------------
# Falsifier
# ---------------------------------------------------------------------------

def _window_scan(order: tuple[int, ...], sset: frozenset, m: int, lo: int, hi: int):
    """Yield (hits, window) for every exact-m window of order[lo:hi],
    using prefix sums for O(1) hit counts."""
    pref = [0]
    for v in order[lo:hi]:
        pref.append(pref[-1] + (1 if v in sset else 0))
    for t in range(hi - lo - m + 1):
        yield pref[t + m] - pref[t], order[lo + t : lo + t + m]


def falsify_strips(inst: ConstructionInstance, s: VertexSet) -> ViolationWitness:
    """Return an exact-m strips edge with 0 or >= 3 points of s, following
    the steps of the module docstring. On an uncertified instance it warns,
    since an abort there may be a genuine 2-shallow hitting set."""
    if inst.kind != "thm4":
        raise ValueError("not a thm4 instance")
    m = inst.params["m"]
    if not inst.theorem_scale:
        _warn_uncertified(m)
    sset = frozenset(s.members)
    chi = inst.group("chi")
    chi_hits = [v for v in chi if v in sset]
    if not chi_hits:
        return checked_witness(inst, chi, 0, m, 2)
    if len(chi_hits) >= 3:
        return checked_witness(inst, chi, len(chi_hits), m, 2)

    pts = inst.points
    by_x, by_y = pts.orders[0][0], pts.orders[1][0]

    def span(axis, members):
        """Places of the first and last members in the axis order."""
        r = pts.ranks[axis]
        return (pts.position(axis, min((r[v], v) for v in members)[1]),
                pts.position(axis, max((r[v], v) for v in members)[1]))

    def violated(order, lo, hi):
        for hits, window in _window_scan(order, sset, m, lo, hi):
            if hits == 0 or hits >= 3:
                return checked_witness(inst, window, hits, m, 2)
        return None

    def x_violated(members):
        lo, hi = span(0, members)
        return violated(by_x, lo, hi + 1)

    xi = chi_hits[0]
    i = chi.index(xi)
    r = pts.position(1, xi)
    g = lambda name, j: inst.group(f"{name}_{i}_{j}")
    # step 2: the y-windows through x_i
    w = violated(by_y, max(0, r - m + 1), min(len(by_y), r + m))
    if w is not None:
        return w
    if not any(v in sset for v in g("X", 1)):
        # step 3: x_i up to the top zone in y; super-strip (i, 1) in x
        strip = [v for name, j in _TOP_COLUMNS for v in g(name, j)]
        w = violated(by_y, r, span(1, strip)[1] + 1) or x_violated(strip)
    else:
        # step 4: the low zone up to x_i in y; the low region in x
        region = [v for name, j in _LOW_COLUMNS for v in g(name, j)]
        w = violated(by_y, span(1, region)[0], r + 1) or x_violated(region)
    if w is not None:
        return w
    # complete fallback: every exact-m vertical and horizontal window
    for order in (by_x, by_y):
        w = violated(order, 0, len(order))
        if w is not None:
            return w
    raise FalsifierAbort(
        "no violated exact-m window: the candidate is a 2-shallow hitting set"
    )
