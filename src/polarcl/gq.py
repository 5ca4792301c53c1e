"""Generalised quadrangles: the rank-2 layer, tight sets, and duality.

A GQ of order (s,t) is a point-line geometry where every line has s+1
points, every point is on t+1 lines, two points are on at most one line,
and for P not on l there is exactly one point of l collinear with P.
The classical ones arise from the rank-2 polar spaces; abstract incidence
lists are accepted as well and validated against the axioms.

Cameron-Liebler sets of lines of a GQ dualise to tight sets of points of
the dual GQ: T is i-tight when |P^perp ^ T| = s + i for P in T and = i
otherwise (P^perp includes P).  An i-tight set has exactly i(s+1) points.
"""

from __future__ import annotations

from .enumeration import PolarSpace
from .linalg import _bits


class GQError(ValueError):
    pass


class GQ:
    """A generalised quadrangle as incidence lists, with bitmask caches."""

    def __init__(self, lines: list[tuple[int, ...]], n_points: int,
                 name: str = "GQ"):
        self.name = name
        self.n_points = n_points
        self.lines = [tuple(sorted(l)) for l in lines]
        self.n_lines = len(self.lines)
        self.line_masks = [sum(1 << p for p in l) for l in self.lines]
        self.point_lines = [0] * n_points
        for i, l in enumerate(self.lines):
            for p in l:
                self.point_lines[p] |= 1 << i
        sizes = {len(l) for l in self.lines}
        degs = {m.bit_count() for m in self.point_lines}
        if len(sizes) != 1 or len(degs) != 1:
            raise GQError("not an order-(s,t) geometry: irregular sizes")
        self.s = sizes.pop() - 1
        self.t = degs.pop() - 1
        # collinearity masks, P^perp including P
        self.perp = [0] * n_points
        for p in range(n_points):
            m = 1 << p
            for li in _bits(self.point_lines[p]):
                m |= self.line_masks[li]
            self.perp[p] = m
        self.validate()

    def validate(self):
        """The three axioms, checked exhaustively."""
        for i in range(self.n_lines):
            for j in range(i + 1, self.n_lines):
                common = self.line_masks[i] & self.line_masks[j]
                if common.bit_count() > 1:
                    raise GQError("two lines share two points")
        for p in range(self.n_points):
            for li in range(self.n_lines):
                if (self.line_masks[li] >> p) & 1:
                    continue
                hits = (self.perp[p] & self.line_masks[li]).bit_count()
                if hits != 1:
                    raise GQError(
                        f"axiom failure: point {p}, line {li}: {hits} collinear points")
        expect_pts = (self.s + 1) * (self.s * self.t + 1)
        expect_lns = (self.t + 1) * (self.s * self.t + 1)
        if self.n_points != expect_pts or self.n_lines != expect_lns:
            raise GQError("point/line totals do not match the order")

    @property
    def order(self) -> tuple[int, int]:
        return self.s, self.t

    def dual(self) -> "GQ":
        """Interchange points and lines; the dual has order (t,s)."""
        dual_lines = [tuple(_bits(self.point_lines[p]))
                      for p in range(self.n_points)]
        return GQ(dual_lines, self.n_lines, name=self.name + "^D")

    @classmethod
    def from_polar(cls, space: PolarSpace) -> "GQ":
        if space.d != 2:
            raise GQError(f"{space.name()} is not a generalised quadrangle")
        lines = [tuple(_bits(pm)) for pm in space.gen_point_masks]
        return cls(lines, len(space.points), name=space.name())


# -- tight sets -----------------------------------------------------------------


def tight_parameter(gq: GQ, point_mask: int):
    """The i for which the set could be i-tight (|T| = i(s+1)), or None."""
    size = point_mask.bit_count()
    if size % (gq.s + 1):
        return None
    return size // (gq.s + 1)


def tight_set_test(gq: GQ, point_mask: int, i: int | None = None):
    """Verify |P^perp ^ T| = s+i or i according to membership.

    Returns (verdict, i, witness).
    """
    if i is None:
        i = tight_parameter(gq, point_mask)
        if i is None:
            return False, None, "size not divisible by s+1"
    for p in range(gq.n_points):
        got = (gq.perp[p] & point_mask).bit_count()
        expect = gq.s + i if (point_mask >> p) & 1 else i
        if got != expect:
            return False, i, p
    return True, i, None


def classify_tight_set(gq: GQ, point_mask: int, i: int):
    """Label a verified i-tight set: line union, subquadrangle, or other.

    "line-union": the point set of i pairwise disjoint lines.
    "subquadrangle": together with the lines fully inside it, a subGQ of
    order (s/t, t) (only possible at i = s/t + 1).  Its lines are the
    mask `part` of lines with s/t + 1 points in T: each point of T is on
    t + 1 of them, and each point off T on at most one, so that no two
    part lines meet outside T.
    """
    inside = [li for li in range(gq.n_lines)
              if gq.line_masks[li] & ~point_mask == 0]
    covered = 0
    disjoint = []
    for li in inside:
        if gq.line_masks[li] & covered == 0:
            disjoint.append(li)
            covered |= gq.line_masks[li]
    if covered == point_mask and len(disjoint) == i:
        return "line-union"
    if gq.t and gq.s % gq.t == 0 and i == gq.s // gq.t + 1:
        part = sum(1 << li for li, lm in enumerate(gq.line_masks)
                   if (lm & point_mask).bit_count() == gq.s // gq.t + 1)
        on = [(pl & part).bit_count() for pl in gq.point_lines]
        if part and all(c == gq.t + 1 if point_mask >> p & 1 else c <= 1
                        for p, c in enumerate(on)):
            return "subquadrangle"
    return "other"
