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

from fractions import Fraction

from .enumeration import PolarSpace
from .linalg import frac_nullspace
from .scheme import _bits


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
        # line disjointness and concurrence masks
        self.line_disjoint = [0] * self.n_lines
        self.line_meets = [0] * self.n_lines
        for i in range(self.n_lines):
            for j in range(self.n_lines):
                if i == j:
                    continue
                if self.line_masks[i] & self.line_masks[j]:
                    self.line_meets[i] |= 1 << j
                else:
                    self.line_disjoint[i] |= 1 << j

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
    order (s/t, t) (only possible at i = s/t + 1).
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
        sub_s = gq.s // gq.t
        part = [li for li in range(gq.n_lines)
                if (gq.line_masks[li] & point_mask).bit_count() == sub_s + 1]
        ok = True
        for p in _bits(point_mask):
            on = sum(1 for li in part if (gq.line_masks[li] >> p) & 1)
            if on != gq.t + 1:
                ok = False
                break
        if ok:
            for a in range(len(part)):
                for b in range(a + 1, len(part)):
                    common = gq.line_masks[part[a]] & gq.line_masks[part[b]]
                    if common and not common & point_mask:
                        ok = False
                        break
                if not ok:
                    break
        if ok and part:
            return "subquadrangle"
    return "other"


# -- Cameron-Liebler line sets ----------------------------------------------------


def gq_cl_report(gq: GQ, line_mask: int) -> dict:
    """All five line-set characterisations, evaluated independently.

    (i) chi in im(A^t); (ii) chi orthogonal to ker(A); (iii) disjointness
    counts (x - chi_l) t; (iv) meeting counts x + chi_l (t - 1); (v) the
    disjointness-matrix eigenvector condition for the eigenvalue -t.
    A is the point-line incidence matrix.
    """
    from .linalg import IntEchelon
    x = Fraction(line_mask.bit_count(), gq.t + 1)
    chi = [(line_mask >> li) & 1 for li in range(gq.n_lines)]
    # (i) image membership
    ech = IntEchelon(gq.n_lines)
    for p in range(gq.n_points):
        ech.add([(gq.point_lines[p] >> li) & 1 for li in range(gq.n_lines)])
    v_i = ech.contains(chi)
    # (ii) orthogonality to the kernel of A
    rows = [[(gq.point_lines[p] >> li) & 1 for li in range(gq.n_lines)]
            for p in range(gq.n_points)]
    kernel = frac_nullspace(rows, gq.n_lines)
    v_ii = all(sum(c * k for c, k in zip(chi, kvec)) == 0 for kvec in kernel)
    # (iii) disjointness counts
    v_iii = True
    for li in range(gq.n_lines):
        got = (gq.line_disjoint[li] & line_mask).bit_count()
        if got != (x - chi[li]) * gq.t:
            v_iii = False
            break
    # (iv) meeting counts
    v_iv = True
    for li in range(gq.n_lines):
        got = (gq.line_meets[li] & line_mask).bit_count()
        if got != x + chi[li] * (gq.t - 1):
            v_iv = False
            break
    # (v) eigenvector of the disjointness matrix for -t
    n = gq.n_lines
    w = [n * c - line_mask.bit_count() for c in chi]  # n*(chi - x/(st+1) j) scaled
    # n = (t+1)(st+1); the scaling constant is irrelevant to the eigencheck
    kw = []
    for li in range(n):
        acc = 0
        for j in _bits(gq.line_disjoint[li]):
            acc += w[j]
        kw.append(acc)
    v_v = kw == [-gq.t * v for v in w]
    consistent = v_i == v_ii == v_iii == v_iv == v_v
    return {"x": x, "im_At": v_i, "ker_perp": v_ii, "disjoint_counts": v_iii,
            "meet_counts": v_iv, "eigenvector": v_v, "consistent": consistent,
            "is_cl": v_iii}
