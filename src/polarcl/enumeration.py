"""Canonical enumeration of the totally isotropic subspaces of a polar space.

Every subspace is keyed by the bitmask of its isotropic points.  Level k
(vector dimension k, projective dimension k-1) extends each totally
isotropic (k-1)-space by the isotropic points of its perp, building the
extension's mask from line masks cached for one enumeration and clearing
its points from the candidates left (`PolarSpace._enumerate_levels`).
Only the generators are put in order: their reduced-echelon rows, sorted
lexicographically, fix the index set Omega once and for all, and every
file format and every matrix in the scheme layer refers to that order.
An intermediate level keeps the spanning point rows of its subspaces in
discovery order; its count is read from them, and its canonical list
(sorted reduced-echelon rows) is built when first read (`Level`).  A
space can also be built from a stored generator list, which is certified
instead of enumerated; its intermediate levels are then enumerated when
first read.

For hyperbolic quadrics the generators split into the two classes of the
relation dim(pi ^ pi') = dim pi (mod 2); generator 0 anchors the class
labelled "latin".  For the parabolic quadrics of odd rank the module also
enumerates the hyperbolic classes: the generator classes of the hyperbolic
hyperplane sections, each generator tested by inclusion of its point
mask in the section's.  Symplectic spaces of odd rank over even fields get
theirs through the nucleus projection from the parabolic model.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from operator import and_

from .counting import num_generators, num_kspaces
from .gf import field
from .geometry import (Form, GeometryError, PolarSpaceDescriptor,
                       VerificationError, all_hyperplanes,
                       all_projective_points, descriptor, gf_rref,
                       section_type)
from .linalg import _bits

DEFAULT_GENERATOR_BUDGET = 10 ** 6


class BudgetError(RuntimeError):
    pass


def _vdim_from_point_count(q: int):
    """Lookup table point-count -> vector dimension ((q^v - 1)/(q - 1) points)."""
    table = {}
    c = 0
    for v in range(0, 12):
        table[c] = v
        c = c * q + 1
    return table


class Level(Sequence):
    """The totally isotropic subspaces of one vector dimension k < d.

    Its length is the number of spanning point rows the enumeration left,
    checked against the closed form when they were built.  Reading an
    entry (indexing, slicing, iterating, comparing) builds the canonical
    list, the reduced-echelon rows sorted lexicographically, once."""

    def __init__(self, space: PolarSpace, k: int):
        self._space, self._k, self._rows = space, k, None

    def __len__(self) -> int:
        return len(self._space.level_spans(self._k))

    def canonical(self) -> list:
        if self._rows is None:
            gf = self._space.gf
            self._rows = sorted(gf_rref(rows, gf)[0]
                                for rows in self._space.level_spans(self._k))
        return self._rows

    def __getitem__(self, i):
        return self.canonical()[i]

    def __iter__(self):
        return iter(self.canonical())

    def __eq__(self, other):
        return self.canonical() == list(other)

    def __repr__(self) -> str:
        return f"Level({self._space.name()}, {self._k}, {len(self)} subspaces)"


class PolarSpace:
    """A polar space: points, generators, classes, and every level on read.

    The generators are enumerated, or, when `generators` is given, that
    list is certified to be the canonical one (`_certify`)."""

    def __init__(self, desc: PolarSpaceDescriptor,
                 generator_budget: int = DEFAULT_GENERATOR_BUDGET,
                 generators=None):
        expected = num_generators(desc.rank, desc.e, desc.q)
        if expected > generator_budget:
            raise BudgetError(
                f"{desc.name()} has {expected} generators, over budget {generator_budget}")
        self.desc = desc
        self.gf = field(desc.q)
        self.form = Form(desc)
        self.d = desc.rank
        self.points = [p for p in all_projective_points(self.gf, desc.dim)
                       if self.form.is_isotropic_point(p)]
        self.point_index = {p: i for i, p in enumerate(self.points)}
        # bit i of _coordinate_masks[c][x]: coordinate c of point i is x
        self._coordinate_masks = [
            [sum(1 << i for i, p in enumerate(self.points) if p[c] == x)
             for x in range(desc.q)] for c in range(desc.nvars)]
        # bit j of perp mask i: points i and j pair to zero
        self._perp_masks = [self.section_mask(self.form.functional(p))
                            for p in self.points]
        if generators is None:
            self._spans, masks = self._enumerate_levels(self.d)
            keyed = sorted(zip((gf_rref(rows, self.gf)[0]
                                for rows in self._spans.pop(self.d)), masks))
            self.generators = [rows for rows, _ in keyed]
            self.gen_point_masks = [mask for _, mask in keyed]
        else:
            self._spans = None  # enumerated when a level below d is read
            self.generators = list(generators)
            self.gen_point_masks = self._certify(expected)
        self.levels = {k: Level(self, k) for k in range(1, self.d)}
        self.levels[self.d] = self.generators
        self.gen_index = {g: i for i, g in enumerate(self.generators)}
        self.n_generators = len(self.generators)
        if self.n_generators != expected:
            raise VerificationError(
                f"{desc.name()}: enumerated {self.n_generators} generators, "
                f"closed form {expected}")
        self._point_gen_masks = None
        self._vdim_table = _vdim_from_point_count(desc.q)
        self.class_labels = self._split_classes() if desc.family == "Q+" else None
        self._hyperbolic_classes = None

    # -- construction helpers ------------------------------------------------

    def _enumerate_levels(self, top: int):
        """Levels 1..top: the spanning point rows of every subspace, in
        discovery order, and the point masks of level top in that order.

        A subspace S is keyed by its point mask; the frontier maps it to a
        spanning tuple of points and to its candidates, the AND of the perp
        masks of its points.  For a candidate p outside S, S + p is S, p
        and the lines from p to each point of S; a line's mask takes q - 1
        normalised vectors and is cached for this call only.  At the level
        of the generators S + p is a generator G, and G^perp ^ Q = G, so its
        points are the candidates of S that p's perp keeps: no line is read.
        Every point of S + p spans S + p with S, so its points leave S's
        candidates: each pair (S, S + p) is built once, and nothing is
        reduced against S.  No row is reduced here: each level's count is
        checked against the closed form, and only the callers reduce rows.
        """
        gf, points, index, perp = self.gf, self.points, self.point_index, self._perp_masks
        n = len(points)
        lines = {}

        def line(i, j):
            """Mask of the line through points i < j, cached under the key
            a * n + b of every pair a < b of its points."""
            u, v = points[i], points[j]
            on = [i, j]
            for c in range(1, gf.q):
                w = [gf.add(x, gf.mul(c, y)) for x, y in zip(u, v)]
                inv = gf.inv(next(x for x in w if x))
                if inv != 1:
                    w = [gf.mul(inv, x) for x in w]
                on.append(index[tuple(w)])
            mask = sum(1 << a for a in on)
            for a in on:
                for b in on:
                    if a < b:
                        lines[a * n + b] = mask
            return mask

        spans = {1: [(p,) for p in points]}
        frontier = {1 << i: ((p,), perp[i]) for i, p in enumerate(points)}
        for k in range(2, top + 1):
            nxt = {}
            for mask, (rows, cand) in frontier.items():
                inside = list(_bits(mask)) if k < self.d else ()
                free = cand & ~mask
                while free:
                    low = free & -free
                    j = low.bit_length() - 1
                    below = cand & perp[j]
                    # a generator G has G^perp ^ Q = G: the top reads no line
                    span = below if k == self.d else mask | low
                    for i in inside:
                        a, b = (i, j) if i < j else (j, i)
                        span |= lines.get(a * n + b) or line(a, b)
                    free &= ~span
                    if span not in nxt:
                        nxt[span] = (rows + (points[j],), below)
            frontier = nxt
            spans[k] = [rows for rows, _ in frontier.values()]
        for k in range(1, top + 1):
            expect = num_kspaces(self.desc.rank, self.desc.e, self.desc.q, k - 1)
            if len(spans[k]) != expect:
                raise GeometryError(
                    f"level {k} of {self.desc.name()}: enumerated {len(spans[k])}, "
                    f"closed form {expect}")
        return spans, list(frontier)

    def _certify(self, expected: int) -> list[int]:
        """Point masks of `self.generators` once they are certified to be
        the canonical list: `expected` lines, strictly increasing, each d
        reduced-echelon rows that are isotropic points pairing to zero.
        Such rows span a generator G, and G^perp ^ Q = G, so its mask is
        the AND of its rows' perp masks.  Raises GeometryError naming the
        first line that fails and the property it fails."""
        gf, index, perp, d = self.gf, self.point_index, self._perp_masks, self.d
        masks, prev = [], ()
        for g, rows in enumerate(self.generators):
            if len(rows) != d:
                raise GeometryError(f"generator line {g} has {len(rows)} rows, "
                                    f"a generator of {self.name()} has {d}")
            at = [index.get(r) for r in rows]
            if None in at:
                raise GeometryError(f"generator line {g}: row {rows[at.index(None)]} "
                                    f"is not a normalised isotropic point")
            if gf_rref(rows, gf)[0] != rows:
                raise GeometryError(f"generator line {g} is not in reduced "
                                    "echelon form")
            mask = reduce(and_, (perp[i] for i in at))
            if any(not mask >> i & 1 for i in at):
                raise GeometryError(f"generator line {g}: its rows do not "
                                    "pair to zero")
            if rows <= prev:
                raise GeometryError(f"generator line {g} does not follow line "
                                    f"{g - 1} in the canonical order")
            masks.append(mask)
            prev = rows
        if len(masks) != expected:
            raise GeometryError(f"{len(masks)} generator lines, "
                                f"{self.name()} has {expected} generators")
        return masks

    def level_spans(self, k: int) -> list:
        """Spanning point rows of every (k-1)-space: the generators' own
        rows at k = d, below it the enumeration's, in discovery order."""
        if k == self.d:
            return self.generators
        if self._spans is None:
            self._spans = self._enumerate_levels(self.d - 1)[0]
        return self._spans[k]

    def section_mask(self, a) -> int:
        """Point mask of the hyperplane section a.x = 0.

        sums[t] holds the points whose dot product with a, over the
        coordinates read so far, is t; a coordinate costs q^2 ANDs of
        point masks and no point is visited."""
        gf = self.gf
        sums = {0: (1 << len(self.points)) - 1}
        for ai, column in zip(a, self._coordinate_masks):
            if ai:
                nxt = {}
                for t, m in sums.items():
                    for x, cm in enumerate(column):
                        hit = m & cm
                        if hit:
                            s = gf.add(t, gf.mul(ai, x))
                            nxt[s] = nxt.get(s, 0) | hit
                sums = nxt
        return sums.get(0, 0)

    def generators_in(self, point_mask: int) -> int:
        """Bitmask over Omega of the generators all of whose points lie in
        the given point mask."""
        return sum(1 << g for g, pm in enumerate(self.gen_point_masks)
                   if not pm & ~point_mask)

    def point_gen_masks(self):
        """Rows of the point-generator incidence A: one bitmask over Omega
        per isotropic point."""
        if self._point_gen_masks is None:
            rows = [0] * len(self.points)
            for g, pm in enumerate(self.gen_point_masks):
                for p in _bits(pm):
                    rows[p] |= 1 << g
            self._point_gen_masks = rows
        return self._point_gen_masks

    # -- metric structure ------------------------------------------------------

    def intersection_vdim(self, g1: int, g2: int) -> int:
        common = self.gen_point_masks[g1] & self.gen_point_masks[g2]
        return self._vdim_table[common.bit_count()]

    def distance(self, g1: int, g2: int) -> int:
        """Dual polar graph distance: d - vdim of the intersection."""
        return self.d - self.intersection_vdim(g1, g2)

    # -- hyperbolic quadric classes --------------------------------------------

    def _split_classes(self):
        """Latin/greek labels: same class iff the distance is even.

        Generator 0 anchors "latin".  Equivalent to dim(pi ^ pi') having
        the parity of dim pi, the class relation of hyperbolic quadrics.
        Each class's members and mask are kept for `class_members` and
        `class_mask`; `SchemeContext` checks, for every generator, that
        its class is the union of its even-distance relations.
        """
        labels = ["latin" if self.distance(0, g) % 2 == 0 else "greek"
                  for g in range(self.n_generators)]
        self._classes = {}
        for label in ("latin", "greek"):
            members = [g for g, lab in enumerate(labels) if lab == label]
            self._classes[label] = members, sum(1 << g for g in members)
        return labels

    def _class(self, label: str):
        if self.class_labels is None:
            raise GeometryError(f"{self.desc.name()} has no generator classes")
        if label not in self._classes:
            raise GeometryError(f"{self.desc.name()} has no generator class "
                                f"{label!r}: its classes are latin and greek")
        return self._classes[label]

    def class_members(self, label: str) -> list[int]:
        return self._class(label)[0]

    def class_mask(self, label: str) -> int:
        return self._class(label)[1]

    # -- hyperbolic classes (parabolic quadrics of odd rank) --------------------

    def hyperbolic_classes(self):
        """Generator subsets: both classes of every hyperbolic section.

        Only defined on the type III spaces Q(2d,q) with d odd; W(2d-1,q)
        with q even reaches them through the parabolic model (see
        `symplectic_from_parabolic_map`).  Each subset is returned as a
        bitmask over Omega, the whole list sorted for reproducibility.
        """
        if self._hyperbolic_classes is not None:
            return self._hyperbolic_classes
        desc = self.desc
        if desc.family == "Q" and desc.rank % 2 == 1:
            self._hyperbolic_classes = self._hyperbolic_classes_parabolic()
        elif desc.family == "W" and desc.rank % 2 == 1 and self.gf.p == 2:
            model = parabolic_model(self)
            mapping = symplectic_from_parabolic_map(model, self)
            self._hyperbolic_classes = sorted(
                sum(1 << mapping[g] for g in _bits(cm))
                for cm in model.hyperbolic_classes())
        else:
            raise GeometryError(
                f"{desc.name()} is not a type III space; no hyperbolic classes")
        return self._hyperbolic_classes

    def _hyperbolic_classes_parabolic(self):
        classes = []
        for a in all_hyperplanes(self.gf, self.desc.dim):
            section = self.section_mask(a)
            if section_type(self.desc, section.bit_count()) != "hyperbolic":
                continue
            inside = self.generators_in(section)
            anchor = (inside & -inside).bit_length() - 1
            one = sum(1 << g for g in _bits(inside)
                      if (self.d - 1 - self.intersection_vdim(anchor, g)) % 2 == 0)
            two = inside & ~one
            if one.bit_count() != two.bit_count():
                raise VerificationError(
                    f"hyperbolic section {a} of {self.desc.name()} splits its "
                    f"{inside.bit_count()} generators into classes of "
                    f"{one.bit_count()} and {two.bit_count()}, expected "
                    f"{inside.bit_count() // 2} each")
            classes += [one, two]
        return sorted(classes)

    # -- serialization -----------------------------------------------------------

    def serialize_subspace(self, rows) -> str:
        return ";".join(",".join(str(x) for x in r) for r in rows)

    def name(self) -> str:
        return self.desc.name()


def _space_key(desc: PolarSpaceDescriptor):
    return (desc.family, desc.rank, desc.q, desc.dim)


_SPACE_CACHE: dict = {}


def get_space(family: str, rank: int, q: int, dim: int | None = None,
              generators=None) -> PolarSpace:
    """Cached space instances (immutable after construction).  Stored
    `generators` are certified even when the space is cached: a list that
    passes is the canonical one, so the cached instance stands for it."""
    desc = descriptor(family, rank, q, dim)
    key = _space_key(desc)
    if generators is not None:
        space = PolarSpace(desc, generators=generators)
        return _SPACE_CACHE.setdefault(key, space)
    if key not in _SPACE_CACHE:
        _SPACE_CACHE[key] = PolarSpace(desc)
    return _SPACE_CACHE[key]


def get_space_by_name(name: str) -> PolarSpace:
    from .geometry import descriptor_from_name
    desc = descriptor_from_name(name)
    return get_space(desc.family, desc.rank, desc.q, desc.dim)


def parabolic_model(w_space: PolarSpace) -> PolarSpace:
    """The parabolic quadric Q(2d,q) modelling W(2d-1,q), q even."""
    desc = w_space.desc
    if desc.family != "W" or w_space.gf.p != 2:
        raise GeometryError("parabolic model only for symplectic spaces, q even")
    return get_space("Q", desc.rank, desc.q)


def symplectic_from_parabolic_map(q_space: PolarSpace, w_space: PolarSpace):
    """Generator bijection Q(2d,q) -> W(2d-1,q), q even, via the nucleus.

    The nucleus of X0^2 + X1 X2 + ... is (1,0,...,0); projecting away the
    X0 coordinate sends a generator of the quadric to a generator of the
    symplectic space whose form is the polarization.  The remaining pairs
    (X1,X2),(X3,X4),... are permuted into the (e | e') coordinate order
    of the standard symplectic basis.  The map is certified as an
    isometry of the dual polar graphs before it is returned.
    """
    d = q_space.desc.rank
    gf = q_space.gf
    n_w = 2 * d
    perm = [1 + 2 * i for i in range(d)] + [2 + 2 * i for i in range(d)]
    mapping = []
    for rows in q_space.generators:
        img = []
        for r in rows:
            v = [r[perm[j]] for j in range(n_w)]
            img.append(tuple(v))
        img_rows = gf_rref(img, gf)[0]
        mapping.append(w_space.gen_index[img_rows])
    certify_isometry(q_space, w_space, mapping)
    return mapping


def certify_isometry(src: PolarSpace, dst: PolarSpace, mapping) -> None:
    """Raise VerificationError unless the generator map preserves the
    dual polar distance on every pair, and so every relation A_i.

    Distinct generators are at distance >= 1, so their images differ:
    the map is injective, and with equal generator counts a bijection.
    """
    if len(mapping) != src.n_generators or \
            src.n_generators != dst.n_generators:
        raise VerificationError(
            f"map {src.name()} -> {dst.name()} has {len(mapping)} images "
            f"for {src.n_generators} -> {dst.n_generators} generators")
    for g in range(src.n_generators):
        for h in range(g + 1, src.n_generators):
            found = dst.distance(mapping[g], mapping[h])
            expected = src.distance(g, h)
            if found != expected:
                raise VerificationError(
                    f"map {src.name()} -> {dst.name()} sends the pair "
                    f"({g}, {h}) at distance {expected} to "
                    f"({mapping[g]}, {mapping[h]}) at distance {found}")
