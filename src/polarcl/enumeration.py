"""Canonical enumeration of the totally isotropic subspaces of a polar space.

Level k (vector dimension k, projective dimension k-1) is produced by
extending every totally isotropic (k-1)-space by the isotropic points of
its perp and deduplicating through the canonical reduced-echelon form.
The levels are sorted lexicographically on the echelon matrices, which
fixes the index set Omega of the generators once and for all; every file
format and every matrix in the scheme layer refers to that order.

For hyperbolic quadrics the generators split into the two classes of the
relation dim(pi ^ pi') = dim pi (mod 2); generator 0 anchors the class
labelled "latin".  For the parabolic quadrics of odd rank the module also
enumerates the hyperbolic classes: the generator classes of the hyperbolic
hyperplane sections.  Symplectic spaces of odd rank over even fields get
theirs through the nucleus projection from the parabolic model.
"""

from __future__ import annotations

from .counting import num_generators, num_kspaces
from .gf import field
from .geometry import (Form, GeometryError, PolarSpaceDescriptor,
                       VerificationError, all_hyperplanes,
                       all_projective_points, classify_hyperplane_section,
                       descriptor, gf_rref, perp)
from .linalg import gf_reduce

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


class PolarSpace:
    """An enumerated polar space: points, all levels, generators, classes."""

    def __init__(self, desc: PolarSpaceDescriptor,
                 generator_budget: int = DEFAULT_GENERATOR_BUDGET):
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
        self._perp_masks = self._build_perp_masks()
        self.levels = self._enumerate_levels()
        self.generators = self.levels[self.d]
        self.gen_index = {g: i for i, g in enumerate(self.generators)}
        self.n_generators = len(self.generators)
        assert self.n_generators == expected
        self.gen_point_masks = [self._point_mask(g) for g in self.generators]
        self._point_gen_masks = None
        self._vdim_table = _vdim_from_point_count(desc.q)
        self.class_labels = self._split_classes() if desc.family == "Q+" else None
        self._hyperbolic_classes = None

    # -- construction helpers ------------------------------------------------

    def _build_perp_masks(self):
        """perp_masks[i] has bit j set iff points i and j pair to zero."""
        n = len(self.points)
        pair = self.form.pair
        masks = [0] * n
        for i in range(n):
            pi = self.points[i]
            mi = masks[i]
            for j in range(i, n):
                if pair(pi, self.points[j]) == 0:
                    mi |= 1 << j
                    masks[j] |= 1 << i
            masks[i] = mi
        return masks

    def _enumerate_levels(self):
        """levels[k] = sorted canonical TI subspaces of vector dimension k.

        The frontier maps each subspace to its extension candidates: the
        isotropic points pairing to zero with all of its points.  That
        set only depends on the subspace, so intersecting perp masks
        along any extension chain yields the same candidates and the
        global seen-set (the `nxt` dict) deduplicates reconvergent
        chains.
        """
        gf = self.gf
        levels = {1: [(p,) for p in self.points]}
        frontier = {(self.points[i],): self._perp_masks[i]
                    for i in range(len(self.points))}
        for k in range(2, self.d + 1):
            nxt = {}
            for rows, cand in frontier.items():
                pivots = tuple(next(c for c, x in enumerate(r) if x) for r in rows)
                m = cand
                while m:
                    low = m & -m
                    j = low.bit_length() - 1
                    m ^= low
                    p = self.points[j]
                    if not any(gf_reduce(p, rows, pivots, gf)):
                        continue
                    new_rows = gf_rref(list(rows) + [p], gf)[0]
                    if new_rows not in nxt:
                        nxt[new_rows] = cand & self._perp_masks[j]
            levels[k] = sorted(nxt.keys())
            frontier = nxt
        for k in range(1, self.d + 1):
            expect = num_kspaces(self.desc.rank, self.desc.e, self.desc.q, k - 1)
            if len(levels[k]) != expect:
                raise GeometryError(
                    f"level {k} of {self.desc.name()}: enumerated {len(levels[k])}, "
                    f"closed form {expect}")
        return levels

    def _point_mask(self, rows) -> int:
        """Bitset over point indices of the points lying in the subspace."""
        gf = self.gf
        span = set()
        vecs = [tuple([0] * len(rows[0]))]
        for r in rows:
            vecs = [tuple(gf.add(x, gf.mul(c, y)) for x, y in zip(v, r))
                    for v in vecs for c in range(gf.q)]
        mask = 0
        for v in vecs:
            if any(v):
                lead = next(x for x in v if x)
                if lead != 1:
                    inv = gf.inv(lead)
                    v = tuple(gf.mul(inv, x) for x in v)
                idx = self.point_index.get(v)
                if idx is not None and v not in span:
                    span.add(v)
                    mask |= 1 << idx
        return mask

    def subspace_point_mask(self, rows) -> int:
        """Point bitset of an arbitrary subspace (not only generators)."""
        return self._point_mask(rows)

    def point_gen_masks(self):
        """Rows of the point-generator incidence A: one bitmask over Omega
        per isotropic point."""
        if self._point_gen_masks is None:
            rows = [0] * len(self.points)
            for g, pm in enumerate(self.gen_point_masks):
                m = pm
                while m:
                    low = m & -m
                    rows[low.bit_length() - 1] |= 1 << g
                    m ^= low
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
        Transitivity of the relation is spot-checked on a triple sample.
        """
        labels = ["latin" if self.distance(0, g) % 2 == 0 else "greek"
                  for g in range(self.n_generators)]
        n = self.n_generators
        step = max(1, n // 7)
        sample = range(0, n, step)
        for a in sample:
            for b in sample:
                for c in sample:
                    if (self.distance(a, b) % 2 == 0
                            and self.distance(b, c) % 2 == 0):
                        assert self.distance(a, c) % 2 == 0
        return labels

    def class_members(self, label: str):
        if self.class_labels is None:
            raise GeometryError(f"{self.desc.name()} has no generator classes")
        return [g for g, lab in enumerate(self.class_labels) if lab == label]

    def class_mask(self, label: str) -> int:
        m = 0
        for g in self.class_members(label):
            m |= 1 << g
        return m

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
            classes = []
            for cm in model.hyperbolic_classes():
                m = 0
                mm = cm
                while mm:
                    low = mm & -mm
                    mm ^= low
                    m |= 1 << mapping[low.bit_length() - 1]
                classes.append(m)
            self._hyperbolic_classes = sorted(classes)
        else:
            raise GeometryError(
                f"{desc.name()} is not a type III space; no hyperbolic classes")
        return self._hyperbolic_classes

    def _hyperbolic_classes_parabolic(self):
        gf = self.gf
        classes = []
        for a in all_hyperplanes(gf, self.desc.dim):
            label = classify_hyperplane_section(self.form, a, self.points)
            if label != "hyperbolic":
                continue
            inside = [g for g, rows in enumerate(self.generators)
                      if all(self._dot(a, r) == 0 for r in rows)]
            anchor = inside[0]
            one = [g for g in inside
                   if (self.d - 1 - self.intersection_vdim(anchor, g)) % 2 == 0]
            two = [g for g in inside if g not in set(one)]
            assert len(one) == len(two) == len(inside) // 2
            classes.append(sum(1 << g for g in one))
            classes.append(sum(1 << g for g in two))
        return sorted(classes)

    def _dot(self, a, v) -> int:
        gf = self.gf
        acc = 0
        for x, y in zip(a, v):
            if x and y:
                acc = gf.add(acc, gf.mul(x, y))
        return acc

    # -- serialization -----------------------------------------------------------

    def serialize_subspace(self, rows) -> str:
        return ";".join(",".join(str(x) for x in r) for r in rows)

    def name(self) -> str:
        return self.desc.name()


def _space_key(desc: PolarSpaceDescriptor):
    return (desc.family, desc.rank, desc.q, desc.dim)


_SPACE_CACHE: dict = {}


def get_space(family: str, rank: int, q: int, dim: int | None = None) -> PolarSpace:
    """Cached space instances (immutable after construction)."""
    desc = descriptor(family, rank, q, dim)
    key = _space_key(desc)
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
