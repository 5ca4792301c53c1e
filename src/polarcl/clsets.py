"""Cameron-Liebler sets of generators and all of their characterisations.

A generator set L with characteristic vector chi and parameter
x = |L| / prod_{i=0}^{d-2}(q^{e+i} + 1) is Cameron-Liebler exactly when
any one of the following holds (they are equivalent):

    (i)    every generator pi is disjoint from (x - chi_pi) q^{C(d-1,2)+e(d-1)}
           members of L;
    (ii)   chi - x/(q^{d+e-1}+1) j is an eigenvector of the disjointness
           matrix K for the eigenvalue -q^{C(d-1,2)+e(d-1)}; chi is 0/1,
           so each entry of K applied to the scaled vector
           N chi - |L| j is N |K_pi ^ L| - |L| |K_pi|, two popcounts of
           one row of K (N = |Omega|);
    (iii)  chi lies in V0+V1 (plus V_{d-1} when d is even and e = 0, plus
           V_d when d is odd and e = 1);
    (iv)   |L ^ S| = x for every spread S (when spreads exist);
    image  chi in im(A^t) on type I spaces, im(B^t) (hyperbolic classes)
           on type III, class-restricted im(A'^t) on one class of an
           even-rank hyperbolic quadric.  No image characterisation is
           known for W(4n+1,q) with q odd (type IV).

The same battery exists for class-restricted sets on even-rank hyperbolic
quadrics with x = |L| / prod_{i=1}^{d-2}(q^i + 1), where all disjointness
happens inside the class.

Everything below is exact; every test reports a witness on failure.
(i) and (ii) count the bits of the same rows of K, so they are two
closed forms over one product, not independent routes.  The image test
reads statement (iii)'s packed combination, so their agreement is the
identity S_M = S that `scheme.Image` certifies, not a second
computation; the incidence certificates of `scheme.Image` tie the image
verdicts to M itself.  (iii) and (iv) are the independent routes.
Statements (i)-(iii) work on the set's bitmask directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .counting import binom2, gaussian_binomial, pencil_size, qint, qpow
from .enumeration import PolarSpace
from .geometry import GeometryError, VerificationError
from .linalg import spread
from .scheme import RestrictedScheme, SchemeContext, _bits, eigenspace_indices


def space_type(desc) -> str:
    """The characterisation type of a polar space.

    I   : Q-, Q(2d,q) d even, Q+(2d-1,q) d odd, W d even, both Hermitians
    II  : Q+(2d-1,q) d even (class machinery; full sets verify per class)
    III : Q(2d,q) d odd, W(2d-1,q) d odd q even (hyperbolic classes)
    IV  : W(4n+1,q) q odd (no image characterisation known)
    """
    d, fam = desc.rank, desc.family
    if fam == "Q+":
        return "I" if d % 2 == 1 else "II"
    if fam in ("Q-", "H"):
        return "I"
    if fam == "Q":
        return "I" if d % 2 == 0 else "III"
    # W
    if d % 2 == 0:
        return "I"
    return "III" if desc.q % 2 == 0 else "IV"


class CLContext:
    """A polar space with its scheme and everything the CL tests need."""

    def __init__(self, space: PolarSpace):
        self.space = space
        self.scheme = SchemeContext(space)
        desc = space.desc
        self.d = desc.rank
        self.q = desc.q
        self.e = Fraction(desc.e)
        self.n = space.n_generators
        self.type = space_type(desc)
        self.pencil = pencil_size(self.d, self.e, self.q)
        self.disjointness = qint(self.q, binom2(self.d - 1) + self.e * (self.d - 1))
        self._restricted: dict[str, RestrictedScheme] = {}
        self.valid_spreads: set[int] = set()  # masks already checked as spreads
        # each generator's points as packed fields: a sum over members
        # counts at most n per field, so it never carries
        width = self.n.bit_length()
        self.point_fields = [spread(pm, width) for pm in space.gen_point_masks]
        self.all_points = spread((1 << len(space.points)) - 1, width)

    def restricted(self, label: str) -> RestrictedScheme:
        if label not in self._restricted:
            self._restricted[label] = RestrictedScheme(self.scheme, label)
        return self._restricted[label]

    def class_pencil(self) -> int:
        v = 1
        for i in range(1, self.d - 1):
            v *= self.q ** i + 1
        return v


_CTX_CACHE: dict = {}


def get_context(space: PolarSpace) -> CLContext:
    key = id(space)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = CLContext(space)
    return _CTX_CACHE[key]


@dataclass
class GenSet:
    """A set of generators, as a bitmask over Omega.

    `class_label` marks the class-restricted sets of an even-rank
    hyperbolic quadric; their parameter uses the class pencil size and
    their tests run in the restricted scheme.
    """

    ctx: CLContext
    mask: int
    class_label: str | None = None

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.ctx.n:
            raise GeometryError("generator mask out of range")
        if self.class_label is not None:
            cm = self.ctx.space.class_mask(self.class_label)
            if self.mask & ~cm:
                raise GeometryError(
                    f"set is not contained in the {self.class_label} class")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def x(self) -> Fraction:
        if self.class_label is None:
            return Fraction(self.size, self.ctx.pencil)
        return Fraction(self.size, self.ctx.class_pencil())

    def members(self):
        return list(_bits(self.mask))

    def chi(self, positions=None):
        if positions is None:
            return [(self.mask >> g) & 1 for g in range(self.ctx.n)]
        return [(self.mask >> g) & 1 for g in positions]


@dataclass
class CLReport:
    x: Fraction
    size: int
    type_label: str
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def is_cl(self) -> bool:
        return bool(self.verdicts.get("disjointness_counts"))

    def to_json(self):
        return {
            "x": {"num": self.x.numerator, "den": self.x.denominator},
            "size": self.size,
            "type": self.type_label,
            "verdicts": {k: v for k, v in self.verdicts.items()},
            "witnesses": {k: v for k, v in self.witnesses.items()},
            "is_cameron_liebler": self.is_cl,
        }


# -- the individual tests ------------------------------------------------------


def _universe(gs: GenSet):
    """(positions, mask, q^...) of the set's universe Omega': every
    generator with q^{C(d-1,2)+e(d-1)}, or its class with q^{C(d-1,2)}."""
    ctx = gs.ctx
    if gs.class_label is None:
        return range(ctx.n), (1 << ctx.n) - 1, ctx.disjointness
    return (ctx.space.class_members(gs.class_label),
            ctx.space.class_mask(gs.class_label), qint(ctx.q, binom2(ctx.d - 1)))


def test_disjointness_counts(gs: GenSet):
    """Statement (i): exact disjointness counts against every generator."""
    positions, _, factor = _universe(gs)
    x = gs.x * factor
    if x.denominator != 1:  # no popcount matches: the first position fails
        return False, positions[0]
    expect = (x.numerator, x.numerator - factor)  # indexed by chi_pi
    K, mask = gs.ctx.scheme.K, gs.mask
    for pi in positions:
        if (K[pi] & mask).bit_count() != expect[(mask >> pi) & 1]:
            return False, pi
    return True, None


def test_eigenvector(gs: GenSet):
    """Statement (ii): K-eigenvector condition on the centred vector.

    Scaled to integers: with N = |Omega'| the size of the universe, the
    vector w = N chi - |L| j is an eigenvector of K for
    lam = -q^{C(d-1,2)+e(d-1)} (-q^{C(d-1,2)} on a class) iff the
    rational one is.  As chi is 0/1, (K w)_pi is the popcount form
    N |K_pi ^ L| - |L| |K_pi ^ Omega'|; it is compared with lam w_pi one
    pi at a time, and the witness is the first failing position in the
    universe (an index into Omega', i.e. into K w).
    """
    positions, universe, factor = _universe(gs)
    K, mask, size, N = gs.ctx.scheme.K, gs.mask, gs.size, len(positions)
    for t, pi in enumerate(positions):
        kw = N * (K[pi] & mask).bit_count() - size * (K[pi] & universe).bit_count()
        if kw != -factor * (N * ((mask >> pi) & 1) - size):
            return False, t
    return True, None


def test_eigenspace(gs: GenSet):
    """Statement (iii): chi in the type-dependent orthogonal sum of V_j."""
    S = {0, 1} if gs.class_label else eigenspace_indices(gs.ctx.space.desc)
    T = gs.ctx.scheme.combination(S, gs.class_label)
    return T.witness(gs.mask) is None, sorted(S)


def image_parts(gs: GenSet):
    """The image test's matrix and its (Image, mask) parts.

    Type I uses the point-generator incidence, type III the hyperbolic
    class incidence, class sets the class-restricted point incidence.  A
    full set on an even-rank hyperbolic quadric passes iff both class
    restrictions do AND their class parameters coincide: membership of
    the two restrictions in im(A'^t) alone does not force equal
    parameters (the characteristic vector of one whole class is the
    witness), and without equality the set is not Cameron-Liebler.
    Type IV has no image characterisation: no parts.
    """
    ctx = gs.ctx
    if gs.class_label is not None:
        return "A'", [(ctx.restricted(gs.class_label).image_basis(), gs.mask)]
    if ctx.type == "II":
        return "A' (both classes, equal parameter)", [
            (ctx.restricted(lab).image_basis(), gs.mask & ctx.space.class_mask(lab))
            for lab in ("latin", "greek")]
    if ctx.type == "IV":
        return None, []
    which = "A" if ctx.type == "I" else "B"
    return which, [(ctx.scheme.image_basis(which), gs.mask)]


def test_image(gs: GenSet):
    """The type-dispatched image statement (`image_parts`); None on type IV."""
    which, parts = image_parts(gs)
    if which is None:
        return None, None  # type IV: open
    same_x = len({m.bit_count() for _, m in parts}) == 1  # class parameters
    return same_x and all(image.witness(m) is None for image, m in parts), which


def test_spread_intersections(gs: GenSet, spreads):
    """Statement (iv): |L ^ S| = x for every supplied spread.

    Supplied sets are validated as 1-regular systems first, once per
    context and mask; a non-spread raises on every call.  An empty spread
    list yields the verdict "vacuous", never a pass: the absence of
    spreads certifies nothing.
    """
    if not spreads:
        return "vacuous", None
    valid = gs.ctx.valid_spreads
    for s in spreads:
        if s not in valid:
            if not is_regular_system(GenSet(gs.ctx, s), 1):
                raise GeometryError("supplied set is not a spread")
            valid.add(s)
    x = gs.x
    for i, s in enumerate(spreads):
        got = (s & gs.mask).bit_count()
        if got != x:
            return False, i
    return True, None


def check_cl(gs: GenSet, spreads=None) -> CLReport:
    """Run the whole battery and collect verdicts plus failure witnesses."""
    ctx = gs.ctx
    rep = CLReport(x=gs.x, size=gs.size,
                   type_label="II" if gs.class_label else ctx.type)
    ok, wit = test_disjointness_counts(gs)
    rep.verdicts["disjointness_counts"] = ok
    if wit is not None:
        rep.witnesses["disjointness_counts"] = wit
    ok, wit = test_eigenvector(gs)
    rep.verdicts["eigenvector"] = ok
    if wit is not None:
        rep.witnesses["eigenvector"] = wit
    ok, S = test_eigenspace(gs)
    rep.verdicts["eigenspace"] = ok
    rep.witnesses["eigenspace_indices"] = S
    ok, which = test_image(gs)
    rep.verdicts["image"] = ok
    rep.witnesses["image_matrix"] = which
    if spreads is not None:
        ok, wit = test_spread_intersections(gs, spreads)
        rep.verdicts["spread_intersections"] = ok
        if wit is not None:
            rep.witnesses["spread_intersections"] = wit
    if rep.is_cl:
        top = qpow(ctx.q, ctx.e + ctx.d - 1) + 1
        if gs.x.denominator != 1 or not 0 <= gs.x <= top:
            raise VerificationError(f"positive verdict with x = {gs.x}, "
                                    f"expected an integer in [0, {top}]")
    return rep


# -- regular systems -----------------------------------------------------------


def is_regular_system(gs: GenSet, m: int) -> bool:
    """m-regular system: every point on exactly m members.

    Verified twice, per the kernel characterisation: (a) a direct count
    of members through every point, as the sum of the members' packed
    point sets, (b) the matrix identity A chi = m j.  Both routes must
    agree; a disagreement raises VerificationError.
    """
    ctx, mask = gs.ctx, gs.mask
    direct = sum([ctx.point_fields[g] for g in _bits(mask)]) == m * ctx.all_points
    rows = ctx.space.point_gen_masks()
    matrix = all((row & mask).bit_count() == m for row in rows)
    if direct != matrix:
        raise VerificationError(
            f"{m}-regular system: the point counts say {direct}, "
            f"the incidence rows say {matrix}")
    return direct


# -- constructions ---------------------------------------------------------------


def construct_point_pencil(ctx: CLContext, point_idx: int,
                           class_label: str | None = None) -> GenSet:
    mask = ctx.space.point_gen_masks()[point_idx]
    if class_label is not None:
        mask &= ctx.space.class_mask(class_label)
    return GenSet(ctx, mask, class_label)


def construct_hyperbolic_class(ctx: CLContext, idx: int) -> GenSet:
    classes = ctx.space.hyperbolic_classes()
    return GenSet(ctx, classes[idx])


def construct_embedded(ctx: CLContext, hyperplane=None) -> GenSet:
    """Generators of an embedded polar space of parameter e-1.

    Uses a hyperplane section of the right type: parabolic in Q-(2d+1,q),
    hyperbolic in Q(2d,q), nondegenerate in H(2d,q).  The predicted
    parameter is q^{e-1} + 1.
    """
    from .geometry import all_hyperplanes, section_type
    sp = ctx.space
    desc = sp.desc
    wanted = {"Q-": "parabolic", "Q": "hyperbolic", "H": "hermitian"}.get(desc.family)
    if wanted is None or ctx.e < 1 or (desc.family == "H" and desc.dim % 2 == 1):
        raise GeometryError(f"no embedded construction on {desc.name()}")
    for a in all_hyperplanes(sp.gf, desc.dim) if hyperplane is None else [hyperplane]:
        section = sp.section_mask(a)
        got = section_type(desc, section.bit_count())
        if got == wanted:
            return GenSet(ctx, sp.generators_in(section))
    raise GeometryError(f"hyperplane section is {got}, need {wanted}")


def construct_base_plane(ctx: CLContext, gen_idx: int) -> GenSet:
    """Type III rank 3: all planes meeting a fixed plane in >= a line."""
    if ctx.type != "III" or ctx.d != 3:
        raise GeometryError("base-plane needs a rank-3 type III space")
    sp = ctx.space
    mask = 0
    for g in range(ctx.n):
        if sp.intersection_vdim(gen_idx, g) >= 2:
            mask |= 1 << g
    return GenSet(ctx, mask)


def construct_base_solid(ctx: CLContext, center: int, class_label: str) -> GenSet:
    """One class of Q+(7,q): generators meeting a fixed opposite-class
    generator (the center) in a plane."""
    sp = ctx.space
    if sp.desc.family != "Q+" or ctx.d != 4:
        raise GeometryError("base-solid needs Q+(7,q)")
    if sp.class_labels[center] == class_label:
        raise GeometryError("center must belong to the other class")
    mask = 0
    for g in sp.class_members(class_label):
        if sp.intersection_vdim(center, g) == 3:
            mask |= 1 << g
    return GenSet(ctx, mask, class_label)


def complement(gs: GenSet) -> GenSet:
    if gs.class_label is None:
        full = (1 << gs.ctx.n) - 1
    else:
        full = gs.ctx.space.class_mask(gs.class_label)
    return GenSet(gs.ctx, full & ~gs.mask, gs.class_label)


def union(a: GenSet, b: GenSet) -> GenSet:
    if a.mask & b.mask:
        raise GeometryError("union inputs are not disjoint")
    if a.class_label != b.class_label:
        raise GeometryError("cannot mix class restrictions in a union")
    return GenSet(a.ctx, a.mask | b.mask, a.class_label)


def difference(a: GenSet, b: GenSet) -> GenSet:
    if b.mask & ~a.mask:
        raise GeometryError("difference needs the second set inside the first")
    return GenSet(a.ctx, a.mask & ~b.mask, a.class_label)


def construct(ctx: CLContext, kind: str, **kw) -> GenSet:
    builders = {
        "point_pencil": construct_point_pencil,
        "hyperbolic_class": construct_hyperbolic_class,
        "embedded_polar_space": construct_embedded,
        "base_plane": construct_base_plane,
        "base_solid": construct_base_solid,
    }
    if kind not in builders:
        raise GeometryError(f"unknown construction {kind!r}")
    return builders[kind](ctx, **kw)


# -- intersection distributions ---------------------------------------------------


def intersection_profile(gs: GenSet, pi: int):
    """n_i = members of L meeting generator pi in a (d-i-1)-space."""
    ctx = gs.ctx
    return [(ctx.scheme.A[i][pi] & gs.mask).bit_count() for i in range(ctx.d + 1)]


def _require_integral(v, i, x):
    if v.denominator != 1:
        raise VerificationError(f"closed-form profile entry {i} is {v} at "
                                f"x = {x}, expected an integer")


def expected_profile_type_I(d: int, e, q: int, x, member: bool):
    out = []
    e = Fraction(e)
    x = Fraction(x)
    for i in range(d + 1):
        scale = qpow(q, binom2(i - 1) + (i - 1) * e)
        if member:
            v = ((x - 1) * gaussian_binomial(d - 1, i - 1, q)
                 + qpow(q, i + e - 1) * gaussian_binomial(d - 1, i, q)) * scale
        else:
            v = x * gaussian_binomial(d - 1, i - 1, q) * scale
        _require_integral(v, i, x)
        out.append(v.numerator)
    return out


def expected_profile_class(d: int, q: int, x, member: bool):
    """Class-restricted profile over i = 0..d/2 (intersection in a
    (d-2i-1)-space)."""
    out = []
    x = Fraction(x)
    for i in range(d // 2 + 1):
        scale = qpow(q, binom2(2 * i - 1))
        if member:
            v = ((x - 1) * gaussian_binomial(d - 1, 2 * i - 1, q)
                 + qpow(q, 2 * i - 1) * gaussian_binomial(d - 1, 2 * i, q)) * scale
        else:
            v = x * gaussian_binomial(d - 1, 2 * i - 1, q) * scale
        _require_integral(v, i, x)
        out.append(v.numerator)
    return out


def profile_verdict(gs: GenSet, pi: int):
    """Compare the brute-force profile with the closed form.

    Returns (verdict, got, expected); verdict is None ("not applicable")
    outside type I full sets and class-restricted sets, where no closed
    form holds.
    """
    ctx = gs.ctx
    member = bool((gs.mask >> pi) & 1)
    if gs.class_label is not None:
        got = [(ctx.scheme.A[2 * i][pi] & gs.mask).bit_count()
               for i in range(ctx.d // 2 + 1)]
        exp = expected_profile_class(ctx.d, ctx.q, gs.x, member)
        return got == exp, got, exp
    got = intersection_profile(gs, pi)
    if ctx.type != "I":
        return None, got, None
    exp = expected_profile_type_I(ctx.d, ctx.e, ctx.q, gs.x, member)
    return got == exp, got, exp


def z_profile(gs: GenSet, pi: int, point_idx: int):
    """z_j = members meeting pi in a j-space through the point (type I).

    Returns (verdict, z) checking z_{d-j-2} = z_{d-2} [d-2,j]_q
    q^{C(j,2)+je} for j = 0..d-2; requires pi outside the set and the
    point on pi.
    """
    ctx = gs.ctx
    sp = ctx.space
    if ctx.type != "I":
        raise GeometryError("z-profile needs a type I space")
    if (gs.mask >> pi) & 1:
        raise GeometryError("probe generator must lie outside the set")
    if not (sp.gen_point_masks[pi] >> point_idx) & 1:
        raise GeometryError("probe point must lie on the probe generator")
    d = ctx.d
    z = [0] * (d - 1)  # z[j], intersection a j-space, j = 0..d-2
    pm_pi = sp.gen_point_masks[pi]
    for g in gs.members():
        common = sp.gen_point_masks[g] & pm_pi
        if not (common >> point_idx) & 1:
            continue
        vdim = sp._vdim_table[common.bit_count()]
        if vdim >= 1:
            z[vdim - 1] += 1
    ok = True
    for j in range(d - 1):
        expect = Fraction(z[d - 2]) * gaussian_binomial(d - 2, j, ctx.q) \
            * qpow(ctx.q, binom2(j) + j * ctx.e)
        if z[d - j - 2] != expect:
            ok = False
    return ok, z
