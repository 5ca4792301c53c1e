"""The Cameron-Liebler battery: tests, constructions, distributions."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polarcl import clsets
from polarcl.clsets import (CLContext, GenSet, VerificationError, check_cl,
                            complement, construct_base_plane,
                            construct_base_solid, construct_embedded,
                            construct_hyperbolic_class,
                            construct_point_pencil, difference,
                            eigenspace_indices, expected_profile_type_I,
                            get_context, is_regular_system, profile_verdict,
                            space_type, union, z_profile)
from polarcl.clsets import test_disjointness_counts as disjointness_test
from polarcl.clsets import test_eigenspace as eigenspace_test
from polarcl.clsets import test_eigenvector as eigenvector_test
from polarcl.clsets import test_image as image_test
from polarcl.clsets import test_spread_intersections as spread_test
from polarcl.counting import binom2, num_generators, pencil_size, qint
from polarcl.enumeration import get_space_by_name
from polarcl.geometry import GeometryError, descriptor, descriptor_from_name
from polarcl.linalg import _bits
from polarcl.search import find_spreads

from reference import (class_image_membership, eigenspace_membership,
                       image_membership, intersection_profile,
                       reference_base_plane, reference_base_solid,
                       reference_check_cl, reference_z, regular_system_m)


def ctx_of(name):
    return get_context(get_space_by_name(name))


def test_space_type_dispatch():
    assert space_type(descriptor_from_name("Q-(5,2)")) == "I"
    assert space_type(descriptor_from_name("Q(4,2)")) == "I"
    assert space_type(descriptor_from_name("Q+(5,2)")) == "I"
    assert space_type(descriptor_from_name("W(3,3)")) == "I"
    assert space_type(descriptor_from_name("H(3,4)")) == "I"
    assert space_type(descriptor_from_name("H(4,4)")) == "I"
    assert space_type(descriptor_from_name("Q+(7,2)")) == "II"
    assert space_type(descriptor_from_name("Q(6,2)")) == "III"
    assert space_type(descriptor_from_name("W(5,2)")) == "III"
    assert space_type(descriptor("W", 3, 3)) == "IV"   # W(5,3), q odd


def test_eigenspace_indices_dispatch():
    assert eigenspace_indices(descriptor_from_name("Q+(7,2)")) == {0, 1, 3}
    assert eigenspace_indices(descriptor_from_name("Q(6,2)")) == {0, 1, 3}
    assert eigenspace_indices(descriptor_from_name("W(5,2)")) == {0, 1, 3}
    assert eigenspace_indices(descriptor_from_name("Q-(5,2)")) == {0, 1}
    assert eigenspace_indices(descriptor_from_name("W(3,2)")) == {0, 1}
    assert eigenspace_indices(descriptor_from_name("H(4,4)")) == {0, 1}
    assert eigenspace_indices(descriptor_from_name("Q+(5,2)")) == {0, 1}


def test_pencil_is_cl_everywhere():
    for name in ("W(3,2)", "Q(4,2)", "Q+(5,2)", "Q-(5,2)", "W(3,3)",
                 "H(3,4)", "Q(6,2)", "W(5,2)", "H(4,4)", "Q+(7,2)"):
        ctx = ctx_of(name)
        gs = construct_point_pencil(ctx, 0)
        rep = check_cl(gs)
        assert rep.is_cl and gs.x == 1, name
        assert all(v is True for v in rep.verdicts.values()), name


def test_empty_and_full_sets():
    ctx = ctx_of("W(3,2)")
    empty = GenSet(ctx, 0)
    assert check_cl(empty).is_cl and empty.x == 0
    full = GenSet(ctx, (1 << ctx.n) - 1)
    rep = check_cl(full)
    assert rep.is_cl and full.x == qint(2, 2) + 1 == 5


def test_disjointness_example_w32():
    # pencil members are disjoint from 0 members; non-members from 2
    ctx = ctx_of("W(3,2)")
    gs = construct_point_pencil(ctx, 0)
    K = ctx.scheme.K
    for pi in range(ctx.n):
        got = (K[pi] & gs.mask).bit_count()
        assert got == (0 if (gs.mask >> pi) & 1 else 2)


def test_non_pencil_triple_fails_with_witness():
    ctx = ctx_of("W(3,2)")
    sp = ctx.space
    # three lines without a common point: take two lines through point 0
    # and one line missing point 0
    row0 = sp.point_gen_masks()[0]
    members = []
    for g in range(ctx.n):
        if (row0 >> g) & 1 and len(members) < 2:
            members.append(g)
    outsider = next(g for g in range(ctx.n) if not (row0 >> g) & 1)
    mask = (1 << members[0]) | (1 << members[1]) | (1 << outsider)
    gs = GenSet(ctx, mask)
    ok, witness = disjointness_test(gs)
    assert not ok and witness is not None
    rep = check_cl(gs)
    assert not rep.is_cl
    assert not rep.verdicts["eigenvector"]
    assert not rep.verdicts["eigenspace"]
    assert not rep.verdicts["image"]


def test_eigenvector_hyperbolic_class():
    ctx = ctx_of("Q(6,2)")
    gs = construct_hyperbolic_class(ctx, 0)
    ok, _ = eigenvector_test(gs)
    assert ok


def test_one_class_of_qplus52_fails_cl():
    ctx = ctx_of("Q+(5,2)")
    gs = GenSet(ctx, ctx.space.class_mask("latin"))
    assert gs.x == Fraction(5, 2)
    rep = check_cl(gs)
    assert not rep.is_cl
    assert is_regular_system(gs, 3)  # (q+1)-regular system
    assert eigenspace_membership(ctx.scheme, gs.chi(), {0, 3})


def test_eigenspace_counterexample_qminus52():
    ctx = ctx_of("Q-(5,2)")
    gs = construct_point_pencil(ctx, 0)
    # adding one line disjoint from a pencil member breaks (iii)
    K = ctx.scheme.K
    extra = next(g for g in range(ctx.n)
                 if not (gs.mask >> g) & 1 and K[g] & gs.mask)
    bad = GenSet(ctx, gs.mask | (1 << extra))
    ok, _ = eigenspace_test(bad)
    assert not ok


def test_image_dispatch_examples():
    qm = ctx_of("Q-(5,2)")
    em = construct_embedded(qm)
    ok, which = image_test(em)
    assert ok and which == "A" and em.x == 3
    q6 = ctx_of("Q(6,2)")
    ok, which = image_test(construct_point_pencil(q6, 0))
    assert ok and which == "B"
    qp7 = ctx_of("Q+(7,2)")
    center = qp7.space.class_members("greek")[0]
    bs = construct_base_solid(qp7, center, "latin")
    ok, which = image_test(bs)
    assert ok and which == "A'"


def test_spread_intersections_w32():
    ctx = ctx_of("W(3,2)")
    spreads = find_spreads(ctx.space).solutions
    assert len(spreads) == 6
    gs = construct_point_pencil(ctx, 0)
    ok, _ = spread_test(gs, spreads)
    assert ok is True
    full = GenSet(ctx, (1 << ctx.n) - 1)
    ok, _ = spread_test(full, spreads)
    assert ok is True and full.x == 5
    ok, _ = spread_test(gs, [])
    assert ok == "vacuous"
    with pytest.raises(GeometryError):
        spread_test(gs, [0b111])  # not a spread


def test_spreads_validated_once_per_context(monkeypatch):
    ctx = clsets.CLContext(get_space_by_name("Q-(5,2)"))
    spreads = find_spreads(ctx.space).solutions
    checked = []

    def counting(gs, m):
        checked.append(gs.mask)
        return is_regular_system(gs, m)
    monkeypatch.setattr(clsets, "is_regular_system", counting)
    for p in (0, 1):
        rep = check_cl(construct_point_pencil(ctx, p), spreads=spreads)
        assert rep.verdicts["spread_intersections"] is True
    assert sorted(checked) == sorted(spreads)
    checked.clear()
    for _ in range(2):
        with pytest.raises(GeometryError):
            spread_test(construct_point_pencil(ctx, 0), spreads + [0b111])
    assert checked == [0b111, 0b111]


def test_regular_systems():
    ctx = ctx_of("W(3,2)")
    spreads = find_spreads(ctx.space).solutions
    gs = GenSet(ctx, spreads[0])
    assert gs.size == 5
    assert is_regular_system(gs, 1)
    assert regular_system_m(gs) == 1
    full = GenSet(ctx, (1 << ctx.n) - 1)
    assert is_regular_system(full, pencil_size(2, 1, 2))
    assert regular_system_m(GenSet(ctx, 0b11)) is None
    # the packed count against a plain one, m beyond what a field holds too
    sp = ctx.space
    for mask in (0, spreads[0], (1 << ctx.n) - 1, 0b11, spreads[0] | spreads[1]):
        counts = {sum((sp.gen_point_masks[g] >> p) & 1 for g in range(ctx.n)
                      if (mask >> g) & 1) for p in range(len(sp.points))}
        for m in (-1, 0, 1, 2, 3, ctx.n, ctx.n + 1, 16, 17, 1 << 40):
            assert is_regular_system(GenSet(ctx, mask), m) == (counts == {m})


def test_construction_parameters():
    q6 = ctx_of("Q(6,2)")
    pencil = construct_point_pencil(q6, 0)
    assert pencil.size == 15 and pencil.x == 1
    qm = ctx_of("Q-(5,2)")
    em = construct_embedded(qm)
    assert em.size == 15 and em.x == 3
    comp = complement(construct_point_pencil(ctx_of("W(3,2)"), 0))
    assert comp.x == 4  # q^{e+d-1} + 1 - 1
    bp = construct_base_plane(q6, 0)
    assert bp.size == 15 and bp.x == 1
    qp7 = ctx_of("Q+(7,2)")
    center = qp7.space.class_members("greek")[0]
    bs = construct_base_solid(qp7, center, "latin")
    assert bs.size == 15 and bs.x == 1


def test_set_algebra():
    ctx = ctx_of("Q-(5,2)")
    p0 = construct_point_pencil(ctx, 0)
    # a point non-collinear with point 0
    sp = ctx.space
    other = next(p for p in range(1, len(sp.points))
                 if sp.form.pair(sp.points[0], sp.points[p]) != 0)
    p1 = construct_point_pencil(ctx, other)
    u = union(p0, p1)
    assert u.x == 2 and check_cl(u).is_cl
    d = difference(u, p0)
    assert d.mask == p1.mask
    with pytest.raises(GeometryError):
        union(p0, p0)
    with pytest.raises(GeometryError):
        difference(p0, p1)
    full = GenSet(ctx, (1 << ctx.n) - 1)
    dd = difference(full, p0)
    assert dd.x == full.x - 1 and check_cl(dd).is_cl


def test_construction_guards():
    with pytest.raises(GeometryError):
        construct_base_plane(ctx_of("Q-(5,2)"), 0)
    with pytest.raises(GeometryError):
        construct_embedded(ctx_of("W(3,2)"))
    with pytest.raises(GeometryError):
        construct_embedded(ctx_of("Q+(5,2)"))
    qp7 = ctx_of("Q+(7,2)")
    latin0 = qp7.space.class_members("latin")[0]
    with pytest.raises(GeometryError):
        construct_base_solid(qp7, latin0, "latin")  # center in same class
    with pytest.raises(GeometryError):
        GenSet(qp7, (1 << qp7.n) - 1, "latin")  # not inside the class


def test_intersection_distribution_examples():
    qm = ctx_of("Q-(5,2)")
    gs = construct_point_pencil(qm, 0)
    member = gs.members()[0]
    prof = intersection_profile(gs, member)
    assert prof[0] == 1          # only pi itself
    assert prof[1] == 4          # members meeting pi in a point
    ok, got, exp = profile_verdict(gs, member)
    assert ok and got == exp
    # class-restricted base-solid: a non-member meets 7 members in a line
    qp7 = ctx_of("Q+(7,2)")
    center = qp7.space.class_members("greek")[0]
    bs = construct_base_solid(qp7, center, "latin")
    outsider = next(g for g in qp7.space.class_members("latin")
                    if not (bs.mask >> g) & 1)
    ok, got, exp = profile_verdict(bs, outsider)
    assert ok
    assert got[1] == 7           # i = 1 row of the class distribution
    # type III: no closed form applies
    q6 = ctx_of("Q(6,2)")
    hc = construct_hyperbolic_class(q6, 0)
    ok, got, exp = profile_verdict(hc, hc.members()[0])
    assert ok is None and exp is None
    # nor to full sets of an even-rank hyperbolic quadric, where S has d - 1
    ok, _, exp = profile_verdict(construct_point_pencil(qp7, 0), 0)
    assert ok is None and exp is None
    # but the grid Q+(3,2) has S = {0, 1}, so its Cameron-Liebler sets
    # follow the closed form: two disjoint pencils, x = 2
    grid = ctx_of("Q+(3,2)")
    rows = grid.space.point_gen_masks()
    two = GenSet(grid, rows[0] | next(r for r in rows if not r & rows[0]))
    assert two.x == 2 and check_cl(two).is_cl
    assert all(profile_verdict(two, g)[0] is True for g in range(grid.n))


def test_z_profile():
    qm = ctx_of("Q-(5,2)")
    gs = construct_point_pencil(qm, 0)
    sp = qm.space
    outsider = next(g for g in range(qm.n) if not (gs.mask >> g) & 1)
    point = next(iter([p for p in range(len(sp.points))
                       if (sp.gen_point_masks[outsider] >> p) & 1]))
    ok, z = z_profile(gs, outsider, point)
    assert ok
    with pytest.raises(GeometryError):
        z_profile(gs, gs.members()[0], 0)
    q6 = ctx_of("Q(6,2)")
    with pytest.raises(GeometryError):
        z_profile(construct_point_pencil(q6, 0), 0, 0)  # type III


def test_z_profile_rank3():
    # nontrivial recursion on the type I rank-3 space Q+(5,2)
    ctx = ctx_of("Q+(5,2)")
    gs = construct_point_pencil(ctx, 0)
    sp = ctx.space
    checked = 0
    for pi in range(ctx.n):
        if (gs.mask >> pi) & 1:
            continue
        for point in range(len(sp.points)):
            if (sp.gen_point_masks[pi] >> point) & 1:
                ok, z = z_profile(gs, pi, point)
                assert ok, (pi, point, z)
                checked += 1
        if checked > 30:
            break
    assert checked > 30


def test_mixed_class_pencil_set():
    # two half-pencils in opposite classes, non-collinear vertices:
    # Cameron-Liebler with x = 1 on Q+(7,2) but NOT in im(A^t)
    qp7 = ctx_of("Q+(7,2)")
    sp = qp7.space
    other = next(p for p in range(1, len(sp.points))
                 if sp.form.pair(sp.points[0], sp.points[p]) != 0)
    mixed = (sp.point_gen_masks()[0] & sp.class_mask("latin")) | \
        (sp.point_gen_masks()[other] & sp.class_mask("greek"))
    gs = GenSet(qp7, mixed)
    rep = check_cl(gs)
    assert rep.is_cl and gs.x == 1
    assert not image_membership(qp7.scheme, gs.chi(), "A")
    # negative control on the odd-rank quadric: the analogous mixed set is
    # not Cameron-Liebler there, consistent with type I equivalence
    qp5 = ctx_of("Q+(5,2)")
    sp5 = qp5.space
    other5 = next(p for p in range(1, len(sp5.points))
                  if sp5.form.pair(sp5.points[0], sp5.points[p]) != 0)
    mixed5 = (sp5.point_gen_masks()[0] & sp5.class_mask("latin")) | \
        (sp5.point_gen_masks()[other5] & sp5.class_mask("greek"))
    gs5 = GenSet(qp5, mixed5)
    rep5 = check_cl(gs5)
    assert not rep5.is_cl
    assert not image_membership(qp5.scheme, gs5.chi(), "A")


def test_full_class_is_not_cl_despite_image_parts():
    # the whole latin class: both restrictions lie in im(A'^t) (parameters
    # 9 and 0) but the parameters differ, so the set is not Cameron-Liebler
    # and every verdict, the image one included, must say so
    qp7 = ctx_of("Q+(7,2)")
    gs = GenSet(qp7, qp7.space.class_mask("latin"))
    assert gs.x == Fraction(9, 2)
    rep = check_cl(gs)
    assert not rep.is_cl
    assert rep.verdicts["image"] is False
    assert not any(v for v in (rep.verdicts["disjointness_counts"],
                               rep.verdicts["eigenvector"],
                               rep.verdicts["eigenspace"]))
    for lab, expect_x in (("latin", 9), ("greek", 0)):
        rs = qp7.restricted(lab)
        part = GenSet(qp7, gs.mask & qp7.space.class_mask(lab), lab)
        assert part.x == expect_x
        assert class_image_membership(rs, part.chi(rs.members))


def test_characterisation_II_bis():
    # a full set on Q+(7,2) is CL iff both class restrictions are class-CL
    qp7 = ctx_of("Q+(7,2)")
    sp = qp7.space
    cases = [construct_point_pencil(qp7, 0).mask,
             sp.class_mask("latin"),
             construct_point_pencil(qp7, 5).mask | (1 << 0)]
    for mask in cases:
        full_rep = check_cl(GenSet(qp7, mask))
        latin = GenSet(qp7, mask & sp.class_mask("latin"), "latin")
        greek = GenSet(qp7, mask & sp.class_mask("greek"), "greek")
        both = check_cl(latin).is_cl and check_cl(greek).is_cl \
            and latin.x == greek.x
        assert full_rep.is_cl == both


def test_type_iv_exposes_no_image_test():
    # W(5,3): symplectic of odd rank over an odd field. The disjointness,
    # eigenvector and eigenspace tests all work; the image verdict is None
    # because no incidence matrix is known to characterise these sets.
    ctx = ctx_of("W(5,3)")
    assert ctx.type == "IV"
    assert eigenspace_indices(ctx.space.desc) == {0, 1, 3}
    gs = construct_point_pencil(ctx, 0)
    rep = check_cl(gs)
    assert rep.verdicts["disjointness_counts"] is True
    assert rep.verdicts["eigenvector"] is True
    assert rep.verdicts["eigenspace"] is True
    assert rep.verdicts["image"] is None
    assert rep.is_cl and gs.x == 1
    comp = complement(gs)
    assert check_cl(comp).is_cl and comp.x == 27  # q^{e+d-1} + 1 - 1


def test_hermitian_odd_square_order():
    # H(3,9): rank 2 over GF(9), 280 points and 112 lines
    ctx = ctx_of("H(3,9)")
    assert ctx.n == 112 and len(ctx.space.points) == 280
    gs = construct_point_pencil(ctx, 0)
    rep = check_cl(gs)
    assert rep.is_cl and gs.x == 1
    assert gs.size == 4  # sqrt(q) + 1 lines through a point


def test_parameter_integrality_on_positive_verdicts():
    for name in ("W(3,2)", "Q(6,2)", "H(3,4)"):
        ctx = ctx_of(name)
        for p in (0, 1):
            gs = construct_point_pencil(ctx, p)
            rep = check_cl(gs)
            assert rep.is_cl and gs.x.denominator == 1


# -- the list-based battery, kept as the reference for the popcount form --------


def reference_eigenvector(gs):
    """Statement (ii) as a list matvec: K (N chi - |L| j) against lam times it,
    with N the closed-form generator count (class size on a class)."""
    ctx = gs.ctx
    if gs.class_label is None:
        lam = -qint(ctx.q, binom2(ctx.d - 1) + ctx.e * (ctx.d - 1))
        w = [num_generators(ctx.d, ctx.e, ctx.q) * c - gs.size for c in gs.chi()]
        kw = ctx.scheme.matvec_mask(ctx.scheme.K, w)
    else:
        members = ctx.restricted(gs.class_label).members
        lam = -qint(ctx.q, binom2(ctx.d - 1))
        w = [len(members) * c - gs.size for c in gs.chi(members)]
        at = dict(zip(members, w))  # K'[g] = K[g]: even distance d stays
        kw = [sum(at[h] for h in _bits(ctx.scheme.K[g])) for g in members]
    bad = [i for i, (a, b) in enumerate(zip(kw, w)) if a != lam * b]
    return not bad, bad[0] if bad else None


def reference_eigenspace(gs):
    """Statement (iii) with every annihilator factor applied to the chi list."""
    ctx = gs.ctx
    if gs.class_label is None:
        S = sorted(eigenspace_indices(ctx.space.desc))
        return eigenspace_membership(ctx.scheme, gs.chi(), S), S
    rs = ctx.restricted(gs.class_label)
    return eigenspace_membership(rs, gs.chi(rs.members), {0, 1}), [0, 1]


def battery_cases(ctx, rng, label=None):
    """Pencils, their near-misses, pencil unions and random sets, seeded."""
    sp = ctx.space
    universe = sp.class_members(label) if label else list(range(ctx.n))
    cap = sp.class_mask(label) if label else (1 << ctx.n) - 1
    rows = sp.point_gen_masks()
    masks = [0, cap]
    for p in rng.sample(range(len(sp.points)), 4):
        pencil = rows[p] & cap
        inside = [g for g in universe if (pencil >> g) & 1]
        outside = [g for g in universe if not (pencil >> g) & 1]
        drop, extra = rng.choice(inside), rng.choice(outside)
        masks += [pencil, cap & ~pencil, pencil & ~(1 << drop),
                  pencil | (1 << extra), (pencil & ~(1 << drop)) | (1 << extra),
                  pencil | (rows[rng.randrange(len(sp.points))] & cap)]
    for size in [len(universe) // 4, len(universe) // 2] + [
            rng.randrange(len(universe) + 1) for _ in range(6)]:
        masks.append(sum(1 << g for g in rng.sample(universe, size)))
    return [GenSet(ctx, m, label) for m in masks]


@pytest.mark.parametrize("name, label", [
    ("W(3,2)", None), ("Q-(5,2)", None), ("Q(6,2)", None),
    ("Q+(7,2)", "latin"), ("Q+(7,2)", "greek")])
def test_popcount_battery_matches_list_reference(name, label):
    ctx = ctx_of(name)
    rng = random.Random(f"battery:{name}:{label}")
    verdicts = set()
    for gs in battery_cases(ctx, rng, label):
        assert eigenvector_test(gs) == reference_eigenvector(gs), hex(gs.mask)
        assert eigenspace_test(gs) == reference_eigenspace(gs), hex(gs.mask)
        verdicts.add(eigenvector_test(gs)[0])
    assert verdicts == {True, False}  # both outcomes were exercised


# type I desk spaces: every statement, the image one too, is equivalent
# to being Cameron-Liebler
@st.composite
def generator_sets(draw):
    """Unions of point pencils with a few generators flipped: disjoint
    pencils are Cameron-Liebler, overlapping ones and flips mostly not."""
    ctx = ctx_of(draw(st.sampled_from(("W(3,2)", "Q(4,2)", "Q-(5,2)"))))
    rows = ctx.space.point_gen_masks()
    mask = 0
    for p in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        mask |= rows[p]
    for g in draw(st.lists(st.integers(0, ctx.n - 1), max_size=2)):
        mask ^= 1 << g
    return GenSet(ctx, mask)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_sets())
def test_characterisations_agree(gs):
    rep = check_cl(gs)
    assert len(set(rep.verdicts.values())) == 1, rep.verdicts
    assert (rep.verdicts["eigenvector"],
            rep.witnesses.get("eigenvector")) == reference_eigenvector(gs)
    assert rep.verdicts["eigenspace"] == reference_eigenspace(gs)[0]


# -- the battery against its member-loop, Fraction-count reference -------------

_SPREADS = {"W(3,2)": 6, "Q(4,2)": 6, "Q-(5,2)": 20, "W(3,3)": 20,
            "H(3,4)": 0, "Q+(5,2)": 0}  # spreads passed on each space


def reference_cases(ctx, label, rng):
    """Pencils, complements and random masks in every size band (none, a
    few, about a pencil, about half, all) in one universe; on Omega also
    hyperbolic classes (type III) and sets across both classes (type II)."""
    sp, u = ctx.space, ctx.restricted(label)
    rows, N, p = sp.point_gen_masks(), len(u.members), u.pencil
    pencils = [construct_point_pencil(ctx, pt, label)
               for pt in rng.sample(range(len(sp.points)), 3)]
    masks = [gs.mask for gs in pencils] + [complement(gs).mask for gs in pencils]
    for size in (0, 1, 2, 3, p - 1, p, p + 1, N // 2, N // 2 + 1, N - 1, N):
        masks.append(sum(1 << g for g in rng.sample(u.members, size)))
    if label is None and ctx.type == "III":
        classes = sp.hyperbolic_classes()
        masks += [classes[i] for i in rng.sample(range(len(classes)), 2)]
    if label is None and ctx.type == "II":
        latin, greek = sp.class_mask("latin"), sp.class_mask("greek")
        a, b = rng.sample(range(len(sp.points)), 2)
        masks += [latin, greek, rows[a] & latin, (rows[a] & latin) | (rows[b] & greek),
                  greek | (rows[a] & latin), (rows[a] | rows[b]) & latin]
    return [GenSet(ctx, m, label) for m in masks]


@pytest.mark.parametrize("name, label", [
    ("W(3,2)", None), ("Q(4,2)", None), ("Q-(5,2)", None), ("W(3,3)", None),
    ("H(3,4)", None), ("Q+(5,2)", None), ("Q(6,2)", None), ("W(5,2)", None),
    ("Q+(7,2)", None), ("Q+(7,2)", "latin"), ("Q+(7,2)", "greek")])
def test_battery_matches_the_member_loop_reference(name, label):
    # one (iii) sum shared with the image test, selector sums and integer
    # counts in (i) and (iv) give the same report bytes as the plain form
    ctx = ctx_of(name)
    rng = random.Random(f"reference:{name}:{label}")
    spreads = None
    if label is None and name in _SPREADS:
        spreads = find_spreads(ctx.space).solutions[:_SPREADS[name]]
    outcomes = set()
    for gs in reference_cases(ctx, label, rng):
        got = check_cl(gs, spreads=spreads).to_json()
        assert json.dumps(got) == json.dumps(
            reference_check_cl(gs, spreads).to_json()), hex(gs.mask)
        outcomes.add(got["is_cameron_liebler"])
    assert outcomes == {True, False}


@pytest.mark.under_optimize("test_battery_matches_the_member_loop_reference")
def test_battery_matches_the_member_loop_reference_under_optimize(
        run_under_optimize):
    run_under_optimize(11)


@pytest.mark.parametrize("name, label", [
    ("Q-(5,2)", None), ("Q(6,2)", None), ("Q+(7,2)", "latin")])
def test_alternating_masks_carry_nothing_between_checks(name, label):
    # a pencil and the same pencil with one generator flipped, in turn on
    # one universe: a verdict or witness kept from the previous call or
    # mask would show in the next report
    ctx = ctx_of(name)
    members = ctx.restricted(label).members
    for pt in range(4):
        cl = construct_point_pencil(ctx, pt, label)
        non = GenSet(ctx, cl.mask ^ 1 << members[pt], label)
        for gs in (cl, non, cl, non):
            rep = check_cl(gs)
            assert rep.to_json() == reference_check_cl(gs).to_json()
            assert rep.is_cl is (gs is cl)
            assert rep.verdicts["eigenspace"] is rep.verdicts["image"] is rep.is_cl


def test_image_reads_the_eigenspace_verdict_only_for_the_same_sum():
    # a contrary verdict handed in stands for the sum of the one part on
    # types I and III and on a class; the class parts of a type II full set
    # have their own combination, even where their mask is the set's (the
    # empty set)
    for name, label in (("W(3,2)", None), ("Q(6,2)", None), ("Q+(7,2)", "latin")):
        gs = construct_point_pencil(ctx_of(name), 0, label)
        assert image_test(gs)[0] is True and image_test(gs, False)[0] is False
    ctx = ctx_of("Q+(7,2)")
    for gs in (GenSet(ctx, 0), construct_point_pencil(ctx, 0)):
        assert image_test(gs)[0] is True and image_test(gs, False)[0] is True
    gs = GenSet(ctx, ctx.space.class_mask("latin") | ctx.space.class_mask("greek"))
    assert image_test(gs, False)[0] is True
    non = GenSet(ctx, 1 << ctx.space.class_members("latin")[0])
    assert image_test(non)[0] is False and image_test(non, True)[0] is False


# -- verification that survives python -O --------------------------------------


class _OutOfRange(GenSet):
    x = Fraction(9)  # above q^{e+d-1} + 1 = 5 on W(3,2)


def _regular_rows_zeroed(monkeypatch):
    sp = get_space_by_name("W(3,2)")
    monkeypatch.setattr(sp, "point_gen_masks", lambda: [0] * len(sp.points))
    return is_regular_system(GenSet(ctx_of("W(3,2)"), (1 << 15) - 1), 3)


@pytest.mark.parametrize("route", [
    pytest.param(lambda mp: check_cl(GenSet(ctx_of("W(3,2)"), 1)),
                 id="non-integral-x"),
    pytest.param(lambda mp: check_cl(_OutOfRange(ctx_of("W(3,2)"), 1)),
                 id="x-out-of-range"),
    pytest.param(_regular_rows_zeroed, id="regular-routes-disagree"),
    pytest.param(lambda mp: expected_profile_type_I(2, 1, 2, Fraction(1, 3), False),
                 id="profile-type-I"),
    pytest.param(lambda mp: expected_profile_type_I(4, 0, 2, Fraction(1, 3), False,
                                                    range(0, 5, 2)),
                 id="profile-class"),
])
def test_failed_verification_raises(monkeypatch, route):
    # a positive verdict is forced, so only the parameter check can object
    monkeypatch.setattr(clsets, "test_disjointness_counts",
                        lambda gs: (True, None))
    with pytest.raises(VerificationError):
        route(monkeypatch)


@pytest.mark.under_optimize("test_failed_verification_raises")
def test_failed_verification_raises_under_optimize(run_under_optimize):
    run_under_optimize(5)


@pytest.mark.parametrize("name, label", [("W(3,2)", None),
                                         ("Q+(7,2)", "latin")])
def test_tampered_disjointness_degree_raises(name, label):
    # one K bit flipped inside the universe breaks p (k' + f) = N f at the
    # row it is in, so statement (ii) cannot be read off statement (i)
    ctx = CLContext(get_space_by_name(name))
    members = ctx.space.class_members(label) if label else range(ctx.n)
    pi, t = members[3], members[7]
    ctx.scheme.K[pi] ^= 1 << t
    with pytest.raises(VerificationError, match=rf"\|K_{pi} \^ U\| is"):
        eigenvector_test(GenSet(ctx, 0, label))
    with pytest.raises(VerificationError, match=rf"\|K_{pi} \^ U\| is"):
        check_cl(GenSet(ctx, 0, label))


@pytest.mark.under_optimize("test_tampered_disjointness_degree_raises")
def test_tampered_disjointness_degree_raises_under_optimize(run_under_optimize):
    run_under_optimize(2)


# -- generator incidence read off the relations ----------------------------------

@pytest.mark.parametrize("name", ["Q+(5,2)", "Q(6,2)", "W(5,2)", "Q(6,3)",
                                  "W(5,3)"])
def test_base_planes_match_the_pair_loop(name):
    # only Q(6,q) and W(5,2q) have base-planes (type III), but on every
    # rank-3 space the planes at distance <= 1 meet in at least a line
    ctx = ctx_of(name)
    A, sp = ctx.scheme.A, ctx.space
    step = 1 if ctx.q == 2 else 5  # every fifth plane at q = 3
    for g in range(0, ctx.n, step):
        mask = A[0][g] | A[1][g]
        assert mask == reference_base_plane(sp, g), (name, g)
        if ctx.type == "III":
            assert construct_base_plane(ctx, g).mask == mask
    if ctx.type != "III":
        with pytest.raises(GeometryError, match="base-plane needs"):
            construct_base_plane(ctx, 0)


@pytest.mark.parametrize("label", ["latin", "greek"])
def test_base_solids_match_the_pair_loop(label):
    ctx = ctx_of("Q+(7,2)")
    other = "greek" if label == "latin" else "latin"
    for center in ctx.space.class_members(other):
        assert (construct_base_solid(ctx, center, label).mask
                == reference_base_solid(ctx.space, center, label))


TYPE_I_DESK = ["Q+(5,2)", "Q(4,2)", "Q-(5,2)", "W(3,2)", "W(3,3)",
               "H(3,4)", "H(4,4)"]


@pytest.mark.parametrize("name", TYPE_I_DESK)
def test_z_profiles_match_the_member_loop(name):
    # every probe (pi, P) of a pencil and of a seeded random set
    ctx = ctx_of(name)
    assert ctx.type == "I"
    sp, rng = ctx.space, random.Random(name)
    sets = [construct_point_pencil(ctx, 0),
            GenSet(ctx, rng.getrandbits(ctx.n))]
    for gs in sets:
        for pi in range(ctx.n):
            if (gs.mask >> pi) & 1:
                continue
            for point in _bits(sp.gen_point_masks[pi]):
                ok, z = z_profile(gs, pi, point)
                assert z == reference_z(gs, pi, point), (name, pi, point)
                if gs is sets[0]:
                    assert ok, (name, pi, point, z)


def test_unknown_class_label_raises():
    ctx = ctx_of("Q+(7,2)")
    with pytest.raises(GeometryError, match="no generator class 'Latin'"):
        GenSet(ctx, 0, "Latin")
    with pytest.raises(GeometryError, match="no generator class 'Latin'"):
        ctx.space.class_mask("Latin")
    assert GenSet(ctx, 0, "latin").universe.N == 135
