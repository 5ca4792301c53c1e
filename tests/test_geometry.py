"""Forms, isotropy, perp, hyperplane sections, canonical subspaces."""

import pytest

from polarcl.counting import num_points
from polarcl.enumeration import get_space_by_name
from polarcl.geometry import (Form, GeometryError, all_hyperplanes,
                              all_projective_points, classify_hyperplane_section,
                              descriptor, descriptor_from_name, gf_rref,
                              perp, section_point_count)
from polarcl.gf import FieldError, field

from gf_reference import gf_in_span
from reference import is_totally_isotropic


def test_descriptor_parameters():
    assert descriptor_from_name("Q+(5,2)").e == 0
    assert descriptor_from_name("H(3,4)").e == 0.5
    assert descriptor_from_name("W(3,2)").e == 1
    assert descriptor_from_name("Q(6,2)").e == 1
    assert descriptor_from_name("H(4,4)").e == 1.5
    assert descriptor_from_name("Q-(5,2)").e == 2


def test_descriptor_validation():
    with pytest.raises(GeometryError):
        descriptor("Q+", 3, 2, dim=6)       # wrong ambient dimension
    with pytest.raises(GeometryError):
        descriptor("H", 2, 2, dim=3)        # Hermitian needs square order
    with pytest.raises(GeometryError):
        descriptor("H", 2, 4)               # Hermitian needs explicit dim
    with pytest.raises(GeometryError):
        descriptor("X", 2, 2)


def test_descriptor_messages_build_no_field():
    # a prime power of any size is accepted from its factorisation alone
    assert descriptor_from_name("W(3,65537)").q == 65537
    with pytest.raises(GeometryError, match="square field order, got q=8"):
        descriptor("H", 2, 8, dim=3)
    with pytest.raises(GeometryError, match="square field order, got q=65537"):
        descriptor("H", 2, 65537, dim=3)
    for q, message in ((6, "6 is not a prime power"),
                       (1, "field order must be >= 2, got 1")):
        with pytest.raises(FieldError, match=message):
            descriptor("W", 2, q)


def test_evaluate_form_examples():
    f = Form(descriptor_from_name("Q+(5,2)"))
    assert f.evaluate((1, 0, 0, 0, 0, 0)) == 0
    assert f.evaluate((1, 1, 0, 0, 0, 0)) == 1
    h = Form(descriptor_from_name("H(3,4)"))
    omega = 2
    # 1^3 + omega^3 = 1 + 1 = 0 in GF(4)
    assert h.evaluate((1, omega, 0, 0)) == 0
    with pytest.raises(GeometryError):
        f.evaluate((1, 0, 0))


def test_symplectic_pairing_matrix():
    w = Form(descriptor_from_name("W(3,2)"))
    # f(e_i, e'_j) = delta_ij with basis order (e_1, e_2, e'_1, e'_2)
    assert w.pair((1, 0, 0, 0), (0, 0, 1, 0)) == 1
    assert w.pair((1, 0, 0, 0), (0, 0, 0, 1)) == 0
    assert w.pair((1, 0, 0, 0), (0, 1, 0, 0)) == 0
    w3 = Form(descriptor_from_name("W(3,3)"))
    # alternating over odd characteristic: f(u,v) = -f(v,u)
    u, v = (1, 2, 0, 1), (0, 1, 1, 1)
    assert w3.pair(u, v) == w3.gf.neg(w3.pair(v, u))
    assert w3.pair(u, u) == 0


def test_hermitian_pairing_conjugate_symmetric():
    h = Form(descriptor_from_name("H(3,4)"))
    gf = h.gf
    pts = all_projective_points(gf, 3)[:20]
    for u in pts:
        for v in pts:
            assert h.pair(u, v) == gf.conjugate(h.pair(v, u))


def test_is_totally_isotropic_examples():
    w = Form(descriptor_from_name("W(3,2)"))
    assert is_totally_isotropic(((1, 0, 0, 0), (0, 1, 0, 0)), w)
    qp = Form(descriptor_from_name("Q+(5,2)"))
    assert is_totally_isotropic(((1, 0, 0, 0, 0, 0),), qp)
    assert not is_totally_isotropic(
        ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)), qp)


def test_perp_of_whole_space_is_empty():
    w = Form(descriptor_from_name("W(3,2)"))
    whole = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert perp(whole, w) == ()


def test_perp_of_point_in_w32_is_plane_containing_it():
    w = Form(descriptor_from_name("W(3,2)"))
    pt = (1, 0, 0, 0)
    pp = perp((pt,), w)
    assert len(pp) == 3  # a plane
    # contains the point itself (symplectic)
    from polarcl.linalg import gf_rref as rr
    rows, pivots = rr(pp, w.gf)
    assert gf_in_span(pt, rows, pivots, w.gf)


def test_perp_of_nonisotropic_point_parabolic():
    from polarcl.linalg import gf_rref as rr

    def section_size(form, pt):
        pp = perp((pt,), form)
        assert len(pp) == form.desc.nvars - 1  # a hyperplane
        iso = [p for p in all_projective_points(form.gf, form.desc.dim)
               if form.evaluate(p) == 0]
        rows, pivots = rr(pp, form.gf)
        return sum(1 for p in iso if gf_in_span(p, rows, pivots, form.gf))

    # q odd: the polarity is nondegenerate and the polar hyperplane of a
    # suitable non-isotropic point cuts a hyperbolic Q+(3,3): (q+1)^2 points
    q3 = Form(descriptor_from_name("Q(4,3)"))
    sizes3 = {section_size(q3, pt)
              for pt in all_projective_points(q3.gf, 4)[:60]
              if q3.evaluate(pt) != 0}
    assert 16 in sizes3 and sizes3 <= {16, 10}
    # q even: every polar hyperplane passes through the nucleus, so the
    # section is a 7-point cone instead (brute-force count)
    q2 = Form(descriptor_from_name("Q(4,2)"))
    pt = (0, 1, 1, 0, 0)  # Q = X1 X2 = 1, not the nucleus (1,0,0,0,0)
    assert q2.evaluate(pt) == 1
    assert section_size(q2, pt) == 7


def test_perp_involution_and_inclusion_reversal():
    for name in ("W(3,2)", "Q-(5,2)", "H(3,4)", "W(3,3)", "Q+(5,2)"):
        sp = get_space_by_name(name)
        f = sp.form
        for rows in sp.levels[sp.d][:6]:
            pp = perp(rows, f)
            assert perp(pp, f) == rows
            assert len(pp) == sp.desc.nvars - len(rows)
        # inclusion reversal: point inside generator => gen^perp <= pt^perp
        gen = sp.levels[sp.d][0]
        pt = (gen[0],)
        gp, pv = gf_rref(perp(pt, f), sp.gf)
        for row in perp(gen, f):
            assert gf_in_span(row, gp, pv, sp.gf)


def test_isotropic_point_counts_q2_q3():
    for name in ("W(3,2)", "W(3,3)", "Q(4,2)", "Q+(3,2)", "Q+(5,2)",
                 "Q-(5,2)", "Q(6,2)", "Q+(3,3)", "Q(4,3)"):
        sp = get_space_by_name(name)
        assert len(sp.points) == num_points(sp.d, sp.desc.e, sp.desc.q)


def test_rref_is_canonical():
    gf2 = field(2)
    rows = ((1, 1, 0, 1), (0, 1, 1, 0))
    base = gf_rref(rows, gf2)[0]
    # any row operations produce the same canonical matrix
    assert gf_rref(((1, 0, 1, 1), (0, 1, 1, 0)), gf2)[0] == base
    assert gf_rref((rows[1], rows[0]), gf2)[0] == base
    gf3 = field(3)
    r = gf_rref(((2, 1, 0), (1, 1, 1)), gf3)[0]
    assert r[0][0] == 1 and r[1][r[1].index(1)] == 1


def test_point_normalisation():
    pts = all_projective_points(field(3), 2)
    assert len(pts) == 13
    for p in pts:
        lead = next(x for x in p if x)
        assert lead == 1
    assert pts == sorted(pts)


def test_classify_sections_q42():
    sp = get_space_by_name("Q(4,2)")
    seen = {}
    for a in all_hyperplanes(sp.gf, 4):
        label = classify_hyperplane_section(sp.form, a, sp.points)
        count = section_point_count(sp.form, a, sp.points)
        seen.setdefault(label, set()).add(count)
    assert seen["hyperbolic"] == {9}
    assert seen["elliptic"] == {5}
    assert "tangent" in seen


def test_classify_tangent_section_q62():
    sp = get_space_by_name("Q(6,2)")
    # the polarization perp of a quadric point is its tangent hyperplane
    pt = sp.points[0]
    gf = sp.gf
    a = [0] * 7
    for j in range(7):
        acc = 0
        for i in range(7):
            if pt[i] and sp.form.pairing_matrix[i][j]:
                acc = gf.add(acc, gf.mul(pt[i], sp.form.pairing_matrix[i][j]))
        a[j] = acc
    assert classify_hyperplane_section(sp.form, a, sp.points) == "tangent"
    with pytest.raises(GeometryError):
        classify_hyperplane_section(sp.form, [0] * 7, sp.points)


def test_generator_maximality_q2():
    # no generator of these spaces extends to a larger totally isotropic
    # subspace: every isotropic point of the perp already lies inside
    for name in ("W(3,2)", "Q+(5,2)", "Q-(5,2)"):
        sp = get_space_by_name(name)
        for g in sp.generators[:10]:
            rows, pivots = gf_rref(g, sp.gf)
            for p in sp.points:
                if all(sp.form.pair(r, p) == 0 for r in g):
                    if sp.form.is_isotropic_point(p):
                        assert gf_in_span(p, rows, pivots, sp.gf)
