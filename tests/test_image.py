"""Image membership from the Gram element M^t M: the closed-form
characterisation table (statement (i)'s kernel and S_M against statement
(iii)'s S), the ranks, the preimage certificate, and each certificate
under tampering."""

import re
from fractions import Fraction
from math import prod

import pytest

import polarcl.scheme as scheme
from polarcl.clsets import (construct_hyperbolic_class, construct_point_pencil,
                            get_context, space_type)
from polarcl.counting import EigenvalueTable, binom2, pencil_size, qint
from polarcl.enumeration import get_space_by_name
from polarcl.geometry import VerificationError, descriptor
from polarcl.scheme import (Image, SchemeContext, eigenspace_indices,
                            image_support)

from reference import image_kernel

QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)  # prime powers <= 25
HERMITIAN_QS = (4, 9, 16, 25)


def _descriptors():
    """All five families at d = 2..7, the Hermitian ones in both ambient
    dimensions: 384 spaces, none enumerated."""
    for d in range(2, 8):
        for q in QS:
            for family in ("Q+", "Q-", "Q", "W"):
                yield descriptor(family, d, q)
        for q in HERMITIAN_QS:
            for dim in (2 * d - 1, 2 * d):
                yield descriptor("H", d, q, dim)


def _statement_i_kernel(P, p, f) -> set[int]:
    """{j : theta_j = 0} for T_K = f (p-1) A'_0 - f sum_{0<i<m} A'_i
    + (p-f) A'_m, A'_m the disjointness relation: statement (i) reads
    T_K chi = p K chi + p f chi - f |L| j = 0, so it holds exactly on the
    sum of the V'_j where the eigenvalue theta_j of T_K vanishes."""
    return {j for j, row in enumerate(P)
            if f * (p - 1) * row[0] - f * sum(row[1:-1]) + (p - f) * row[-1] == 0}


def test_image_support_matches_the_characterisation_table():
    # the paper's table as algebra on the closed-form eigenvalues: (i) <=>
    # (iii) on every space and class, and the image statement where
    # `space_type` claims one; this guards the hand-written `space_type`
    # and `eigenspace_indices` tables
    seen = {"I": 0, "II": 0, "III": 0, "IV": 0}
    for desc in _descriptors():
        d, q, e = desc.rank, desc.q, Fraction(desc.e)
        P, S = EigenvalueTable(d, e, q).P, eigenspace_indices(desc)
        f = qint(q, binom2(d - 1) + e * (d - 1))  # also the class's: e = 0
        assert _statement_i_kernel(P, pencil_size(d, e, q), f) == S, desc.name()
        kind = space_type(desc)
        seen[kind] += 1
        if kind == "I":
            assert set(image_support("A", d, q, P)) == S, desc.name()
        elif kind == "III":
            assert set(image_support("B", d, q, P)) == S, desc.name()
        elif kind == "II":
            P_class = [row[::2] for row in P[:d // 2 + 1]]
            p_class = prod(q ** i + 1 for i in range(1, d - 1))
            assert _statement_i_kernel(P_class, p_class, f) == {0, 1}, desc.name()
            assert set(image_support("A'", d, q, P_class)) == {0, 1}, desc.name()
        else:  # no image characterisation: A misses a V_j of S
            assert set(image_support("A", d, q, P)) != S, desc.name()
    assert seen == {"I": 258, "II": 42, "III": 54, "IV": 30}, seen


@pytest.mark.under_optimize("test_image_support_matches_the_characterisation_table")
def test_characterisation_table_under_optimize(run_under_optimize):
    run_under_optimize(1)


DESK = ["Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)",
        "W(3,2)", "W(3,3)", "W(5,2)", "H(3,4)", "H(4,4)"]


def _images(ctx):
    """(Image, reference kernel) for each matrix the image test reads."""
    if ctx.type == "II":
        return [(ctx.restricted(lab).image_basis(),
                 image_kernel(ctx.restricted(lab))) for lab in ("latin", "greek")]
    which = "A" if ctx.type == "I" else "B"
    return [(ctx.scheme.image_basis(which), image_kernel(ctx.scheme, which))]


def test_ranks_are_the_kernel_ranks():
    # the sum of the m_j over S_M against rank_Q(M) by elimination; the
    # desk spaces total the 427 that perfbench reports
    total = 0
    for name in DESK:
        for image, kernel in _images(get_context(get_space_by_name(name))):
            assert image.rank == kernel.rank, name
            total += image.rank
    assert total == 427


def test_preimage_certifies_pencils_and_classes():
    for name in ("W(3,2)", "Q(6,2)", "Q-(5,2)", "H(3,4)"):
        ctx = get_context(get_space_by_name(name))
        image = _images(ctx)[0][0]
        sets = [construct_point_pencil(ctx, p).mask for p in (0, 3)]
        if ctx.type == "III":
            sets.append(construct_hyperbolic_class(ctx, 0).mask)
        for mask in sets:
            assert image.witness(mask) is None
            image.certify(mask)
    ctx = get_context(get_space_by_name("Q+(7,2)"))
    pencil = construct_point_pencil(ctx, 0, "latin").mask
    ctx.restricted("latin").image_basis().certify(pencil)


def test_preimage_rejects_a_set_outside_the_image():
    ctx = get_context(get_space_by_name("W(3,2)"))
    image = ctx.scheme.image_basis("A")
    mask = construct_point_pencil(ctx, 0).mask ^ 1
    assert image.witness(mask) is not None
    with pytest.raises(VerificationError, match=r"of M\^t Y is -?\d+, expected"):
        image.certify(mask)


def _support_one_off(monkeypatch):
    orig = scheme.image_support
    monkeypatch.setattr(scheme, "image_support", lambda *args: {
        j + 1: t for j, t in orig(*args).items()})
    SchemeContext(get_space_by_name("W(3,2)")).image_basis("A")


def _T_column_off(monkeypatch):
    # entry (7, 5) of the cached T one off: the first point row of A
    # through generator 5 reads 1 at column 7 of M T
    sch = SchemeContext(get_space_by_name("W(3,2)"))
    T = sch.combination(eigenspace_indices(sch.space.desc))
    T.cols[5] += 1 << T.width * 7
    sch.image_basis("A")


def _Y_entry_off(monkeypatch):
    orig = Image.preimage

    def off(self, mask):
        Y, s = orig(self, mask)
        Y[0] += 1
        return Y, s
    monkeypatch.setattr(Image, "preimage", off)
    ctx = get_context(get_space_by_name("W(3,2)"))
    ctx.scheme.image_basis("A").certify(construct_point_pencil(ctx, 0).mask)


def _first_row_through(g):
    rows = get_space_by_name("W(3,2)").point_gen_masks()
    return next(r for r, m in enumerate(rows) if m >> g & 1)


def _Y_message():
    ctx = get_context(get_space_by_name("W(3,2)"))
    image = ctx.scheme.image_basis("A")
    pencil = construct_point_pencil(ctx, 0).mask
    g = (pencil & -pencil).bit_length() - 1  # the first generator on point 0
    s = image.preimage(pencil)[1]
    return re.escape(f"W(3,2) M = A: entry {g} of M^t Y is {s + 1}, "
                     f"expected {s}")


IMAGE_TAMPERS = {
    "support-one-index-off": (
        _support_one_off,
        lambda: re.escape("W(3,2) M = A: M^t M is nonzero on V_j for j in "
                          "S_M = [1, 2], expected statement (iii)'s S = [0, 1]")),
    "T-column-off": (
        _T_column_off,
        lambda: re.escape(f"W(3,2) M = A: entry ({_first_row_through(5)}, 7) "
                          f"of M T is 1, expected 0")),
    "Y-entry-off": (_Y_entry_off, _Y_message),
}


@pytest.mark.parametrize("tamper", sorted(IMAGE_TAMPERS))
def test_tampered_image_certificate_raises(monkeypatch, tamper):
    route, message = IMAGE_TAMPERS[tamper]
    expect = message()
    with pytest.raises(VerificationError, match=expect):
        route(monkeypatch)


@pytest.mark.under_optimize("test_tampered_image_certificate_raises")
def test_tampered_image_certificate_raises_under_optimize(run_under_optimize):
    run_under_optimize(len(IMAGE_TAMPERS))
