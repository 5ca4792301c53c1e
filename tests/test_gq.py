"""Generalised quadrangles, tight sets, line-set characterisations."""

import pytest

from polarcl.clsets import construct_embedded, get_context
from polarcl.enumeration import get_space_by_name
from polarcl.gq import (GQ, GQError, classify_tight_set, tight_parameter,
                        tight_set_test)

from reference import gq_cl_report


def gq_of(name):
    return GQ.from_polar(get_space_by_name(name))


def test_classical_orders():
    assert gq_of("W(3,2)").order == (2, 2)
    assert gq_of("Q(4,2)").order == (2, 2)
    assert gq_of("Q-(5,2)").order == (2, 4)
    assert gq_of("H(3,4)").order == (4, 2)
    assert gq_of("H(4,4)").order == (4, 8)
    assert gq_of("Q+(3,2)").order == (2, 1)  # the grid
    assert gq_of("W(3,3)").order == (3, 3)


def test_axiom_validation_rejects_bad_geometry():
    # two lines sharing two points
    with pytest.raises(GQError):
        GQ([(0, 1, 2), (0, 1, 3), (2, 3, 4)], 5)
    # a triangle violates the one-collinear-point axiom
    with pytest.raises(GQError):
        GQ([(0, 1), (1, 2), (2, 0)], 3)


def test_abstract_incidence_accepted():
    # re-feed W(3,2) as raw incidence lists
    sp = get_space_by_name("W(3,2)")
    lines = []
    for pm in sp.gen_point_masks:
        lines.append(tuple(p for p in range(len(sp.points)) if (pm >> p) & 1))
    gq = GQ(lines, len(sp.points), name="abstract")
    assert gq.order == (2, 2)


def test_duality():
    g = gq_of("Q-(5,2)")
    d = g.dual()
    assert d.order == (4, 2)
    assert d.n_points == g.n_lines and d.n_lines == g.n_points
    dd = d.dual()
    assert dd.order == g.order


def test_pencil_is_cl_and_dual_tight():
    g = gq_of("W(3,2)")
    pencil = g.point_lines[0]
    rep = gq_cl_report(g, pencil)
    assert rep["is_cl"] and rep["consistent"] and rep["x"] == 1
    # dually: the pencil is a point set of the dual GQ; 1-tight there
    d = g.dual()
    ok, i, _ = tight_set_test(d, pencil)
    assert ok and i == 1


def test_line_point_set_is_one_tight():
    g = gq_of("W(3,2)")
    lm = g.line_masks[0]
    ok, i, _ = tight_set_test(g, lm)
    assert ok and i == 1
    assert classify_tight_set(g, lm, 1) == "line-union"


def test_all_points_tight():
    g = gq_of("W(3,2)")
    allp = (1 << g.n_points) - 1
    ok, i, _ = tight_set_test(g, allp)
    assert ok and i == g.s * g.t + 1


def test_tight_parameter_needs_divisible_size():
    g = gq_of("W(3,2)")
    assert tight_parameter(g, 0b1111) is None  # 4 points, s+1 = 3
    ok, i, wit = tight_set_test(g, 0b1111)
    assert not ok and i is None
    # correct size but not tight: three mutually non-collinear-ish points
    ok, i, wit = tight_set_test(g, 0b10101)
    assert not ok and i == 1 and wit is not None


def test_subquadrangle_three_tight():
    qm = get_space_by_name("Q-(5,2)")
    gq42 = GQ.from_polar(qm).dual()
    em = construct_embedded(get_context(qm))
    ok, i, _ = tight_set_test(gq42, em.mask)
    assert ok and i == 3
    assert classify_tight_set(gq42, em.mask, 3) == "subquadrangle"


def test_five_statements_consistent_on_corpus():
    import random
    rng = random.Random(99)
    for name in ("W(3,2)", "H(3,4)", "Q+(3,2)"):
        g = gq_of(name)
        masks = [g.point_lines[0], 0, (1 << g.n_lines) - 1]
        for _ in range(15):
            size = rng.randrange(g.n_lines + 1)
            masks.append(sum(1 << x for x in rng.sample(range(g.n_lines), size)))
        for m in masks:
            rep = gq_cl_report(g, m)
            assert rep["consistent"], (name, m)


def test_gq_needs_rank_two():
    with pytest.raises(GQError):
        GQ.from_polar(get_space_by_name("Q(6,2)"))
