"""Canonical enumeration: counts, ordering, classes, hyperbolic classes."""

import pytest

from polarcl.counting import (num_kspaces, num_kspaces_through_mspace,
                              pencil_size)
from polarcl.clsets import GenSet, check_cl, get_context
from polarcl.enumeration import (BudgetError, PolarSpace, certify_isometry,
                                 get_space, get_space_by_name,
                                 symplectic_from_parabolic_map)
from polarcl.geometry import (GeometryError, VerificationError, all_hyperplanes,
                              descriptor, descriptor_from_name, gf_rref,
                              section_point_count)
from polarcl.scheme import SchemeContext

from gf_reference import gf_reduce
from reference import num_disjoint_from_generator

ALL_SPACES = ["Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)",
              "W(3,2)", "W(3,3)", "W(5,2)", "H(3,4)", "H(4,4)"]


def reference_perp_masks(sp):
    """Bit j of mask i is set iff points i and j pair to zero, one pairing
    per pair of points."""
    n = len(sp.points)
    masks = [0] * n
    for i in range(n):
        for j in range(i, n):
            if sp.form.pair(sp.points[i], sp.points[j]) == 0:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def reference_levels(sp):
    """levels[k] by RREF keys: each candidate point is reduced against the
    subspace's echelon rows, and every extension goes through gf_rref."""
    gf, perp = sp.gf, reference_perp_masks(sp)
    levels = {1: [(p,) for p in sp.points]}
    frontier = {(p,): perp[i] for i, p in enumerate(sp.points)}
    for k in range(2, sp.d + 1):
        nxt = {}
        for rows, cand in frontier.items():
            pivots = tuple(next(c for c, x in enumerate(r) if x) for r in rows)
            m = cand
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                p = sp.points[j]
                if not any(gf_reduce(p, rows, pivots, gf)):
                    continue
                new_rows = gf_rref(list(rows) + [p], gf)[0]
                if new_rows not in nxt:
                    nxt[new_rows] = cand & perp[j]
        levels[k] = sorted(nxt)
        frontier = nxt
    return levels


def span_point_mask(sp, rows) -> int:
    """Point bitset of the subspace spanned by rows: every vector of the
    span is walked and normalised."""
    gf = sp.gf
    vecs = [tuple([0] * len(rows[0]))]
    for r in rows:
        vecs = [tuple(gf.add(x, gf.mul(c, y)) for x, y in zip(v, r))
                for v in vecs for c in range(gf.q)]
    mask = 0
    for v in vecs:
        if any(v):
            inv = gf.inv(next(x for x in v if x))
            idx = sp.point_index.get(tuple(gf.mul(inv, x) for x in v))
            if idx is not None:
                mask |= 1 << idx
    return mask


@pytest.mark.parametrize("name", ALL_SPACES)
def test_levels_and_masks_match_the_rref_enumeration(name):
    sp = get_space_by_name(name)
    ref = reference_levels(sp)
    assert sorted(ref) == sorted(sp.levels)
    for k in ref:
        assert sp.levels[k] == ref[k], (name, k)
    assert sp.gen_point_masks == [span_point_mask(sp, g) for g in ref[sp.d]]


@pytest.mark.parametrize("name", ALL_SPACES)
def test_level_counts_reduce_only_the_generators(name, monkeypatch):
    # the counts come from the unsorted frontiers; reading a level's entries
    # reduces and sorts it once
    import polarcl.enumeration as enumeration
    import polarcl.geometry as geometry
    import polarcl.linalg as linalg
    calls = []

    def counted(rows, gf):
        calls.append(len(rows))
        return gf_rref(rows, gf)
    for module in (enumeration, geometry, linalg):
        monkeypatch.setattr(module, "gf_rref", counted)
    sp = PolarSpace(descriptor_from_name(name))
    counts = [len(sp.levels[k]) for k in range(1, sp.d + 1)]
    assert len(calls) == sp.n_generators == counts[-1]
    k = sp.d - 1
    assert list(sp.levels[k]) == sp.levels[k][:] == sorted(sp.levels[k])
    assert len(calls) == sp.n_generators + counts[k - 1]


def test_perp_and_section_masks_match_pairings():
    for name in ("Q(4,2)", "Q-(5,2)", "W(3,3)", "H(3,4)", "H(4,4)"):
        sp = get_space_by_name(name)
        assert sp._perp_masks == reference_perp_masks(sp), name
        gf = sp.gf
        for a in all_hyperplanes(gf, sp.desc.dim):
            mask = sp.section_mask(a)
            assert mask.bit_count() == section_point_count(sp.form, a, sp.points)
            for i, p in enumerate(sp.points):
                dot = 0
                for x, y in zip(a, p):
                    dot = gf.add(dot, gf.mul(x, y))
                assert (mask >> i) & 1 == (dot == 0), (name, a, p)


def test_level_counts_match_closed_forms():
    for name in ALL_SPACES:
        sp = get_space_by_name(name)
        for k in range(1, sp.d + 1):
            assert len(sp.levels[k]) == num_kspaces(
                sp.d, sp.desc.e, sp.desc.q, k - 1), (name, k)


def test_frozen_generator_counts():
    expected = {"Q+(5,2)": 30, "Q+(7,2)": 270, "Q(4,2)": 15, "Q(6,2)": 135,
                "Q-(5,2)": 45, "W(3,2)": 15, "W(3,3)": 40, "W(5,2)": 135,
                "H(3,4)": 27, "H(4,4)": 297}
    for name, n in expected.items():
        assert get_space_by_name(name).n_generators == n
    sp = get_space_by_name("W(3,2)")
    assert len(sp.points) == 15
    assert len(get_space_by_name("Q-(5,2)").points) == 27
    assert len(get_space_by_name("Q-(5,2)").levels[2]) == 45


def test_canonical_order_and_index():
    for name in ("W(3,2)", "Q+(5,2)", "H(3,4)"):
        sp = get_space_by_name(name)
        assert sp.generators == sorted(sp.generators)
        for i, g in enumerate(sp.generators):
            assert sp.gen_index[g] == i
        assert sp.points == sorted(sp.points)


def test_pencil_counts_through_points():
    for name in ALL_SPACES:
        sp = get_space_by_name(name)
        expect = pencil_size(sp.d, sp.desc.e, sp.desc.q)
        rows = sp.point_gen_masks()
        assert all(r.bit_count() == expect for r in rows)


def test_generators_through_sampled_subspaces():
    # closed-form count of generators through a fixed m-space
    for name in ("Q+(5,2)", "Q(6,2)", "Q-(5,2)", "H(3,4)", "W(5,2)"):
        sp = get_space_by_name(name)
        for k in range(1, sp.d):
            expect = num_kspaces_through_mspace(
                sp.d, sp.desc.e, sp.desc.q, sp.d - 1, k - 1)
            for rows in sp.levels[k][:5]:
                mu = span_point_mask(sp, rows)
                through = sum(
                    1 for pm in sp.gen_point_masks if pm & mu == mu)
                assert through == expect, (name, k)


def test_skew_generator_count_brute_force():
    for name in ("W(3,2)", "W(3,3)", "Q+(5,2)", "Q-(5,2)", "H(3,4)"):
        sp = get_space_by_name(name)
        expect = num_disjoint_from_generator(sp.d, sp.desc.e, sp.desc.q)
        for g in range(0, sp.n_generators, 7):
            skew = sum(1 for h in range(sp.n_generators)
                       if sp.intersection_vdim(g, h) == 0)
            assert skew == expect


def test_distance_oracle():
    sp = get_space_by_name("W(3,2)")
    assert sp.distance(0, 0) == 0
    for g in range(sp.n_generators):
        for h in range(sp.n_generators):
            vd = sp.intersection_vdim(g, h)
            assert sp.distance(g, h) == sp.d - vd
            if g != h and vd == 1:
                assert sp.distance(g, h) == 1
            if vd == 0:
                assert sp.distance(g, h) == 2


def test_hyperbolic_quadric_classes():
    grid = get_space_by_name("Q+(3,2)")
    assert grid.class_labels.count("latin") == 3
    assert grid.class_labels.count("greek") == 3
    # lines of the same regulus are disjoint, opposite reguli meet
    for g in range(6):
        for h in range(6):
            if g == h:
                continue
            same = grid.class_labels[g] == grid.class_labels[h]
            assert same == (grid.intersection_vdim(g, h) == 0)
    for name, half in (("Q+(5,2)", 15), ("Q+(7,2)", 135)):
        sp = get_space_by_name(name)
        assert sp.class_labels.count("latin") == half
        assert sp.class_labels.count("greek") == half
        assert sp.class_labels[0] == "latin"


def test_class_disjointness_parity():
    # odd rank: disjoint generators lie in different classes
    qp5 = get_space_by_name("Q+(5,2)")
    for a in range(qp5.n_generators):
        for b in range(a + 1, qp5.n_generators):
            if qp5.intersection_vdim(a, b) == 0:
                assert qp5.class_labels[a] != qp5.class_labels[b]
    # even rank: disjoint generators lie in the same class
    qp7 = get_space_by_name("Q+(7,2)")
    for a in range(0, qp7.n_generators, 13):
        for b in range(qp7.n_generators):
            if b != a and qp7.intersection_vdim(a, b) == 0:
                assert qp7.class_labels[a] == qp7.class_labels[b]


def test_class_relation_is_transitive_on_samples():
    sp = get_space_by_name("Q+(5,2)")
    n = sp.n_generators
    for a in range(0, n, 4):
        for b in range(0, n, 5):
            for c in range(0, n, 6):
                sab = sp.distance(a, b) % 2 == 0
                sbc = sp.distance(b, c) % 2 == 0
                sac = sp.distance(a, c) % 2 == 0
                if sab and sbc:
                    assert sac


def test_hyperbolic_classes_q62():
    sp = get_space_by_name("Q(6,2)")
    classes = sp.hyperbolic_classes()
    assert len(classes) == 72          # two per hyperbolic section
    assert len(classes) // 2 == 36     # hyperbolic hyperplane count
    assert all(m.bit_count() == 15 for m in classes)
    assert classes == sorted(classes)


def test_hyperbolic_classes_match_dot_products():
    # every hyperbolic section's generators found by a.r = 0 on each
    # echelon row, split by the parity of their meet with the first one
    from polarcl.geometry import classify_hyperplane_section
    sp = get_space_by_name("Q(6,2)")
    gf = sp.gf
    expected = []
    for a in all_hyperplanes(gf, 6):
        if classify_hyperplane_section(sp.form, a, sp.points) != "hyperbolic":
            continue
        inside = []
        for g, rows in enumerate(sp.generators):
            dots = set()
            for r in rows:
                acc = 0
                for x, y in zip(a, r):
                    acc = gf.add(acc, gf.mul(x, y))
                dots.add(acc)
            if dots == {0}:
                inside.append(g)
        one = [g for g in inside if sp.intersection_vdim(inside[0], g) % 2 == 0]
        expected.append(sum(1 << g for g in one))
        expected.append(sum(1 << g for g in inside if g not in one))
    assert sp.hyperbolic_classes() == sorted(expected)


def test_hyperbolic_classes_w52_via_parabolic_model():
    sp = get_space_by_name("W(5,2)")
    classes = sp.hyperbolic_classes()
    assert len(classes) == 72
    assert all(m.bit_count() == 15 for m in classes)
    # every generator lies in q^d = 8 of them
    for g in range(sp.n_generators):
        assert sum(1 for m in classes if (m >> g) & 1) == 8


def test_hyperbolic_classes_guards():
    with pytest.raises(GeometryError):
        get_space_by_name("Q(4,2)").hyperbolic_classes()   # even rank
    with pytest.raises(GeometryError):
        get_space_by_name("Q-(5,2)").hyperbolic_classes()  # wrong family


def test_generator_budget_guard():
    with pytest.raises(BudgetError):
        PolarSpace(descriptor("W", 12, 2), generator_budget=10 ** 6)


def test_generator_count_mismatch_raises(monkeypatch):
    import polarcl.enumeration as enumeration
    monkeypatch.setattr(enumeration, "num_generators", lambda d, e, q: 16)
    with pytest.raises(VerificationError,
                       match="enumerated 15 generators, closed form 16"):
        PolarSpace(descriptor("W", 2, 2))


def test_intransitive_class_relation_raises(monkeypatch):
    # odd distance between generators 0 and 1 only: both are at even
    # distance from generator 2, so the relation is not transitive.  The
    # labels put 5 of the 6 lines of the grid in the latin class, but the
    # relations, read off the point counts, put 3 at even distance from 0
    monkeypatch.setattr(PolarSpace, "distance",
                        lambda self, g, h: int({g, h} == {0, 1}))
    sp = PolarSpace(descriptor("Q+", 2, 2))
    with pytest.raises(VerificationError,
                       match=r"generator 0 of Q\+\(3,2\) is at even distance "
                       "from 3 generators, expected the 5 of the latin class"):
        SchemeContext(sp)


def test_class_check_reads_every_generator():
    # only the last label is wrong, and the class masks are right: a check
    # that sampled generators, or stopped at the anchor, would pass it
    sp = PolarSpace(descriptor("Q+", 4, 2))
    last = sp.n_generators - 1
    sp.class_labels[last] = {"latin": "greek", "greek": "latin"}[
        sp.class_labels[last]]
    with pytest.raises(VerificationError, match=f"generator {last} of "
                       r"Q\+\(7,2\) is at even distance from 135 generators, "
                       "expected the 135 of the"):
        SchemeContext(sp)


def test_unbalanced_hyperbolic_section_raises(monkeypatch):
    sp = PolarSpace(descriptor("Q", 3, 2))
    # every generator meets the anchor in a line: all 30 generators of a
    # hyperbolic section land in one class
    monkeypatch.setattr(PolarSpace, "intersection_vdim", lambda self, g, h: 2)
    with pytest.raises(VerificationError,
                       match="classes of 30 and 0, expected 15 each"):
        sp.hyperbolic_classes()


@pytest.mark.under_optimize("test_generator_count_mismatch_raises",
                            "test_intransitive_class_relation_raises",
                            "test_class_check_reads_every_generator",
                            "test_unbalanced_hyperbolic_section_raises")
def test_enumeration_checks_raise_under_optimize(run_under_optimize):
    run_under_optimize(4)


def test_get_space_caches():
    a = get_space("W", 2, 2)
    b = get_space_by_name("W(3,2)")
    assert a is b


def _nucleus_map():
    q6, w5 = get_space_by_name("Q(6,2)"), get_space_by_name("W(5,2)")
    return q6, w5, symplectic_from_parabolic_map(q6, w5)


def test_nucleus_map_with_two_images_swapped_raises():
    q6, w5, mapping = _nucleus_map()
    certify_isometry(q6, w5, mapping)
    swapped = list(mapping)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(VerificationError, match="at distance"):
        certify_isometry(q6, w5, swapped)
    with pytest.raises(VerificationError, match="images"):
        certify_isometry(q6, w5, mapping[:-1])


@pytest.mark.under_optimize("test_nucleus_map_with_two_images_swapped_raises")
def test_nucleus_map_certificate_runs_under_optimize(run_under_optimize):
    run_under_optimize(1)


def test_nucleus_map_transports_cl_verdicts():
    # pencils, unions and differences of two pencils on Q(6,2), carried to
    # W(5,2) along the map, get the same battery verdicts there
    q6, w5, mapping = _nucleus_map()
    cq, cw = get_context(q6), get_context(w5)
    rows = q6.point_gen_masks()
    sets = [rows[p] for p in range(0, len(q6.points), 9)]
    sets += [rows[a] | rows[b] for a, b in ((0, 5), (3, 40), (7, 62))]
    sets += [rows[a] & ~rows[b] for a, b in ((0, 5), (3, 40), (7, 62))]
    for mask in sets:
        image = sum(1 << mapping[g] for g in range(q6.n_generators)
                    if (mask >> g) & 1)
        rq, rw = check_cl(GenSet(cq, mask)), check_cl(GenSet(cw, image))
        assert rq.verdicts == rw.verdicts and rq.x == rw.x, mask
    assert any(check_cl(GenSet(cq, m)).is_cl for m in sets)
    assert not all(check_cl(GenSet(cq, m)).is_cl for m in sets)
