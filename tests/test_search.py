"""Search layer: spreads, regular systems, tight sets, CL classification."""

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import polarcl
from polarcl import search
from polarcl.clsets import (GenSet, check_cl, construct_base_solid,
                            construct_point_pencil,
                            construct_hyperbolic_class, get_context,
                            is_regular_system, union)
from polarcl.enumeration import get_space_by_name
from polarcl.gq import GQ
from polarcl.search import (VerificationError, classify_parameter1,
                            find_cl_bounded, find_cl_parameter1,
                            find_regular_systems, find_spreads,
                            find_tight_sets, max_disjoint_in,
                            union_of_pencils_decomposition)


def test_spreads_w32():
    sp = get_space_by_name("W(3,2)")
    res = find_spreads(sp)
    assert res.exhaustive
    assert len(res.solutions) == 6
    assert all(m.bit_count() == 5 for m in res.solutions)
    ctx = get_context(sp)
    for m in res.solutions:
        assert is_regular_system(GenSet(ctx, m), 1)


def test_spreads_qminus52():
    res = find_spreads(get_space_by_name("Q-(5,2)"))
    assert res.exhaustive
    assert all(m.bit_count() == 9 for m in res.solutions)
    assert len(res.solutions) == 200  # tool record


def test_no_spreads_on_qplus52():
    res = find_spreads(get_space_by_name("Q+(5,2)"))
    assert res.exhaustive and res.solutions == []


def test_spreads_qplus72_are_class_pure():
    sp = get_space_by_name("Q+(7,2)")
    res = find_spreads(sp, max_solutions=4)
    assert res.solutions
    for m in res.solutions:
        labels = {sp.class_labels[g] for g in range(sp.n_generators)
                  if (m >> g) & 1}
        assert len(labels) == 1


def test_budget_truncation_flag():
    res = find_spreads(get_space_by_name("Q-(5,2)"), budget=50)
    assert not res.exhaustive


def test_regular_systems_m0():
    res = find_regular_systems(get_space_by_name("W(3,2)"), 0)
    assert res.solutions == [0]


def test_regular_systems_m1_equal_spreads():
    sp = get_space_by_name("W(3,2)")
    assert sorted(find_regular_systems(sp, 1).solutions) == \
        sorted(find_spreads(sp).solutions)


def test_two_regular_systems_qplus52():
    sp = get_space_by_name("Q+(5,2)")
    res = find_regular_systems(sp, 2)
    assert res.exhaustive
    assert len(res.solutions) == 168  # tool record
    assert all(m.bit_count() == 10 for m in res.solutions)
    filtered = find_regular_systems(sp, 2, eigenspaces={0, 2})
    assert filtered.solutions == res.solutions  # all lie in V0+V2


def test_tight_sets_gq22():
    g = GQ.from_polar(get_space_by_name("W(3,2)"))
    res = find_tight_sets(g, 2)
    assert res.exhaustive
    by = res.meta["by_parameter"]
    assert len(by[1]) == 15
    assert all(s["label"] == "line-union" for s in by[1])
    labels2 = [s["label"] for s in by[2]]
    assert len(by[2]) == 70  # tool record
    assert labels2.count("line-union") == 60
    assert labels2.count("subquadrangle") == 10
    assert "other" not in labels2


def test_cl_parameter1_small():
    w = get_space_by_name("W(3,2)")
    res = find_cl_parameter1(w)
    assert res.exhaustive and len(res.solutions) == 15
    assert all(classify_parameter1(w, m) == "point-pencil"
               for m in res.solutions)
    qm = get_space_by_name("Q-(5,2)")
    res = find_cl_parameter1(qm)
    assert res.exhaustive and len(res.solutions) == 27
    assert all(classify_parameter1(qm, m) == "point-pencil"
               for m in res.solutions)


def test_cl_bounded_w32():
    w = get_space_by_name("W(3,2)")
    res = find_cl_bounded(w, 2)
    assert res.exhaustive
    by = res.meta["by_parameter"]
    assert len(by[1]) == 15
    # 60 disjoint pencil pairs plus 10 grid-type sets (dual of the
    # 2-tight classification of the self-dual quadrangle of order (2,2))
    assert len(by[2]) == 70
    pencil_unions = sum(1 for m in by[2]
                        if union_of_pencils_decomposition(w, m) is not None)
    assert pencil_unions == 60


def test_cl_parameter1_hermitian():
    h = get_space_by_name("H(3,4)")
    res = find_cl_parameter1(h)
    assert res.exhaustive and len(res.solutions) == 45  # one pencil per point
    assert all(classify_parameter1(h, m) == "point-pencil"
               for m in res.solutions)


def test_cl_bounded_fallback_branch_on_grid():
    # Q+(3,2) is not type I, so the bounded search runs on disjointness
    # residuals alone; every reported set re-verifies
    grid = get_space_by_name("Q+(3,2)")
    res = find_cl_bounded(grid, 2)
    assert res.exhaustive
    ctx = get_context(grid)
    for x, sols in res.meta["by_parameter"].items():
        for m in sols:
            gs = GenSet(ctx, m)
            assert check_cl(gs).is_cl and gs.x == x


def test_classify_parameter1_on_constructions():
    q6 = get_space_by_name("Q(6,2)")
    ctx = get_context(q6)
    assert classify_parameter1(
        q6, construct_point_pencil(ctx, 3).mask) == "point-pencil"
    assert classify_parameter1(
        q6, construct_hyperbolic_class(ctx, 5).mask) == "hyperbolic-class"
    from polarcl.clsets import construct_base_plane
    assert classify_parameter1(
        q6, construct_base_plane(ctx, 7).mask) == "base-plane"
    qp7 = get_space_by_name("Q+(7,2)")
    ctx7 = get_context(qp7)
    center = qp7.class_members("greek")[2]
    bs = construct_base_solid(ctx7, center, "latin")
    assert classify_parameter1(qp7, bs.mask, "latin") == "base-solid"
    assert classify_parameter1(
        qp7, construct_point_pencil(ctx7, 1, "latin").mask,
        "latin") == "point-pencil"


def test_max_disjoint_in():
    qp7 = get_space_by_name("Q+(7,2)")
    ctx7 = get_context(qp7)
    pencil = construct_point_pencil(ctx7, 0, "latin")
    assert max_disjoint_in(pencil) == 1
    center = qp7.class_members("greek")[0]
    solid = construct_base_solid(ctx7, center, "latin")
    assert max_disjoint_in(solid) == 1
    # union of two pencils with non-collinear vertices on W(5,2)
    w5 = get_space_by_name("W(5,2)")
    cw = get_context(w5)
    other = next(p for p in range(1, len(w5.points))
                 if w5.form.pair(w5.points[0], w5.points[p]) != 0)
    two = union(construct_point_pencil(cw, 0),
                construct_point_pencil(cw, other))
    assert max_disjoint_in(two) == 2


def test_no_c_disjoint_bound_consistency():
    # if (x-1) q^3 < c (q^3 + x(q^2+q+1)) - C(c+1,2)(2q^2 + x(q+1)) then the
    # set has no c+1 pairwise disjoint members; check on verified class sets
    qp7 = get_space_by_name("Q+(7,2)")
    ctx7 = get_context(qp7)
    q = 2
    center = qp7.class_members("greek")[0]
    sets = [construct_point_pencil(ctx7, 0, "latin"),
            construct_base_solid(ctx7, center, "latin")]
    for gs in sets:
        assert check_cl(gs).is_cl
        x = int(gs.x)
        md = max_disjoint_in(gs)
        for c in range(1, 6):
            lhs = (x - 1) * q ** 3
            rhs = c * (q ** 3 + x * (q * q + q + 1)) \
                - (c + 1) * c // 2 * (2 * q * q + x * (q + 1))
            if lhs < rhs:
                assert md <= c


def test_union_of_pencils_decomposition():
    qm = get_space_by_name("Q-(5,2)")
    cm = get_context(qm)
    p0 = construct_point_pencil(cm, 0)
    assert union_of_pencils_decomposition(qm, p0.mask) == [0]
    other = next(p for p in range(1, len(qm.points))
                 if qm.form.pair(qm.points[0], qm.points[p]) != 0)
    u = union(p0, construct_point_pencil(cm, other))
    assert sorted(union_of_pencils_decomposition(qm, u.mask)) == [0, other]
    q6 = get_space_by_name("Q(6,2)")
    hc = construct_hyperbolic_class(get_context(q6), 0)
    assert union_of_pencils_decomposition(q6, hc.mask) is None


def test_spread_counts_through_disjoint_tuples_are_constant():
    # n_2 (spreads through 2 pairwise disjoint generators) and n_3 are
    # well defined: the counts do not depend on the chosen tuple; the
    # ratio n_2/n_3 is the two-generator disjointness count divided by
    # the remaining spread slots (4 on one class of Q+(7,2))
    grid = get_space_by_name("Q+(3,2)")
    K2 = get_context(grid).scheme.K
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)
             if (K2[a] >> b) & 1]
    counts = {len(find_spreads(grid, containing=pair).solutions)
              for pair in pairs}
    assert counts == {1}  # the regulus through the pair

    qp7 = get_space_by_name("Q+(7,2)")
    K = get_context(qp7).scheme.K
    pairs = []
    for a in range(0, 40, 7):
        b = next(x for x in range(a + 1, qp7.n_generators) if (K[a] >> x) & 1)
        pairs.append((a, b))
    n2 = {len(find_spreads(qp7, containing=p).solutions) for p in pairs}
    assert len(n2) == 1
    n2 = n2.pop()
    triples = []
    for a, b in pairs[:4]:
        c = next(x for x in range(qp7.n_generators)
                 if (K[a] >> x) & 1 and (K[b] >> x) & 1)
        triples.append((a, b, c))
    n3 = {len(find_spreads(qp7, containing=t).solutions) for t in triples}
    assert len(n3) == 1
    n3 = n3.pop()
    assert (n2, n3) == (8, 2)  # tool record
    assert n2 == 4 * n3  # q^{n(n-1)} * prod(q^{2i-1}-1) with n = 2, q = 2


def test_spread_attains_clique_bound():
    # spreads are cliques of the disjointness relation attaining
    # 1 - k/lambda for lambda = P_{1,d}; equality forces the shifted
    # vector orthogonal to V_1 (checked via the annihilator)
    from fractions import Fraction
    for name in ("W(3,2)", "Q-(5,2)"):
        sp = get_space_by_name(name)
        ctx = get_context(sp)
        k = ctx.scheme.P[0][ctx.d]
        lam = ctx.scheme.P[1][ctx.d]
        bound = 1 - Fraction(k, lam)
        for m in find_spreads(sp).solutions[:25]:
            assert m.bit_count() == bound
            w = [ctx.pencil * ((m >> g) & 1) - 1 for g in range(ctx.n)]
            assert ctx.scheme.orthogonal_to(w, 1)


def test_cl_parameter1_certificates_are_reverified():
    # the search re-runs the full battery on every candidate; spot-check by
    # re-verifying the reported solutions here
    w = get_space_by_name("W(3,2)")
    ctx = get_context(w)
    for m in find_cl_parameter1(w).solutions:
        assert check_cl(GenSet(ctx, m)).is_cl


def _space(name):
    return get_space_by_name(name)


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: find_regular_systems(_space("Q+(5,2)"), 2),
                 (168, 4811, True), id="regular-Qp52"),
    pytest.param(lambda: find_regular_systems(_space("Q+(5,2)"), 2, budget=777),
                 (27, 778, False), id="regular-Qp52-budget"),
    pytest.param(lambda: find_regular_systems(_space("Q+(5,2)"), 2,
                                              max_solutions=30),
                 (30, 833, False), id="regular-Qp52-max-solutions"),
    pytest.param(lambda: find_regular_systems(_space("W(3,3)"), 2),
                 (324, 39083, True), id="regular-W33"),
    pytest.param(lambda: find_tight_sets(GQ.from_polar(_space("W(3,2)")), 2),
                 (85, 1432, True), id="tight-GQ22"),
    pytest.param(lambda: find_tight_sets(
        GQ.from_polar(_space("Q-(5,2)")).dual(), 3, budget=5000),
                 (53, 5002, False), id="tight-GQ42-budget"),
    pytest.param(lambda: find_cl_bounded(_space("W(3,2)"), 2),
                 (85, 1641, True), id="cl-W32"),
    pytest.param(lambda: find_cl_bounded(_space("Q(4,2)"), 2),
                 (85, 1901, True), id="cl-Q42"),
    pytest.param(lambda: find_cl_bounded(_space("Q+(3,2)"), 2),
                 (18, 126, True), id="cl-Qp32-type-II"),
    pytest.param(lambda: find_cl_bounded(_space("Q-(5,2)"), 3, budget=20000),
                 (133, 20002, False), id="cl-Qm52-budget"),
])
def test_in_out_engine_solutions_and_nodes(call, expected):
    # tool record: node counts are part of the search's contract, a
    # changed prune order shows up here first
    res = call()
    assert (len(res.solutions), res.nodes, res.exhaustive) == expected


class _WrongParameter(GenSet):
    x = 2


@pytest.mark.parametrize("patches, call", [
    pytest.param({"is_regular_system": lambda gs, m: False},
                 lambda: find_regular_systems(_space("W(3,2)"), 1),
                 id="regular"),
    pytest.param({"is_regular_system": lambda gs, m: False},
                 lambda: find_spreads(_space("W(3,2)")), id="spread"),
    pytest.param({"tight_set_test": lambda gq, mask: (False, None, "patched")},
                 lambda: find_tight_sets(GQ.from_polar(_space("W(3,2)")), 1),
                 id="tight"),
    pytest.param({"GenSet": _WrongParameter,
                  "check_cl": lambda gs: SimpleNamespace(is_cl=True)},
                 lambda: find_cl_parameter1(_space("W(3,2)")),
                 id="cl-parameter1"),
])
def test_failed_certificate_raises(monkeypatch, patches, call):
    for name, value in patches.items():
        monkeypatch.setattr(search, name, value)
    with pytest.raises(VerificationError):
        call()


def test_failed_certificate_raises_under_optimize():
    code = """
import polarcl.search as s
from polarcl.enumeration import get_space_by_name
from polarcl.gq import GQ
if __debug__:
    raise SystemExit("not running under -O")
s.is_regular_system = lambda gs, m: False
s.tight_set_test = lambda gq, mask: (False, None, "patched")
for call in (lambda: s.find_regular_systems(get_space_by_name("W(3,2)"), 1),
             lambda: s.find_tight_sets(
                 GQ.from_polar(get_space_by_name("W(3,2)")), 1)):
    try:
        call()
    except s.VerificationError:
        continue
    raise SystemExit("no VerificationError")
"""
    src = os.path.dirname(os.path.dirname(polarcl.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
