"""Search layer: spreads, regular systems, tight sets, CL classification."""

import os
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import polarcl
from polarcl import search
from polarcl.clsets import (GenSet, check_cl, construct_base_solid,
                            construct_point_pencil,
                            construct_hyperbolic_class, get_context,
                            is_regular_system, union)
from polarcl.enumeration import get_space_by_name
from polarcl.gq import GQ
from polarcl.scheme import _bits
from polarcl.search import (SearchResult, VerificationError,
                            classify_parameter1, find_cl_bounded,
                            find_cl_parameter1, find_regular_systems,
                            find_spreads, find_tight_sets, meeting_graph,
                            union_of_pencils_decomposition)

from reference import (eigenspace_membership, max_disjoint_in,
                       reference_cl_parameter1,
                       reference_classify_parameter1, reference_meeting_graph,
                       reference_non_collinear, reference_spreads)

DESK = ["Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)", "W(3,2)",
        "W(3,3)", "W(5,2)", "H(3,4)", "H(4,4)"]
# 50,000 exceeds every parameter-1 and spread tree below except the
# parameter-1 tree of all of Q+(7,2) and the spread tree of H(4,4)
REFERENCE_BUDGETS = (1, 2, 5, 17, 333, 5000, 50_000)


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


@pytest.mark.parametrize("name, label", [
    ("Q(6,2)", None), ("Q+(7,2)", "latin"), ("Q+(7,2)", "greek"),
    ("W(3,2)", None), ("Q-(5,2)", None), ("Q(6,3)", None)])
def test_meeting_graph_from_disjointness_matches_pair_loop(name, label):
    sp = get_space_by_name(name)
    universe, meets = meeting_graph(get_context(sp), label)
    assert universe == (list(range(sp.n_generators)) if label is None
                        else sp.class_members(label))
    assert meets == reference_meeting_graph(sp, universe)


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


@pytest.mark.parametrize("name, label", [
    ("W(3,2)", None), ("Q-(5,2)", None), ("Q(6,2)", None), ("W(5,2)", None),
    ("H(3,4)", None), ("Q+(7,2)", "latin"), ("Q+(7,2)", "greek")])
def test_parameter1_labels_match_the_pair_loops(name, label):
    # every parameter-1 set, seeded sets of the universe, and on a class
    # the A_1 rows of its own generators, which lie in the other class
    sp = _space(name)
    ctx = get_context(sp)
    universe = ctx.restricted(label).mask
    rng = random.Random(name)
    masks = find_cl_parameter1(sp, label).solutions + [
        rng.getrandbits(ctx.n) & universe for _ in range(20)]
    if label:
        masks += [ctx.scheme.A[1][g] for g in sp.class_members(label)[:20]]
    for m in masks:
        assert classify_parameter1(sp, m, label) == \
            reference_classify_parameter1(sp, m, label), m


@pytest.mark.parametrize("name, x_max", [("W(3,2)", 2), ("Q-(5,2)", 3)])
def test_pencil_decompositions_are_non_collinear(name, x_max):
    # the vertices of disjoint pencils pair to nonzero under the form
    sp = _space(name)
    decomposed = 0
    for m in find_cl_bounded(sp, x_max).solutions:
        vertices = union_of_pencils_decomposition(sp, m)
        if vertices is not None:
            assert reference_non_collinear(sp, vertices), vertices
            decomposed += 1
    assert decomposed


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
    # vector orthogonal to V_1 (checked with the list annihilators)
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
            assert eigenspace_membership(ctx.scheme, w,
                                         set(range(ctx.d + 1)) - {1})


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


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: find_cl_parameter1(_space("Q(6,2)")),
                 (270, 41787, True), id="cl_param1-Q62"),
    pytest.param(lambda: find_cl_parameter1(_space("Q+(7,2)"), "latin"),
                 (270, 42617, True), id="cl_param1-Qp72-latin"),
    pytest.param(lambda: find_spreads(_space("Q(6,2)")),
                 (960, 6376, True), id="spread-Q62"),
    pytest.param(lambda: find_regular_systems(_space("Q+(5,2)"), 2,
                                              eigenspaces={0, 2}),
                 (168, 4811, True), id="regular-Qp52-V0-V2"),
])
def test_desk_classify_search_gates(call, expected):
    # the exact (solutions, nodes) that perfbench's desk-classify gates
    res = call()
    assert (len(res.solutions), res.nodes, res.exhaustive) == expected


def _outcome(res):
    return res.solutions, res.nodes, res.stopped_by


@pytest.mark.parametrize("name, label", [(name, None) for name in DESK]
                         + [("Q+(7,2)", "latin"), ("Q+(7,2)", "greek")])
def test_cl_parameter1_matches_the_recursive_reference(name, label):
    sp = _space(name)
    for budget in REFERENCE_BUDGETS:
        assert _outcome(find_cl_parameter1(sp, label, budget)) == \
            _outcome(reference_cl_parameter1(sp, label, budget)), budget


def _disjoint_pair(sp, label):
    """Two disjoint generators of one class of a hyperbolic quadric."""
    a, *rest = sp.class_members(label)
    K = get_context(sp).scheme.K
    return a, next(b for b in rest if K[a] >> b & 1)


@pytest.mark.parametrize("name, label", [(name, None) for name in DESK]
                         + [("Q+(7,2)", "latin"), ("Q+(7,2)", "greek")])
def test_spreads_match_the_recursive_reference(name, label):
    # on a class, every spread through a disjoint pair of its generators
    sp = _space(name)
    containing = _disjoint_pair(sp, label) if label else ()
    runs = [{"budget": b} for b in REFERENCE_BUDGETS] + [
        {"budget": 5000, "max_solutions": m} for m in (1, 2, 5)]
    for kw in runs:
        assert _outcome(find_spreads(sp, containing=containing, **kw)) == \
            _outcome(reference_spreads(sp, containing=containing, **kw)), kw


@pytest.mark.parametrize("call, stopped_by", [
    pytest.param(lambda: find_regular_systems(_space("Q+(5,2)"), 2, budget=777),
                 "budget", id="regular-budget"),
    pytest.param(lambda: find_regular_systems(_space("Q+(5,2)"), 2,
                                              max_solutions=30),
                 "limit", id="regular-max-solutions"),
    pytest.param(lambda: find_spreads(_space("W(3,2)"), max_solutions=2),
                 "limit", id="spread-max-solutions"),
    pytest.param(lambda: find_spreads(_space("W(3,2)"), budget=5),
                 "budget", id="spread-budget"),
    pytest.param(lambda: find_cl_parameter1(_space("W(3,2)"), budget=5),
                 "budget", id="cl-parameter1-budget"),
    pytest.param(lambda: find_cl_bounded(_space("W(3,2)"), 2),
                 None, id="cl-exhaustive"),
])
def test_searches_say_which_limit_fired(call, stopped_by):
    res = call()
    assert res.stopped_by == stopped_by
    assert res.exhaustive == (stopped_by is None)


# -- the in/out engine against the counter-by-counter reference ---------------


class _Counters:
    """The counters and bounds of one relation of a reference pass."""

    __slots__ = ("cov", "pins", "bumps", "recheck", "count", "lo", "hi")

    def __init__(self, inc, cov, target):
        self.cov = cov
        self.pins = target if isinstance(target, tuple) else None
        own = 1 if self.pins else 0
        self.bumps = [list(_bits(m)) for m in inc]
        self.recheck = [list(_bits(m | own << k)) for k, m in enumerate(inc)]
        self.count = [0] * len(cov)
        self.lo = [0 if self.pins else target] * len(cov)
        self.hi = [max(self.pins) if self.pins else target] * len(cov)


def _reference_in_out(res, limit, n, size, rels, leaf, max_solutions=None):
    """The recursive engine that updates and rechecks one counter at a
    time; `res` needs `nodes` and `exhaustive`."""
    rs = [_Counters(*rel) for rel in rels]
    fixed = [r for r in rs if not r.pins]
    pinning = [r for r in rs if r.pins]
    found = []

    def feasible(k, todo):
        for r, ps in zip(rs, todo):
            for p in ps:
                c = r.count[p]
                if c > r.hi[p] or c + (r.cov[p] >> k).bit_count() < r.lo[p]:
                    return False
        return True

    def rec(k, mask, chosen, todo):
        res.nodes += 1
        if res.nodes > limit or (max_solutions is not None
                                 and len(found) >= max_solutions):
            res.exhaustive = False
            return
        if chosen > size or chosen + (n - k) < size or not feasible(k, todo):
            return
        if k == n:
            if leaf(mask):
                found.append(mask)
            return
        nxt = [r.recheck[k] for r in rs]
        if all(r.count[p] < r.hi[p] for r in fixed for p in r.bumps[k]):
            for r in pinning:
                r.lo[k] = r.hi[k] = r.pins[0]
            for r in rs:
                for p in r.bumps[k]:
                    r.count[p] += 1
            rec(k + 1, mask | 1 << k, chosen + 1, nxt)
            for r in rs:
                for p in r.bumps[k]:
                    r.count[p] -= 1
            if not res.exhaustive:
                return
        for r in pinning:
            r.lo[k] = r.hi[k] = r.pins[1]
        if all(r.count[k] <= r.hi[k] for r in pinning):
            rec(k + 1, mask, chosen, nxt)
        for r in pinning:
            r.lo[k], r.hi[k] = 0, max(r.pins)

    rec(0, 0, 0, [range(len(r.cov)) for r in rs])
    return found


def _transpose(inc, ncounters):
    return [sum(1 << k for k, m in enumerate(inc) if (m >> p) & 1)
            for p in range(ncounters)]


def _both_engines(n, size, rels, limit=10 ** 9, max_solutions=None,
                  leaf=lambda mask: True):
    ref = SimpleNamespace(nodes=0, exhaustive=True)
    ref_found = _reference_in_out(ref, limit, n, size, rels, leaf,
                                  max_solutions)
    res = SearchResult("engine")
    found = search._in_out(res, limit, n, size, rels, leaf, max_solutions)
    return ((found, res.nodes, res.exhaustive),
            (ref_found, ref.nodes, ref.exhaustive))


@st.composite
def _in_out_instances(draw):
    n = draw(st.integers(0, 12))
    sizes = [draw(st.integers(0, n))]

    def sparse(width):  # each bit set with probability 1/4
        full = st.integers(0, (1 << width) - 1)
        return [draw(full) & draw(full) for _ in range(n)]

    rels = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["pinned", "fixed", "cover"]))
        if kind == "pinned":  # counter k is object k
            inc = sparse(n)
            target = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            rels.append((inc, _transpose(inc, n), target))
            continue
        npts = draw(st.integers(1, 5))
        inc = sparse(npts)
        target = draw(st.integers(0, 2))
        if kind == "cover" and n:  # plant an exact cover, target 1
            owner = [draw(st.integers(0, n - 1)) for _ in range(npts)]
            for k in set(owner):
                inc[k] = sum(1 << p for p, o in enumerate(owner) if o == k)
            sizes.append(len(set(owner)))
            target = 1
        rels.append((inc, _transpose(inc, npts), target))
    return (n, draw(st.sampled_from(sizes)), rels,
            draw(st.just(10 ** 9) | st.integers(1, 300)),
            draw(st.none() | st.integers(0, 4)),
            draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_in_out_instances())
def test_in_out_engine_matches_reference(instance):
    n, size, rels, limit, max_solutions, salt = instance
    new, ref = _both_engines(n, size, rels, limit, max_solutions,
                             lambda mask: mask % (salt + 1) == 0)
    assert new == ref


def _desk_classify_passes():
    """(n, size, rels) of the last pass of three desk-classify searches."""
    gq = GQ.from_polar(_space("Q-(5,2)")).dual()
    ctx = get_context(_space("Q-(5,2)"))
    d, e, q = ctx.d, ctx.e, ctx.q
    from polarcl.clsets import expected_profile_type_I
    mem, out = (expected_profile_type_I(d, e, q, 3, m) for m in (True, False))
    qp5 = _space("Q+(5,2)")
    return {
        "tight-GQ42-i3": (gq.n_points, 3 * (gq.s + 1),
                          [(gq.perp, gq.perp, (gq.s + 3, 3))]),
        "cl-Qm52-x3": (ctx.n, 3 * ctx.pencil,
                       [(ctx.scheme.A[i], ctx.scheme.A[i], (mem[i], out[i]))
                        for i in range(1, d + 1)]),
        "regular-Qp52-m2": (qp5.n_generators, 10,
                            [(qp5.gen_point_masks, qp5.point_gen_masks(), 2)]),
    }


@pytest.mark.parametrize("which", ["tight-GQ42-i3", "cl-Qm52-x3",
                                   "regular-Qp52-m2"])
def test_in_out_engine_matches_reference_when_truncated(which):
    # the live-only stack counts dead children where the reference enters
    # them, so every budget and solution limit stops at the same node
    n, size, rels = _desk_classify_passes()[which]
    for limit in (1, 2, 5, 17, 333, 5000):
        new, ref = _both_engines(n, size, rels, limit)
        assert new == ref, limit
    for max_solutions in (0, 1, 2, 5):
        new, ref = _both_engines(n, size, rels, 5000, max_solutions)
        assert new == ref, max_solutions


@pytest.mark.parametrize("n, pin", [(5, 7), (6, 6)])
def test_in_out_engine_fields_at_the_width_bound(n, pin):
    # B = max(n, pin).  The pinned relation bumps nothing, so its H
    # fields start at hi = pin and an include pins L_k to 0 + 0 - pin.
    # A fixed counter over all n objects with target n starts with H = n
    # and every include is entered; with target 0 it starts with L = n and
    # only the empty set survives.  Fields reach +B and -B in entered
    # nodes, next to neighbours that a borrow would corrupt.
    pinned = ([0] * n, [0] * n, (pin, 0))
    everything = ([1] * n, [(1 << n) - 1])
    new, ref = _both_engines(n, n, [pinned, (*everything, n)])
    assert new == ref and new[0] == []
    new, ref = _both_engines(n, 0, [pinned, (*everything, 0)])
    assert new == ref and new[0] == [0]


def test_in_out_engine_needs_no_recursion():
    # Q(6,2) has 135 generators: the recursive engine went one frame per
    # decision and died at depth 100
    code = """
import sys
sys.setrecursionlimit(100)
from polarcl.enumeration import get_space_by_name
from polarcl.search import find_regular_systems
res = find_regular_systems(get_space_by_name("Q(6,2)"), 1, budget=3000)
print(len(res.solutions), res.nodes, res.exhaustive, res.stopped_by)
"""
    src = os.path.dirname(os.path.dirname(polarcl.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["26", "3001", "False", "budget"]


@pytest.mark.parametrize("m, eigenspaces, offending", [
    (1, {0, 7}, "[7]"), (1, {-1}, "[-1]"), (-1, None, "m = -1")])
def test_regular_systems_reject_bad_input(m, eigenspaces, offending):
    with pytest.raises(ValueError, match=offending.replace("[", r"\[")):
        find_regular_systems(_space("W(3,2)"), m, eigenspaces=eigenspaces)


def _tight_labels(gq, x_max):
    res = find_tight_sets(gq, x_max)
    assert res.exhaustive
    return {i: Counter(s["label"] for s in sols)
            for i, sols in res.meta["by_parameter"].items()}


@pytest.mark.parametrize("first, second, x_max, expected", [
    pytest.param(lambda: GQ.from_polar(_space("H(3,4)")),
                 lambda: GQ.from_polar(_space("Q-(5,2)")).dual(), 3,
                 {1: {"line-union": 27}, 2: {"line-union": 216},
                  3: {"line-union": 720, "subquadrangle": 36}},
                 id="GQ(4,2)"),
    pytest.param(lambda: GQ.from_polar(_space("W(3,2)")),
                 lambda: GQ.from_polar(_space("Q(4,2)")).dual(), 2,
                 {1: {"line-union": 15},
                  2: {"line-union": 60, "subquadrangle": 10}},
                 id="GQ(2,2)"),
])
def test_tight_sets_agree_across_models(first, second, x_max, expected):
    # two constructions of one quadrangle (Payne & Thas 3.2.1, 3.2.3)
    # classify alike, by parameter and label
    assert _tight_labels(first(), x_max) == expected
    assert _tight_labels(second(), x_max) == expected


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


@pytest.mark.under_optimize("test_failed_certificate_raises")
def test_failed_certificate_raises_under_optimize(run_under_optimize):
    run_under_optimize(4)


def test_one_verification_error_class():
    from polarcl import clsets, geometry
    assert search.VerificationError is clsets.VerificationError \
        is geometry.VerificationError
