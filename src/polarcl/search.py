"""Exhaustive backtracking searches: spreads, regular systems, tight sets,
and small-parameter Cameron-Liebler classification.

Every search returns a SearchResult carrying machine-checkable
certificates (the sets themselves, re-verified before being reported),
a completeness flag, and the node count.  Node budgets come from the
caller or the POLARCL_BUDGET_NODES environment variable; exceeding one
truncates the result and clears the exhaustive flag, it never raises.

Spread search is exact cover over the point-generator incidence with the
usual lowest-branching-column heuristic; every solution is reached along
exactly one branch, so no symmetry anchor is needed.  Parameter-1 CL
sets are cliques of the meeting graph.

Regular systems, tight sets and bounded CL sets share one in/out engine
(`_in_out`).  It decides objects 0..n-1 in index order, in before out,
and keeps exact counters per relation: choosing object k adds one to
every counter in inc[k], and cov[p] holds the objects that bump counter
p.  Each counter must stay within bounds lo[p] <= count <= hi[p], where
the count can still grow by the undecided part of cov[p].

- Fixed targets (regular systems): the counters are points, each bound
  to exactly m from the start.
- Pinning (tight sets, CL sets): the counters are the decided objects
  themselves.  An undecided counter only has to stay at or below the
  larger of its two targets; deciding k pins counter k to its member or
  non-member target.
- Incremental recheck: a child is entered only from a feasible parent,
  and one decision changes only the counters in inc[k] and the one it
  pins, so the child rechecks just those.  The root checks them all.
- Node counts: every entered node counts, including those that die on
  the budget, the size bound or a counter.  Two prunes act before the
  child is entered and do not count: an include that would push a
  fixed-target counter above its target, and an exclude whose pinned
  counter already exceeds its non-member target.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .clsets import (GenSet, check_cl, expected_profile_type_I, get_context,
                     is_regular_system, space_type)
from .counting import regular_system_size
from .gq import GQ, classify_tight_set, tight_set_test
from .scheme import _bits

DEFAULT_NODE_BUDGET = 50_000_000


def node_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("POLARCL_BUDGET_NODES")
    return int(env) if env else DEFAULT_NODE_BUDGET


@dataclass
class SearchResult:
    kind: str
    solutions: list = field(default_factory=list)
    exhaustive: bool = True
    nodes: int = 0
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "kind": self.kind,
            "count": len(self.solutions),
            "exhaustive": self.exhaustive,
            "nodes": self.nodes,
            "solutions": [sorted(_bits(m)) if isinstance(m, int) else m
                          for m in self.solutions],
            **self.meta,
        }


class VerificationError(Exception):
    """A search reached a solution that its certificate rejects."""


def _certify(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(f"search produced a {what} that fails "
                                "re-verification")


# -- the in/out engine ------------------------------------------------------------


class _Counters:
    """The counters and bounds of one relation of an in/out pass."""

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


def _in_out(res: SearchResult, limit: int, n: int, size: int, rels, leaf,
            max_solutions=None) -> list[int]:
    """One in/out pass over objects 0..n-1; see the module docstring.

    `rels` holds (inc, cov, target) per relation.  An int target binds
    every counter to exactly that count; a (member, non-member) pair
    says counter k is object k, pinned to one of the two once decided.
    Returns the chosen sets of `size` objects that meet every count and
    that `leaf(mask)` accepts, in the order found.
    """
    rs = [_Counters(*rel) for rel in rels]
    fixed = [r for r in rs if not r.pins]
    pinning = [r for r in rs if r.pins]
    found: list[int] = []

    def feasible(k: int, todo) -> bool:
        for r, ps in zip(rs, todo):
            count, cov, lo, hi = r.count, r.cov, r.lo, r.hi
            for p in ps:
                c = count[p]
                if c > hi[p] or c + (cov[p] >> k).bit_count() < lo[p]:
                    return False
        return True

    def rec(k: int, mask: int, chosen: int, todo):
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
                return  # the pass is over; its counters are dropped
        for r in pinning:
            r.lo[k] = r.hi[k] = r.pins[1]
        if all(r.count[k] <= r.hi[k] for r in pinning):
            rec(k + 1, mask, chosen, nxt)
        for r in pinning:
            r.lo[k], r.hi[k] = 0, max(r.pins)

    rec(0, 0, 0, [range(len(r.cov)) for r in rs])
    return found


# -- spreads and regular systems -----------------------------------------------


def find_regular_systems(space, m: int, eigenspaces=None, budget=None,
                         max_solutions=None) -> SearchResult:
    """All m-regular systems, optionally filtered to chi in sum_{j in S} V_j.

    In/out decisions over the generators, every point bound to exactly m
    chosen generators.  Every solution is re-verified by the dual
    regular-system check.
    """
    ctx = get_context(space)
    kind = f"regular_system(m={m})"
    if m == 0:
        return SearchResult(kind, [0], True, 1)
    res = SearchResult(kind)

    def leaf(mask: int) -> bool:
        gs = GenSet(ctx, mask)
        _certify(is_regular_system(gs, m), f"{m}-regular system")
        return eigenspaces is None or ctx.scheme.eigenspace_membership(
            gs.chi(), set(eigenspaces) | {0})

    rels = [(space.gen_point_masks, space.point_gen_masks(), m)]
    size = regular_system_size(space.d, space.desc.e, space.desc.q, m)
    res.solutions = sorted(_in_out(res, node_budget(budget),
                                   space.n_generators, size, rels, leaf,
                                   max_solutions))
    return res


def find_spreads(space, budget=None, max_solutions=None,
                 containing=()) -> SearchResult:
    """All spreads (1-regular systems), by exact cover.

    Branches on the uncovered point with the fewest available generators
    (column-min heuristic); a fixed branching point per node means every
    partition is produced exactly once.  `containing` pre-selects
    pairwise disjoint generators that every reported spread must extend.
    """
    ctx = get_context(space)
    limit = node_budget(budget)
    point_rows = space.point_gen_masks()
    npts = len(space.points)
    gen_pts = space.gen_point_masks
    res = SearchResult("spread")
    all_pts = (1 << npts) - 1
    avail_all = (1 << space.n_generators) - 1
    pre_covered = 0
    for g in containing:
        if gen_pts[g] & pre_covered:
            raise ValueError("preselected generators are not pairwise disjoint")
        pre_covered |= gen_pts[g]
        for p in _bits(gen_pts[g]):
            avail_all &= ~point_rows[p]

    def rec(covered: int, avail: int, chosen: list[int]):
        res.nodes += 1
        if res.nodes > limit:
            res.exhaustive = False
            return
        if max_solutions is not None and len(res.solutions) >= max_solutions:
            res.exhaustive = False
            return
        if covered == all_pts:
            mask = sum(1 << g for g in chosen)
            _certify(is_regular_system(GenSet(ctx, mask), 1), "spread")
            res.solutions.append(mask)
            return
        best = None
        for p in range(npts):
            if (covered >> p) & 1:
                continue
            cand = point_rows[p] & avail
            cnt = cand.bit_count()
            if cnt == 0:
                return
            if best is None or cnt < best[1]:
                best = (cand, cnt)
                if cnt == 1:
                    break
        cand = best[0]
        for g in _bits(cand):
            pm = gen_pts[g]
            new_avail = avail
            for p in _bits(pm):
                new_avail &= ~point_rows[p]
            chosen.append(g)
            rec(covered | pm, new_avail, chosen)
            chosen.pop()
            if not res.exhaustive:
                return

    rec(pre_covered, avail_all, list(containing))
    res.solutions.sort()
    return res


# -- tight sets -------------------------------------------------------------------


def find_tight_sets(gq: GQ, x_max: int, budget=None) -> SearchResult:
    """All i-tight sets with 1 <= i <= x_max, classified.

    One pass per parameter i: in/out decisions over the points, each
    decided point pinned to |P^perp ^ T| = s+i (members) or i (others).
    Every solution is re-verified by the direct tight-set test.
    """
    limit = node_budget(budget)
    res = SearchResult("tight_set", meta={"by_parameter": {}})
    for i in range(1, x_max + 1):
        def leaf(mask: int) -> bool:
            ok, got_i, _ = tight_set_test(gq, mask)
            _certify(ok and got_i == i, f"{i}-tight set")
            return True

        rels = [(gq.perp, gq.perp, (gq.s + i, i))]
        found = sorted(_in_out(res, limit, gq.n_points, i * (gq.s + 1),
                               rels, leaf))
        res.meta["by_parameter"][i] = [
            {"points": sorted(_bits(m)), "label": classify_tight_set(gq, m, i)}
            for m in found]
        res.solutions.extend(found)
    return res


# -- Cameron-Liebler searches -------------------------------------------------------


def find_cl_parameter1(space, class_label: str | None = None,
                       budget=None) -> SearchResult:
    """All parameter-1 Cameron-Liebler sets, by clique search.

    A parameter-1 set is pairwise intersecting of pencil size, so the
    candidates are the cliques of that size in the meeting graph; each
    candidate is then certified by the full CL battery.
    """
    ctx = get_context(space)
    limit = node_budget(budget)
    if class_label is None:
        universe = list(range(ctx.n))
        target = ctx.pencil
    else:
        universe = space.class_members(class_label)
        target = ctx.class_pencil()
    nu = len(universe)
    meets = [0] * nu
    for a in range(nu):
        ga = universe[a]
        for b in range(nu):
            if a != b and space.intersection_vdim(ga, universe[b]) > 0:
                meets[a] |= 1 << b
    res = SearchResult("cl_parameter1")
    clique: list[int] = []

    def rec(cand: int, start: int):
        res.nodes += 1
        if res.nodes > limit:
            res.exhaustive = False
            return
        if len(clique) == target:
            mask = sum(1 << universe[t] for t in clique)
            gs = GenSet(ctx, mask, class_label)
            rep = check_cl(gs)
            if rep.is_cl:
                _certify(gs.x == 1, "parameter-1 CL set")
                res.solutions.append(mask)
            return
        if len(clique) + cand.bit_count() < target:
            return
        m = cand & ~((1 << start) - 1)
        while m:
            low = m & -m
            t = low.bit_length() - 1
            m ^= low
            if len(clique) + (cand >> t).bit_count() < target:
                return
            clique.append(t)
            rec(cand & meets[t], t + 1)
            clique.pop()
            if not res.exhaustive:
                return

    rec((1 << nu) - 1, 0)
    res.solutions.sort()
    return res


def find_cl_bounded(space, x_max: int, budget=None) -> SearchResult:
    """All Cameron-Liebler sets with parameter 1 <= x <= x_max.

    One pass per x, in/out decisions over the generators, each decided
    generator pinned to its disjointness count (a member finishes with
    exactly (x-1) D chosen disjoint generators, a non-member with x D).
    On type I spaces the whole intersection distribution is forced, so
    every distance class i >= 1 is pinned to its own exact target.
    Every completed candidate is re-verified by the full battery before
    being reported.
    """
    ctx = get_context(space)
    limit = node_budget(budget)
    d, A = ctx.d, ctx.scheme.A
    res = SearchResult("cl_bounded", meta={"by_parameter": {}})
    for x in range(1, x_max + 1):
        if ctx.type == "I":
            mem = expected_profile_type_I(d, ctx.e, ctx.q, x, True)
            out = expected_profile_type_I(d, ctx.e, ctx.q, x, False)
            rels = [(A[i], A[i], (mem[i], out[i])) for i in range(1, d + 1)]
        else:
            rels = [(A[d], A[d], ((x - 1) * ctx.disjointness,
                                  x * ctx.disjointness))]
        found = sorted(_in_out(res, limit, ctx.n, x * ctx.pencil, rels,
                               lambda mask: check_cl(GenSet(ctx, mask)).is_cl))
        res.meta["by_parameter"][x] = found
        res.solutions.extend(found)
    return res


def max_disjoint_in(gs: GenSet) -> int:
    """Largest pairwise-disjoint subfamily of the set (exact clique size)."""
    members = gs.members()
    nu = len(members)
    disj = [0] * nu
    K = gs.ctx.scheme.K
    for a in range(nu):
        for b in range(nu):
            if a != b and (K[members[a]] >> members[b]) & 1:
                disj[a] |= 1 << b
    best = 0

    def rec(cand: int, size: int):
        nonlocal best
        best = max(best, size)
        m = cand
        while m:
            low = m & -m
            t = low.bit_length() - 1
            m ^= low
            if size + 1 + (disj[t] & m).bit_count() <= best:
                continue
            rec(cand & disj[t] & ~((1 << (t + 1)) - 1), size + 1)

    rec((1 << nu) - 1, 0)
    return best


# -- classification labels ----------------------------------------------------------


def classify_parameter1(space, mask: int, class_label=None) -> str:
    """Name a parameter-1 CL set: pencil, hyperbolic class, base-plane,
    base-solid, or other."""
    ctx = get_context(space)
    members = list(_bits(mask))
    common = space.gen_point_masks[members[0]]
    for g in members[1:]:
        common &= space.gen_point_masks[g]
        if not common:
            break
    if common:
        for p in _bits(common):
            pm = space.point_gen_masks()[p]
            if class_label is not None:
                pm &= space.class_mask(class_label)
            if pm == mask:
                return "point-pencil"
    desc = space.desc
    if class_label is None and space_type(desc) == "III":
        if mask in set(space.hyperbolic_classes()):
            return "hyperbolic-class"
        if desc.rank == 3:
            for pi in members:
                if all(space.intersection_vdim(pi, g) >= 2 for g in members):
                    from .clsets import construct_base_plane
                    if construct_base_plane(ctx, pi).mask == mask:
                        return "base-plane"
    if class_label is not None and desc.family == "Q+" and desc.rank == 4:
        other = "greek" if class_label == "latin" else "latin"
        for center in space.class_members(other):
            if all(space.intersection_vdim(center, g) == 3 for g in members):
                from .clsets import construct_base_solid
                if construct_base_solid(ctx, center, class_label).mask == mask:
                    return "base-solid"
    return "other"


def union_of_pencils_decomposition(space, mask: int):
    """Vertices of a disjoint pencil decomposition with pairwise
    non-collinear vertices, or None.

    Backtracks over candidate vertices (points whose full pencil lies in
    the remaining set), so a misleading first pick cannot hide a valid
    decomposition.
    """
    rows = space.point_gen_masks()

    def rec(rest: int, vertices: tuple):
        if rest == 0:
            return list(vertices)
        g = (rest & -rest).bit_length() - 1
        for p in _bits(space.gen_point_masks[g]):
            row = rows[p]
            if row & ~rest:
                continue
            out = rec(rest & ~row, vertices + (p,))
            if out is not None:
                return out
        return None

    vertices = rec(mask, ())
    if vertices is None:
        return None
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            pa, pb = vertices[a], vertices[b]
            if space.form.pair(space.points[pa], space.points[pb]) == 0:
                return None
    return vertices
