"""Exhaustive backtracking searches: spreads, regular systems, tight sets,
and small-parameter Cameron-Liebler classification.

Every search returns a SearchResult carrying machine-checkable
certificates (the sets themselves, re-verified before being reported),
a completeness flag, and the node count.  Node budgets come from the
caller or the POLARCL_BUDGET_NODES environment variable; exceeding one
truncates the result, it never raises.  A truncated result is not
exhaustive and says in `stopped_by` which limit fired: the node budget
("budget") or the caller's solution limit ("limit").

Spread search is exact cover over the point-generator incidence with the
usual lowest-branching-column heuristic over the uncovered points; every
solution is reached along exactly one branch, so no symmetry anchor is
needed.  Choosing g keeps only the candidates disjoint from g, its
disjointness row K[g]; that drops g and every generator meeting it.
Parameter-1 CL sets are cliques of the meeting graph.

Regular systems, tight sets and bounded CL sets share one in/out engine
(`_in_out`).  It decides objects 0..n-1 in index order, in before out,
and keeps exact counters per relation: choosing object k adds one to
every counter in inc[k], and cov[p] holds the objects that bump counter
p.  Each counter must stay within bounds lo[p] <= count <= hi[p], where
the count can still grow by remaining[p], the undecided part of cov[p].

- Fixed targets (regular systems): the counters are points, each bound
  to exactly m from the start.
- Pinning (tight sets, CL sets): the counters are the decided objects
  themselves.  An undecided counter only has to stay at or below the
  larger of its two targets; deciding k pins counter k to its member or
  non-member target.
- The size bound is one more fixed counter: the chosen objects, bound
  to exactly `size`.

Packed counters (SWAR arithmetic: Lamport, CACM 18(8), 1975; Knuth,
TAOCP 4A, 7.1.3).  The whole node state is one Python int.  Every
counter p has two W-bit fields, H = hi - count and L = count +
remaining - lo, each stored plus the bias 2^(W-1); a relation's H fields
come first, then its L fields, and the relations follow each other.  A
field is >= 0 exactly when its top bit is set, so the node is feasible
exactly when `state & guard == guard`, guard holding every top bit.
Deciding k lowers remaining[p] for each p in inc[k]: an include takes
spread(inc[k]) off the H fields, an exclude takes it off the L fields,
and a pin adds the change of bounds at counter k, from [0, max] to
[pin, pin], to its two fields.  Each decision is one precomputed add.

Field width.  With B = max(n, largest target), every field value v
stays in [-B, B]: -|cov[p]| <= hi - count <= hi, and -lo <= count +
remaining - lo <= |cov[p]|, since |cov[p]| <= n and the bounds are
targets.  W = bits(B) + 2 gives |v| <= B < 2^(W-2), so the biased field
v + 2^(W-1) lies strictly between 2^(W-2) and 3 2^(W-2): inside its own
W bits, with its top bit set exactly when v >= 0.  No add or subtract
borrows across fields, so the big-int sums are the field-wise sums.

Guards and node counts.  Every entered node counts, including those
that die on the budget, the size bound or a counter.  A child is entered
only from a feasible parent, and one decision changes only the fields it
touches, so the whole-guard test equals a recheck of just those.  Two
prunes act before the child is entered and do not count: an include is
dropped when a fixed-target H field goes negative (`fixed` guard), an
exclude when a pinned H field does (`pinned` guard); the size counter is
in neither, so it only fails at entry.

Explicit stack, live nodes only.  A node is (k, state, mask), all
immutable.  A live node pushes its out-child, then walks its feasible
in-child in place (k + 1, mask | 1 << k).  A dead child is counted where
the recursion "in, then out" enters it: a dead in-child at once, a dead
out-child as a None marker popped after the in-subtree.  So the node
counts, the solutions and their order are the recursion's, every budget
or solution limit stops at the same node, and the depth is bounded only
by memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .clsets import (GenSet, VerificationError, check_cl,
                     expected_profile_type_I, get_context, is_regular_system,
                     space_type)
from .counting import regular_system_size
from .gq import GQ, classify_tight_set, tight_set_test
from .linalg import spread
from .scheme import _bits

DEFAULT_NODE_BUDGET = 50_000_000


def node_budget(override: int | None = None) -> int:
    if override is None:
        env = os.environ.get("POLARCL_BUDGET_NODES")
        override = int(env) if env else DEFAULT_NODE_BUDGET
    if override < 1:
        raise ValueError(f"a node budget must be at least 1, got {override}")
    return override


@dataclass
class SearchResult:
    kind: str
    solutions: list = field(default_factory=list)
    nodes: int = 0
    meta: dict = field(default_factory=dict)
    stopped_by: str | None = None  # "budget" or "limit" once truncated

    @property
    def exhaustive(self) -> bool:
        return self.stopped_by is None

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


def _certify(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(f"search produced a {what} that fails "
                                "re-verification")


# -- the in/out engine ------------------------------------------------------------


def _in_out(res: SearchResult, limit: int, n: int, size: int, rels, leaf,
            max_solutions=None) -> list[int]:
    """One in/out pass over objects 0..n-1; see the module docstring.

    `rels` holds (inc, cov, target) per relation, with cov[p] the objects
    whose inc holds p.  An int target binds every counter to exactly that
    count; a (member, non-member) pair says counter k is object k, pinned
    to one of the two once decided.  Returns the chosen sets of `size`
    objects that meet every count and that `leaf(mask)` accepts, in the
    order found.
    """
    # the size bound is one more fixed counter, tested at entry only
    counters = [*rels, ([1] * n, [(1 << n) - 1], size)]
    width = max([n] + [max(t) if isinstance(t, tuple) else t
                       for _, _, t in counters]).bit_length() + 2
    bias = 1 << width - 1
    state = guard = fixed = pinned = 0
    step_in, step_out = [0] * n, [0] * n
    at = 0  # bit offset of the relation's first H field
    for r, (inc, cov, target) in enumerate(counters):
        pins = target if isinstance(target, tuple) else None
        lo, hi = (0, max(pins)) if pins else (target, target)
        l_at = at + width * len(cov)  # the L fields follow the H fields
        ones = spread((1 << len(cov)) - 1, width)
        guard |= (ones << at | ones << l_at) * bias
        if pins:
            pinned |= ones * bias << at
        elif r < len(rels):
            fixed |= ones * bias << at
        state += (hi + bias) * ones << at
        for p, m in enumerate(cov):
            state += (m.bit_count() - lo + bias) << (l_at + width * p)
        for k in range(n):
            s = spread(inc[k], width)
            step_in[k] -= s << at
            step_out[k] -= s << l_at
            if pins:  # counter k leaves [0, hi] for [pin, pin]
                h_k, l_k = at + width * k, l_at + width * k
                step_in[k] += (pins[0] - hi << h_k) - (pins[0] << l_k)
                step_out[k] += (pins[1] - hi << h_k) - (pins[1] << l_k)
        at = l_at + width * len(cov)

    found: list[int] = []
    nodes = res.nodes
    # the pass stops at the node that takes `nodes` past the cap, lowered
    # to a leaf's count when it reaches the solution limit; the root is
    # entered even when an earlier pass already spent the budget
    cap = (nodes if max_solutions is not None and max_solutions <= 0
           else max(limit, nodes))
    stack = [(0, state, 0) if state & guard == guard else None]
    push = stack.append
    while stack and nodes <= cap:
        node = stack.pop()
        nodes += 1
        if node is None or nodes > cap:  # a dead out-child, or the stop
            continue
        k, state, mask = node
        while k < n:
            out = state + step_out[k]
            g = out & guard
            if g == guard:
                push((k + 1, out, mask))
            elif g & pinned == pinned:
                push(None)
            state += step_in[k]
            g = state & guard
            if g != guard:
                if g & fixed == fixed:  # a dead in-child, entered here
                    nodes += 1
                break
            nodes += 1
            if nodes > cap:
                break
            mask |= 1 << k
            k += 1
        else:
            if leaf(mask):
                found.append(mask)
                if len(found) == max_solutions:
                    cap = nodes
    if nodes > cap:
        res.stopped_by = "budget" if nodes > limit else "limit"
    res.nodes = nodes
    return found


# -- spreads and regular systems -----------------------------------------------


def find_regular_systems(space, m: int, eigenspaces=None, budget=None,
                         max_solutions=None) -> SearchResult:
    """All m-regular systems, optionally filtered to chi in sum_{j in S} V_j.

    In/out decisions over the generators, every point bound to exactly m
    chosen generators.  Every solution is re-verified by the dual
    regular-system check.  A negative m or an eigenspace index outside
    0..d raises ValueError.
    """
    if m < 0:
        raise ValueError(f"regular systems need m >= 0, got m = {m}")
    bad = sorted(j for j in eigenspaces or () if not 0 <= j <= space.d)
    if bad:
        raise ValueError(f"eigenspace indices {bad} are outside "
                         f"0..{space.d} for {space.name()}")
    ctx = get_context(space)
    kind = f"regular_system(m={m})"
    if m == 0:
        return SearchResult(kind, [0], nodes=1)
    res = SearchResult(kind)

    def leaf(mask: int) -> bool:
        gs = GenSet(ctx, mask)
        _certify(is_regular_system(gs, m), f"{m}-regular system")
        return eigenspaces is None or ctx.scheme.combination(
            set(eigenspaces) | {0}).witness(mask) is None

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
    gen_pts = space.gen_point_masks
    res = SearchResult("spread")
    all_pts = (1 << len(space.points)) - 1
    avail_all, K = (1 << space.n_generators) - 1, ctx.scheme.K
    pre_covered = 0
    for g in containing:
        if gen_pts[g] & pre_covered:
            raise ValueError("preselected generators are not pairwise disjoint")
        pre_covered |= gen_pts[g]
        avail_all &= K[g]

    def rec(covered: int, avail: int, mask: int):
        res.nodes += 1
        if res.nodes > limit:
            res.stopped_by = "budget"
            return
        if max_solutions is not None and len(res.solutions) >= max_solutions:
            res.stopped_by = "limit"
            return
        if covered == all_pts:
            _certify(is_regular_system(GenSet(ctx, mask), 1), "spread")
            res.solutions.append(mask)
            return
        free = all_pts & ~covered
        best, fewest = 0, space.n_generators + 1
        while free:  # the uncovered points, lowest first
            low = free & -free
            free ^= low
            cand = point_rows[low.bit_length() - 1] & avail
            cnt = cand.bit_count()
            if cnt == 0:
                return
            if cnt < fewest:
                best, fewest = cand, cnt
                if cnt == 1:
                    break
        for g in _bits(best):
            rec(covered | gen_pts[g], avail & K[g], mask | 1 << g)
            if res.stopped_by:
                return

    rec(pre_covered, avail_all, sum(1 << g for g in containing))
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


def meeting_graph(ctx, class_label: str | None = None):
    """(universe, meets): the members of the universe of `class_label`, and
    for position a the positions b != a whose generators meet universe[a],
    read off the disjointness relation K."""
    u, K = ctx.restricted(class_label), ctx.scheme.K
    meets = [u.mask & ~(K[g] | 1 << g) for g in u.members]
    if u.label is None:  # on Omega the position is the generator index
        return u.members, meets
    at = {g: 1 << a for a, g in enumerate(u.members)}
    return u.members, [sum(at[h] for h in _bits(m)) for m in meets]


def find_cl_parameter1(space, class_label: str | None = None,
                       budget=None) -> SearchResult:
    """All parameter-1 Cameron-Liebler sets, by clique search.

    A parameter-1 set is pairwise intersecting of pencil size, so the
    candidates are the cliques of that size in the meeting graph; each
    candidate is then certified by the full CL battery.
    """
    ctx = get_context(space)
    limit = node_budget(budget)
    universe, meets = meeting_graph(ctx, class_label)
    target = ctx.restricted(class_label).pencil
    nu = len(universe)
    res = SearchResult("cl_parameter1")
    bit = [1 << g for g in universe]
    nodes = 0

    def rec(cand: int, start: int, need: int, mask: int):
        """Enter the clique `mask`, which lacks `need` members."""
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            res.stopped_by = "budget"
            return
        if not need:
            gs = GenSet(ctx, mask, class_label)
            rep = check_cl(gs)
            if rep.is_cl:
                _certify(gs.x == 1, "parameter-1 CL set")
                res.solutions.append(mask)
            return
        m = cand >> start << start
        while m.bit_count() >= need:  # else too few candidates remain
            low = m & -m
            t = low.bit_length() - 1
            m ^= low
            rec(cand & meets[t], t + 1, need - 1, mask | bit[t])
            if nodes > limit:
                return

    rec((1 << nu) - 1, 0, target, 0)
    res.nodes = nodes
    res.solutions.sort()
    return res


def find_cl_bounded(space, x_max: int, budget=None) -> SearchResult:
    """All Cameron-Liebler sets with parameter 1 <= x <= x_max.

    One pass per x, in/out decisions over the generators, each decided
    generator pinned to its disjointness count (a member finishes with
    exactly (x-1) f chosen disjoint generators, a non-member with x f,
    f = q^{C(d-1,2)+e(d-1)}).
    On type I spaces the whole intersection distribution is forced, so
    every distance class i >= 1 is pinned to its own exact target.
    Every completed candidate is re-verified by the full battery before
    being reported.
    """
    ctx = get_context(space)
    limit = node_budget(budget)
    d, A, f = ctx.d, ctx.scheme.A, ctx.restricted().f
    res = SearchResult("cl_bounded", meta={"by_parameter": {}})
    for x in range(1, x_max + 1):
        if ctx.type == "I":
            mem = expected_profile_type_I(d, ctx.e, ctx.q, x, True)
            out = expected_profile_type_I(d, ctx.e, ctx.q, x, False)
            rels = [(A[i], A[i], (mem[i], out[i])) for i in range(1, d + 1)]
        else:
            rels = [(A[d], A[d], ((x - 1) * f, x * f))]
        found = sorted(_in_out(res, limit, ctx.n, x * ctx.pencil, rels,
                               lambda mask: check_cl(GenSet(ctx, mask)).is_cl))
        res.meta["by_parameter"][x] = found
        res.solutions.extend(found)
    return res


# -- classification labels ----------------------------------------------------------


def classify_parameter1(space, mask: int, class_label=None) -> str:
    """Name a parameter-1 CL set: pencil, hyperbolic class, base-plane,
    base-solid, or other.

    Each label is one mask equality: the pencil of a point within the
    universe, a hyperbolic class, A_0 + A_1 of a member (in rank 3 the
    planes meeting it in at least a line), or A_1 of a generator of the
    other class (in Q+(7,q) the generators meeting it in a plane).
    """
    ctx = get_context(space)
    cm = ctx.restricted(class_label).mask
    if any(row & cm == mask for row in space.point_gen_masks()):
        return "point-pencil"
    desc, A = space.desc, ctx.scheme.A
    if class_label is None and space_type(desc) == "III":
        if mask in set(space.hyperbolic_classes()):
            return "hyperbolic-class"
        if desc.rank == 3 and any(A[0][pi] | A[1][pi] == mask
                                  for pi in _bits(mask)):
            return "base-plane"
    if class_label is not None and desc.family == "Q+" and desc.rank == 4:
        other = "greek" if class_label == "latin" else "latin"
        if any(A[1][c] == mask for c in space.class_members(other)):
            return "base-solid"
    return "other"


def union_of_pencils_decomposition(space, mask: int):
    """Vertices of a disjoint pencil decomposition, or None.

    Backtracks over candidate vertices (points whose full pencil lies in
    the remaining set), so a misleading first pick cannot hide a valid
    decomposition.  The pencils are disjoint, so the vertices are
    pairwise non-collinear: collinear points share the generators on
    their line.
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

    return rec(mask, ())
