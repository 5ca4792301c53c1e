"""The acceptance battery: twelve verification criteria, each exact.

Each criterion is registered once, by `@criterion(number, name)`: its body
returns (ok, details), and the registration wraps that into a
CriterionResult and appends the criterion to ALL_CRITERIA in definition
order.  A fact checked on several spaces or sets is one loop over a table
of rows (the scheme spaces of criteria 2 and 3, the classifications of
criterion 8, the pair counts of criterion 11), so another space is another
row.  `run_suite` runs the criteria in order and reports one pass/fail
line each.  The corpus of the equivalence criterion is generated
deterministically from a fixed seed recorded in the manifest.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import islice

from .clsets import (GenSet, VerificationError, check_cl, complement,
                     construct_base_plane, construct_base_solid,
                     construct_embedded, construct_hyperbolic_class,
                     construct_point_pencil, difference, get_context,
                     image_parts, profile_verdict,
                     is_regular_system, space_type,
                     test_spread_intersections, union, z_profile)
from .counting import (class_disjoint_to_two, kms_disjoint_to_two,
                       num_kspaces, qint)
from .enumeration import get_space_by_name
from .gq import GQ
from .scheme import _bits
from .search import (classify_parameter1, find_cl_bounded, find_cl_parameter1,
                     find_regular_systems, find_spreads, find_tight_sets,
                     union_of_pencils_decomposition)

CORPUS_SEED = 20260808

SPACES = ["Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)",
          "W(3,2)", "W(3,3)", "W(5,2)", "H(3,4)", "H(4,4)"]

GENERATOR_COUNTS = {
    "Q+(5,2)": 30, "Q+(7,2)": 270, "Q(4,2)": 15, "Q(6,2)": 135,
    "Q-(5,2)": 45, "W(3,2)": 15, "W(3,3)": 40, "W(5,2)": 135,
    "H(3,4)": 27, "H(4,4)": 297,
}

# the spaces of the algebra certificate (2) and of the spectrum (3)
SCHEME_SPACES = ["Q(6,2)", "Q-(5,2)", "H(3,4)", "Q+(7,2)"]

# (space, generator class, label counts) of the parameter-1 classification
PARAMETER1_ROWS = [
    ("W(3,2)", None, {"point-pencil": 15}),
    ("Q-(5,2)", None, {"point-pencil": 27}),
    ("Q(6,2)", None, {"point-pencil": 63, "hyperbolic-class": 72,
                      "base-plane": 135}),
    ("Q+(7,2)", "latin", {"point-pencil": 135, "base-solid": 135}),
]

# (space, intersection dimensions v, pairs per v or None for all) of the
# two-generator disjointness counts
PAIR_COUNT_ROWS = [("Q+(7,2)", (-1, 1), 40), ("H(3,4)", (-1, 0), None)]


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] criterion {self.number:2d} - {self.name}: {self.details}"


ALL_CRITERIA = []


def criterion(number: int, name: str):
    """Register a body returning (ok, details) as the next criterion: the
    registered function returns its CriterionResult."""
    def register(body):
        @wraps(body)
        def run() -> CriterionResult:
            return CriterionResult(number, name, *body())
        ALL_CRITERIA.append(run)
        return run
    return register


def _ctx(name: str):
    return get_context(get_space_by_name(name))


@lru_cache(maxsize=None)
def _spreads(name: str, cap: int | None = None):
    return find_spreads(get_space_by_name(name), max_solutions=cap)


@criterion(1, "count oracle")
def criterion_1():
    """Enumerated level sizes equal the closed subspace-count formula."""
    checked = 0
    for name in SPACES:
        sp = get_space_by_name(name)
        for k in range(1, sp.d + 1):
            if len(sp.levels[k]) != num_kspaces(sp.d, sp.desc.e, sp.desc.q, k - 1):
                return False, f"{name} level {k}"
            checked += 1
        if sp.n_generators != GENERATOR_COUNTS[name]:
            return False, f"{name} generators"
    return True, f"{checked} levels across {len(SPACES)} spaces"


@criterion(2, "distance-regularity")
def criterion_2():
    """The algebra certificate: A_1 A_j matches the closed forms everywhere."""
    for name in SCHEME_SPACES:
        params, witness = _ctx(name).scheme.verify_distance_regularity()
        if witness is not None:
            return False, f"{name}: {witness}"
    return True, "all pairs on " + ", ".join(SCHEME_SPACES)


@criterion(3, "spectrum")
def criterion_3():
    """K w = P_{j,d} w on every constructed eigenspace basis vector, and
    V_j, j >= 2, inside ker(C_{j-1}): lower incidences kill it."""
    vectors = 0
    for name in SCHEME_SPACES:
        sch = _ctx(name).scheme
        for j, basis in sch.eigenspace_bases().items():
            lam = sch.P[j][sch.d]
            for w in basis:
                if sch.matvec_mask(sch.K, w) != [lam * x for x in w]:
                    return False, f"{name} V_{j}"
                if j >= 2 and any(sum(w[g] for g in _bits(row))
                                  for row in sch.incidence(j - 1)):
                    return False, f"{name} ker C_{j-1}"
                vectors += 1
    return True, f"{vectors} basis vectors, all exact"


def _corpus(name: str):
    """Deterministic test corpus for one space: constructions, set algebra,
    random sets, near-misses, perturbations."""
    sp = get_space_by_name(name)
    ctx = get_context(sp)
    rng = random.Random((CORPUS_SEED, name).__str__())
    n, full, fam = ctx.n, (1 << ctx.n) - 1, sp.desc.family
    pencil0 = construct_point_pencil(ctx, 0)
    # the first point not collinear with point 0: their pencils are disjoint
    far = next(p for p in range(1, len(sp.points))
               if sp.form.pair(sp.points[0], sp.points[p]) != 0)
    sets = [construct_point_pencil(ctx, p).mask
            for p in (0, 1, 2, len(sp.points) // 2, len(sp.points) - 1)]
    sets += [complement(pencil0).mask, full, 0,
             difference(GenSet(ctx, full), pencil0).mask,
             union(pencil0, construct_point_pencil(ctx, far)).mask]
    if space_type(sp.desc) == "III":
        sets.append(construct_hyperbolic_class(ctx, 0).mask)
        sets.append(construct_hyperbolic_class(ctx, 1).mask)
        if sp.d == 3:
            sets.append(construct_base_plane(ctx, 0).mask)
    if (fam in ("Q-", "Q") or (fam == "H" and sp.desc.dim % 2 == 0)) \
            and sp.desc.e >= 1:
        sets.append(construct_embedded(ctx).mask)
    if fam == "Q+" and sp.d % 2 == 0:
        # a mixed two-class pencil set, then unequal class parameters: one
        # whole class, and a class plus a pencil of the other class
        rows = sp.point_gen_masks()
        latin, greek = sp.class_mask("latin"), sp.class_mask("greek")
        sets += [(rows[0] & latin) | (rows[far] & greek), latin,
                 greek | (rows[0] & latin)]
    # single-element perturbations of a pencil: its first member dropped,
    # the first generator outside it added
    drop = pencil0.mask & -pencil0.mask
    extra = ~pencil0.mask & (pencil0.mask + 1)
    sets += [pencil0.mask ^ drop, pencil0.mask | extra,
             (pencil0.mask ^ drop) | extra]
    # near-misses: random sets of exactly pencil size; then assorted sizes
    sets += [sum(1 << g for g in rng.sample(range(n), ctx.pencil))
             for _ in range(10)]
    sets += [sum(1 << g for g in rng.sample(range(n), rng.randrange(0, n + 1)))
             for _ in range(32)]
    return ctx, sets


def _verdict_agreement(rep) -> bool:
    """The verdicts other than None (open) and "vacuous" hold one value."""
    return len(set(rep.verdicts.values()) - {None, "vacuous"}) == 1


@criterion(4, "characterisation equivalence")
def criterion_4():
    """Pairwise agreement of (i), (ii), (iii), image and, with enumerated
    spreads, (iv), over a >= 500 set corpus; every "in" image verdict is
    certified by its preimage."""
    res = _spreads("Q+(5,2)")
    if not res.exhaustive or res.solutions:
        return False, "Q+(5,2) spread search not exhaustive-empty"
    total = certified = 0
    for name in SPACES:
        ctx, sets = _corpus(name)
        spreads = (_spreads(name).solutions
                   if name in ("W(3,2)", "Q-(5,2)", "Q+(5,2)") else None)
        for mask in sets:
            gs = GenSet(ctx, mask)
            rep = check_cl(gs, spreads=spreads)
            if spreads == [] and rep.verdicts["spread_intersections"] != "vacuous":
                return False, f"{name}: vacuity"
            if not _verdict_agreement(rep):
                return False, f"{name} mask size {gs.size}: {rep.verdicts}"
            if rep.verdicts["image"]:  # M^t Y = s chi, else it raises
                for image, part in image_parts(gs)[1]:
                    image.certify(part)
                certified += 1
            total += 1
    if total < 500:
        return False, f"corpus too small: {total}"
    return True, (f"{total} sets, all verdicts agree; image = (iii) by the "
                  f"certified identity S_M = S; {certified} 'in' verdicts "
                  f"certified by M^t Y = s chi")


@criterion(5, "example parameters")
def criterion_5():
    """Predicted parameters of every construction, complements included."""
    checks = []
    for name in SPACES:
        ctx = _ctx(name)
        gs = construct_point_pencil(ctx, 0)
        checks += [("pencil " + name, gs, 1), ("complement " + name,
                    complement(gs), qint(ctx.q, ctx.e + ctx.d - 1))]
    checks.append(("embedded Q(4,2)", construct_embedded(_ctx("Q-(5,2)")), 3))
    for name in ("Q(6,2)", "W(5,2)"):
        ctx = _ctx(name)
        checks += [(f"hyperbolic class {name}", construct_hyperbolic_class(ctx, 0), 1),
                   (f"base-plane {name}", construct_base_plane(ctx, 0), 1)]
    checks.append(("embedded H(3,4)", construct_embedded(_ctx("H(4,4)")), 3))
    qp7 = _ctx("Q+(7,2)")
    center = qp7.space.class_members("greek")[0]
    cp = construct_point_pencil(qp7, 0, "latin")
    checks += [("base-solid Q+(7,2)", construct_base_solid(qp7, center, "latin"), 1),
               ("class pencil Q+(7,2)", cp, 1),
               ("class complement Q+(7,2)", complement(cp), 2 ** 3)]
    for label, gs, expect_x in checks:
        rep = check_cl(gs)
        if not rep.is_cl or gs.x != expect_x:
            return False, f"{label}: x={gs.x}, CL={rep.is_cl}"
    return True, f"{len(checks)} constructions at predicted x"


def _probes(gs: GenSet, count: int = 20):
    inside = gs.members()[: count // 2]
    outside = [g for g in range(gs.ctx.n)
               if not (gs.mask >> g) & 1][: count - len(inside)]
    return inside + outside


@criterion(6, "intersection distributions")
def criterion_6():
    """Intersection distributions against brute force, plus the
    z-profile recursion."""
    probes_done = 0
    qp7 = _ctx("Q+(7,2)")
    center = qp7.space.class_members("greek")[0]
    probed = [(f"pencil {name}", construct_point_pencil(_ctx(name), 0))
              for name in ("W(3,2)", "Q(4,2)", "Q-(5,2)", "W(3,3)",
                           "Q+(5,2)", "H(3,4)", "H(4,4)")]
    probed += [("embedded", construct_embedded(_ctx("Q-(5,2)"))),
               ("class set", construct_base_solid(qp7, center, "latin")),
               ("class set", construct_point_pencil(qp7, 0, "latin"))]
    for label, gs in probed:
        for pi in gs.universe.members[:20] if gs.class_label else _probes(gs):
            ok, got, exp = profile_verdict(gs, pi)
            if ok is not True:
                return False, f"{label} probe {pi}: {got} vs {exp}"
            probes_done += 1
    # z-profile recursion on Q-(5,2) and on the rank-3 space Q+(5,2)
    for name in ("Q-(5,2)", "Q+(5,2)"):
        ctx = _ctx(name)
        gs = construct_point_pencil(ctx, 0)
        done = 0
        for pi in range(ctx.n):
            if (gs.mask >> pi) & 1:
                continue
            for point in _bits(ctx.space.gen_point_masks[pi]):
                ok, z = z_profile(gs, pi, point)
                if not ok:
                    return False, f"z-profile {name} pi={pi} P={point}: {z}"
                done += 1
            if done >= 20:
                break
        probes_done += done
    return True, f"{probes_done} probes, all exact"


@criterion(7, "2-regular systems")
def criterion_7():
    """2-regular systems of Q+(5,2) in V0+V2 that fail every CL test."""
    sp = get_space_by_name("Q+(5,2)")
    ctx = get_context(sp)
    res = find_regular_systems(sp, 2, eigenspaces={0, 2})
    if not res.solutions:
        return False, "none found"
    failing = 0
    for mask in res.solutions:
        gs = GenSet(ctx, mask)
        if not is_regular_system(gs, 2):
            raise VerificationError(
                f"search solution {mask:#x} is not a 2-regular system of Q+(5,2)")
        rep = check_cl(gs)
        if not rep.is_cl and not rep.verdicts["eigenspace"]:
            failing += 1
    if failing == 0:
        return False, "all found systems pass CL"
    return True, (f"{len(res.solutions)} systems in V0+V2 "
                  f"(exhaustive={res.exhaustive}), {failing} fail the CL tests")


def _tally(labels) -> dict:
    return dict(sorted(Counter(labels).items()))


@criterion(8, "parameter-1 classification")
def criterion_8():
    """Exhaustive parameter-1 classification on four spaces."""
    for name, label, expect in PARAMETER1_ROWS:
        sp = get_space_by_name(name)
        res = find_cl_parameter1(sp, class_label=label)
        counts = _tally(classify_parameter1(sp, m, label) for m in res.solutions)
        if not res.exhaustive or counts != expect:
            return False, (f"{name}{' class' if label else ''}: {counts}"
                           + ("" if res.exhaustive else " (truncated)"))
    return True, ("W(3,2): 15 pencils; Q-(5,2): 27 pencils; Q(6,2): 63+72+135; "
                  "one class of Q+(7,2): 135 pencils + 135 base-solids")


@criterion(9, "tight-set classification")
def criterion_9():
    """Tight sets of GQ(2,2) (x<=2) and GQ(4,2) (x<=3): no 'other' label."""
    summary = {}
    for gq, x_max in ((GQ.from_polar(get_space_by_name("W(3,2)")), 2),
                      (GQ.from_polar(get_space_by_name("Q-(5,2)")).dual(), 3)):
        name = f"GQ({gq.s},{gq.t})"
        res = find_tight_sets(gq, x_max)
        if not res.exhaustive:
            return False, f"{name} truncated"
        for i, sols in res.meta["by_parameter"].items():
            labels = _tally(s["label"] for s in sols)
            if "other" in labels:
                return False, f"{name} i={i}: {labels}"
            summary[f"{name} i={i}"] = len(sols)
    return True, str(summary)


@criterion(10, "small-x classification")
def criterion_10():
    """Small-parameter classification on Q-(5,2): pencil unions or an
    embedded parabolic quadric."""
    from .geometry import all_hyperplanes, classify_hyperplane_section
    qm = get_space_by_name("Q-(5,2)")
    ctx = get_context(qm)
    res = find_cl_bounded(qm, 3)
    if not res.exhaustive:
        return False, "truncated"
    embeds = {construct_embedded(ctx, a).mask for a in all_hyperplanes(qm.gf, 5)
              if classify_hyperplane_section(qm.form, a, qm.points) == "parabolic"}
    tally = {}
    for x, sols in res.meta["by_parameter"].items():
        for m in sols:
            if union_of_pencils_decomposition(qm, m) is not None:
                kind = "pencil-union"
            elif x == 3 and m in embeds:
                kind = "embedded"
            else:
                return False, f"x={x}: unexplained set"
            tally[(x, kind)] = tally.get((x, kind), 0) + 1
    return True, ", ".join(f"x={x} {k}: {v}" for (x, k), v in sorted(tally.items()))


@criterion(11, "two-generator counts")
def criterion_11():
    """Two-generator disjointness counts: closed forms vs brute force."""
    checked = 0
    for name, dims, cap in PAIR_COUNT_ROWS:
        sp = get_space_by_name(name)
        A = get_context(sp).scheme.A
        K = A[sp.d]
        for v in dims:
            expect = kms_disjoint_to_two(sp.desc, v)
            # the pairs a < b meeting in a v-space: distance d-1-v
            pairs = ((a, b) for a, m in enumerate(A[sp.d - 1 - v])
                     for b in _bits(m >> a + 1 << a + 1))
            for a, b in islice(pairs, cap):
                if (got := (K[a] & K[b]).bit_count()) != expect:
                    return False, f"{name} v={v}: {got} != {expect}"
                checked += 1
    # class Cameron-Liebler sets on one class of Q+(7,2)
    ctx7 = _ctx("Q+(7,2)")
    qp7, K = ctx7.space, ctx7.scheme.K
    pencil = construct_point_pencil(ctx7, 0, "latin")
    center = qp7.class_members("greek")[0]
    members = qp7.class_members("latin")
    pairs = []
    for a in members:
        pairs += [(a, b) for b in members if b > a and (K[a] >> b) & 1]
        if len(pairs) >= 25:
            break
    for gs in (GenSet(ctx7, qp7.class_mask("latin"), "latin"), pencil,
               construct_base_solid(ctx7, center, "latin"), complement(pencil)):
        x = int(gs.x)
        for a, b in pairs:
            expect = class_disjoint_to_two(2, 2, x, (gs.mask >> a) & 1,
                                           (gs.mask >> b) & 1)
            if (got := (K[a] & K[b] & gs.mask).bit_count()) != expect:
                return False, f"class set x={x}: {got} != {expect}"
            checked += 1
    if class_disjoint_to_two(2, 2, 9, 1, 1) != 28:
        return False, "closed form at x=9 is not 28"
    return True, (f"{checked} pair counts, exponent n(n-1) confirmed "
                  "(28 for the full class at q=2)")


@criterion(12, "spread facts")
def criterion_12():
    """Spread facts: class purity, eigenspace orthogonality, intersection
    with Cameron-Liebler sets and regular systems."""
    qp5 = get_space_by_name("Q+(5,2)")
    res = _spreads("Q+(5,2)")
    if not res.exhaustive or res.solutions:
        return False, "Q+(5,2) spreads should be exhaustively empty"
    # class purity is vacuous on Q+(5,2); check it really on Q+(7,2) samples
    qp7 = get_space_by_name("Q+(7,2)")
    for s in find_spreads(qp7, max_solutions=5).solutions:
        if len({qp7.class_labels[g] for g in _bits(s)}) != 1:
            return False, "Q+(7,2) spread not class-pure"
    checked = 0
    for name, extra in (("W(3,2)", None), ("Q-(5,2)", None), ("Q(6,2)", 3)):
        ctx = _ctx(name)
        spreads = (_spreads(name) if extra is None
                   else _spreads(name, 40)).solutions
        if not spreads:
            return False, f"{name}: no spreads found"
        for s in spreads:
            # w = pencil chi_s - 1: <w, 1> = 0, or chi_s has no V_j part
            for j in (0, 1) + ((extra,) if extra else ()):
                if (ctx.pencil * s.bit_count() != ctx.n if j == 0 else
                        ctx.scheme.combination(set(range(ctx.d + 1)) - {j})
                        .witness(s) is not None):
                    return False, f"{name}: spread not orthogonal V_{j}"
            checked += 1
        ok, wit = test_spread_intersections(construct_point_pencil(ctx, 0), spreads)
        if ok is not True:
            return False, f"{name}: pencil vs spread {wit}"
        if name == "Q(6,2)":
            ok, wit = test_spread_intersections(
                construct_hyperbolic_class(ctx, 0), spreads)
            if ok is not True:
                return False, "hyperbolic class vs spread"
    # CL set vs m-regular system on the type I space Q+(5,2): |L ^ S| = m x
    ctx5 = get_context(qp5)
    cl_sets = [construct_point_pencil(ctx5, 0),
               complement(construct_point_pencil(ctx5, 0)),
               GenSet(ctx5, (1 << ctx5.n) - 1)]
    systems = [(qp5.class_mask("latin"), 3), (qp5.class_mask("greek"), 3)]
    two_reg = find_regular_systems(qp5, 2, max_solutions=30)
    systems += [(m, 2) for m in two_reg.solutions]
    for gs in cl_sets:
        for smask, m in systems:
            if (gs.mask & smask).bit_count() != m * gs.x:
                return False, f"|L^S| != m x (m={m}, x={gs.x})"
            checked += 1
    return True, f"{checked} spread/system checks"


def run_suite(printer=print) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        printer(res.line())
    return results
