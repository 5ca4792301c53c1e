"""The acceptance battery: twelve verification criteria, each exact.

Each criterion function returns a CriterionResult; `run_suite` executes
all of them in order and reports one pass/fail line per criterion.  The
corpus used by the equivalence criterion is generated deterministically
from a fixed seed recorded in the manifest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] criterion {self.number:2d} - {self.name}: {self.details}"


@lru_cache(maxsize=None)
def _spreads(name: str, cap: int | None = None):
    return find_spreads(get_space_by_name(name), max_solutions=cap)


def criterion_1() -> CriterionResult:
    """Enumerated level sizes equal the closed subspace-count formula."""
    checked = 0
    for name in SPACES:
        sp = get_space_by_name(name)
        for k in range(1, sp.d + 1):
            expect = num_kspaces(sp.d, sp.desc.e, sp.desc.q, k - 1)
            if len(sp.levels[k]) != expect:
                return CriterionResult(1, "count oracle", False,
                                       f"{name} level {k}")
            checked += 1
        if sp.n_generators != GENERATOR_COUNTS[name]:
            return CriterionResult(1, "count oracle", False,
                                   f"{name} generators")
    return CriterionResult(1, "count oracle", True,
                           f"{checked} levels across {len(SPACES)} spaces")


def criterion_2() -> CriterionResult:
    """The algebra certificate: A_1 A_j matches the closed forms everywhere."""
    for name in ["Q(6,2)", "Q-(5,2)", "H(3,4)", "Q+(7,2)"]:
        ctx = get_context(get_space_by_name(name))
        params, witness = ctx.scheme.verify_distance_regularity()
        if witness is not None:
            return CriterionResult(2, "distance-regularity", False,
                                   f"{name}: {witness}")
    return CriterionResult(2, "distance-regularity", True,
                           "all pairs on Q(6,2), Q-(5,2), H(3,4), Q+(7,2)")


def criterion_3() -> CriterionResult:
    """K w = P_{j,d} w on every constructed eigenspace basis vector."""
    vectors = 0
    for name in ["Q(6,2)", "Q-(5,2)", "H(3,4)", "Q+(7,2)"]:
        ctx = get_context(get_space_by_name(name))
        sch = ctx.scheme
        bases = sch.eigenspace_bases()
        for j, basis in bases.items():
            lam = sch.P[j][sch.d]
            for w in basis:
                if sch.matvec_mask(sch.K, w) != [lam * x for x in w]:
                    return CriterionResult(3, "spectrum", False,
                                           f"{name} V_{j}")
                vectors += 1
            if j >= 2:
                # V_j sits inside ker(C_{j-1}): lower incidences kill it
                for w in basis:
                    for row in sch.incidence(j - 1):
                        if sum(w[g] for g in _bits(row)) != 0:
                            return CriterionResult(
                                3, "spectrum", False, f"{name} ker C_{j-1}")
    return CriterionResult(3, "spectrum", True,
                           f"{vectors} basis vectors, all exact")


def _corpus(name: str):
    """Deterministic test corpus for one space: constructions, set algebra,
    random sets, near-misses, perturbations."""
    sp = get_space_by_name(name)
    ctx = get_context(sp)
    rng = random.Random((CORPUS_SEED, name).__str__())
    n = ctx.n
    sets: list[int] = []
    pencil0 = construct_point_pencil(ctx, 0)
    for p in (0, 1, 2, len(sp.points) // 2, len(sp.points) - 1):
        sets.append(construct_point_pencil(ctx, p).mask)
    sets.append(complement(pencil0).mask)
    sets.append((1 << n) - 1)
    sets.append(0)
    sets.append(difference(GenSet(ctx, (1 << n) - 1), pencil0).mask)
    # disjoint pencil union: vertices non-collinear
    for p in range(1, len(sp.points)):
        if sp.form.pair(sp.points[0], sp.points[p]) != 0:
            sets.append(union(pencil0, construct_point_pencil(ctx, p)).mask)
            break
    if space_type(sp.desc) == "III":
        sets.append(construct_hyperbolic_class(ctx, 0).mask)
        sets.append(construct_hyperbolic_class(ctx, 1).mask)
        if sp.d == 3:
            sets.append(construct_base_plane(ctx, 0).mask)
    if sp.desc.family in ("Q-", "Q") or (sp.desc.family == "H"
                                         and sp.desc.dim % 2 == 0):
        if Fraction(sp.desc.e) >= 1:
            sets.append(construct_embedded(ctx).mask)
    if sp.desc.family == "Q+" and sp.d % 2 == 0:
        # mixed two-class pencil set (vertices non-collinear)
        for p in range(1, len(sp.points)):
            if sp.form.pair(sp.points[0], sp.points[p]) != 0:
                m = (sp.point_gen_masks()[0] & sp.class_mask("latin")) \
                    | (sp.point_gen_masks()[p] & sp.class_mask("greek"))
                sets.append(m)
                break
        # unequal class parameters: one whole class, and a class plus a
        # pencil of the other class
        sets.append(sp.class_mask("latin"))
        sets.append(sp.class_mask("greek")
                    | (sp.point_gen_masks()[0] & sp.class_mask("latin")))
    # single-element perturbations of a pencil
    members = list(_bits(pencil0.mask))
    outside = [g for g in range(n) if not (pencil0.mask >> g) & 1]
    sets.append(pencil0.mask & ~(1 << members[0]))
    sets.append(pencil0.mask | (1 << outside[0]))
    sets.append((pencil0.mask & ~(1 << members[0])) | (1 << outside[0]))
    # near-misses: random sets of exactly pencil size
    for _ in range(10):
        sets.append(sum(1 << g for g in rng.sample(range(n), ctx.pencil)))
    # random sets of assorted sizes
    for _ in range(32):
        size = rng.randrange(0, n + 1)
        sets.append(sum(1 << g for g in rng.sample(range(n), size)))
    return ctx, sets


def _verdict_agreement(rep) -> bool:
    vals = [rep.verdicts["disjointness_counts"], rep.verdicts["eigenvector"],
            rep.verdicts["eigenspace"]]
    img = rep.verdicts.get("image")
    if img is not None:
        vals.append(img)
    spread = rep.verdicts.get("spread_intersections")
    if spread is not None and spread != "vacuous":
        vals.append(spread)
    return len(set(vals)) == 1


def criterion_4() -> CriterionResult:
    """Pairwise agreement of (i), (ii), (iii), image and, with enumerated
    spreads, (iv), over a >= 500 set corpus; every "in" image verdict is
    certified by its preimage."""
    total = certified = 0
    spread_lists = {
        "W(3,2)": _spreads("W(3,2)").solutions,
        "Q-(5,2)": _spreads("Q-(5,2)").solutions,
        "Q+(5,2)": _spreads("Q+(5,2)").solutions,
    }
    res = _spreads("Q+(5,2)")
    if not res.exhaustive or res.solutions:
        return CriterionResult(4, "characterisation equivalence", False,
                               "Q+(5,2) spread search not exhaustive-empty")
    for name in SPACES:
        ctx, sets = _corpus(name)
        spreads = spread_lists.get(name)
        for mask in sets:
            gs = GenSet(ctx, mask)
            rep = check_cl(gs, spreads=spreads)
            if spreads is not None and not spreads:
                if rep.verdicts.get("spread_intersections") != "vacuous":
                    return CriterionResult(4, "characterisation equivalence",
                                           False, f"{name}: vacuity")
            if not _verdict_agreement(rep):
                return CriterionResult(
                    4, "characterisation equivalence", False,
                    f"{name} mask size {gs.size}: {rep.verdicts}")
            if rep.verdicts["image"]:  # M^t Y = s chi, else it raises
                for image, part in image_parts(gs)[1]:
                    image.certify(part)
                certified += 1
            total += 1
    if total < 500:
        return CriterionResult(4, "characterisation equivalence", False,
                               f"corpus too small: {total}")
    return CriterionResult(4, "characterisation equivalence", True,
                           f"{total} sets, all verdicts agree; image = (iii) "
                           f"by the certified identity S_M = S; {certified} "
                           f"'in' verdicts certified by M^t Y = s chi")


def criterion_5() -> CriterionResult:
    """Predicted parameters of every construction, complements included."""
    checks = []
    for name in SPACES:
        ctx = get_context(get_space_by_name(name))
        gs = construct_point_pencil(ctx, 0)
        checks.append(("pencil " + name, gs, 1))
        comp = complement(gs)
        checks.append(("complement " + name, comp,
                       qint(ctx.q, ctx.e + ctx.d - 1) + 1 - 1))
    qm = get_context(get_space_by_name("Q-(5,2)"))
    checks.append(("embedded Q(4,2)", construct_embedded(qm), 3))
    q6 = get_context(get_space_by_name("Q(6,2)"))
    checks.append(("hyperbolic class Q(6,2)",
                   construct_hyperbolic_class(q6, 0), 1))
    checks.append(("base-plane Q(6,2)", construct_base_plane(q6, 0), 1))
    w5 = get_context(get_space_by_name("W(5,2)"))
    checks.append(("hyperbolic class W(5,2)",
                   construct_hyperbolic_class(w5, 0), 1))
    checks.append(("base-plane W(5,2)", construct_base_plane(w5, 0), 1))
    h4 = get_context(get_space_by_name("H(4,4)"))
    checks.append(("embedded H(3,4)", construct_embedded(h4), 3))
    qp7 = get_context(get_space_by_name("Q+(7,2)"))
    center = qp7.space.class_members("greek")[0]
    bs = construct_base_solid(qp7, center, "latin")
    checks.append(("base-solid Q+(7,2)", bs, 1))
    cp = construct_point_pencil(qp7, 0, "latin")
    checks.append(("class pencil Q+(7,2)", cp, 1))
    checks.append(("class complement Q+(7,2)", complement(cp), 2 ** 3 + 1 - 1))
    for label, gs, expect_x in checks:
        rep = check_cl(gs)
        if not rep.is_cl or gs.x != expect_x:
            return CriterionResult(5, "example parameters", False,
                                   f"{label}: x={gs.x}, CL={rep.is_cl}")
    return CriterionResult(5, "example parameters", True,
                           f"{len(checks)} constructions at predicted x")


def _probes(gs: GenSet, count: int = 20):
    inside = gs.members()[: count // 2]
    outside = [g for g in range(gs.ctx.n)
               if not (gs.mask >> g) & 1][: count - len(inside)]
    return inside + outside


def criterion_6() -> CriterionResult:
    """Intersection distributions against brute force, plus the
    z-profile recursion."""
    probes_done = 0
    type_i = [("W(3,2)", 0), ("Q(4,2)", 0), ("Q-(5,2)", 0), ("W(3,3)", 0),
              ("Q+(5,2)", 0), ("H(3,4)", 0), ("H(4,4)", 0)]
    for name, point in type_i:
        ctx = get_context(get_space_by_name(name))
        gs = construct_point_pencil(ctx, point)
        for pi in _probes(gs):
            ok, got, exp = profile_verdict(gs, pi)
            if ok is not True:
                return CriterionResult(6, "intersection distributions", False,
                                       f"pencil {name} probe {pi}: {got} vs {exp}")
            probes_done += 1
    qm = get_context(get_space_by_name("Q-(5,2)"))
    em = construct_embedded(qm)
    for pi in _probes(em):
        ok, got, exp = profile_verdict(em, pi)
        if ok is not True:
            return CriterionResult(6, "intersection distributions", False,
                                   f"embedded probe {pi}")
        probes_done += 1
    qp7 = get_context(get_space_by_name("Q+(7,2)"))
    center = qp7.space.class_members("greek")[0]
    for gs in (construct_base_solid(qp7, center, "latin"),
               construct_point_pencil(qp7, 0, "latin")):
        for pi in qp7.space.class_members("latin")[:20]:
            ok, got, exp = profile_verdict(gs, pi)
            if ok is not True:
                return CriterionResult(6, "intersection distributions", False,
                                       f"class set probe {pi}: {got} vs {exp}")
            probes_done += 1
    # z-profile recursion on Q-(5,2) and on the rank-3 space Q+(5,2)
    for name in ("Q-(5,2)", "Q+(5,2)"):
        ctx = get_context(get_space_by_name(name))
        sp = ctx.space
        gs = construct_point_pencil(ctx, 0)
        done = 0
        for pi in range(ctx.n):
            if (gs.mask >> pi) & 1:
                continue
            for point in _bits(sp.gen_point_masks[pi]):
                ok, z = z_profile(gs, pi, point)
                if not ok:
                    return CriterionResult(6, "intersection distributions", False,
                                           f"z-profile {name} pi={pi} P={point}: {z}")
                done += 1
            if done >= 20:
                break
        probes_done += done
    return CriterionResult(6, "intersection distributions", True,
                           f"{probes_done} probes, all exact")


def criterion_7() -> CriterionResult:
    """2-regular systems of Q+(5,2) in V0+V2 that fail every CL test."""
    sp = get_space_by_name("Q+(5,2)")
    ctx = get_context(sp)
    res = find_regular_systems(sp, 2, eigenspaces={0, 2})
    if not res.solutions:
        return CriterionResult(7, "2-regular systems", False, "none found")
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
        return CriterionResult(7, "2-regular systems", False,
                               "all found systems pass CL")
    return CriterionResult(
        7, "2-regular systems", True,
        f"{len(res.solutions)} systems in V0+V2 "
        f"(exhaustive={res.exhaustive}), {failing} fail the CL tests")


def criterion_8() -> CriterionResult:
    """Exhaustive parameter-1 classification on four spaces."""
    w = get_space_by_name("W(3,2)")
    res = find_cl_parameter1(w)
    if not res.exhaustive or len(res.solutions) != 15 or any(
            classify_parameter1(w, m) != "point-pencil" for m in res.solutions):
        return CriterionResult(8, "parameter-1 classification", False, "W(3,2)")
    qm = get_space_by_name("Q-(5,2)")
    res = find_cl_parameter1(qm)
    if not res.exhaustive or len(res.solutions) != 27 or any(
            classify_parameter1(qm, m) != "point-pencil" for m in res.solutions):
        return CriterionResult(8, "parameter-1 classification", False, "Q-(5,2)")
    q6 = get_space_by_name("Q(6,2)")
    res = find_cl_parameter1(q6)
    labels = [classify_parameter1(q6, m) for m in res.solutions]
    counts = {lab: labels.count(lab) for lab in set(labels)}
    if (not res.exhaustive or counts.get("point-pencil") != 63
            or counts.get("hyperbolic-class") != 72
            or counts.get("base-plane") != 135 or "other" in counts):
        return CriterionResult(8, "parameter-1 classification", False,
                               f"Q(6,2): {counts}")
    qp7 = get_space_by_name("Q+(7,2)")
    res = find_cl_parameter1(qp7, class_label="latin")
    labels = [classify_parameter1(qp7, m, "latin") for m in res.solutions]
    counts = {lab: labels.count(lab) for lab in set(labels)}
    if (not res.exhaustive or counts.get("point-pencil") != 135
            or counts.get("base-solid") != 135 or "other" in counts):
        return CriterionResult(8, "parameter-1 classification", False,
                               f"Q+(7,2) class: {counts}")
    return CriterionResult(
        8, "parameter-1 classification", True,
        "W(3,2): 15 pencils; Q-(5,2): 27 pencils; Q(6,2): 63+72+135; "
        "one class of Q+(7,2): 135 pencils + 135 base-solids")


def criterion_9() -> CriterionResult:
    """Tight sets of GQ(2,2) (x<=2) and GQ(4,2) (x<=3): no 'other' label."""
    gq22 = GQ.from_polar(get_space_by_name("W(3,2)"))
    res = find_tight_sets(gq22, 2)
    if not res.exhaustive:
        return CriterionResult(9, "tight-set classification", False,
                               "GQ(2,2) truncated")
    summary = {}
    for i, sols in res.meta["by_parameter"].items():
        labs = {s["label"] for s in sols}
        if "other" in labs:
            return CriterionResult(9, "tight-set classification", False,
                                   f"GQ(2,2) i={i}")
        summary[f"GQ(2,2) i={i}"] = len(sols)
    gq42 = GQ.from_polar(get_space_by_name("Q-(5,2)")).dual()
    res = find_tight_sets(gq42, 3)
    if not res.exhaustive:
        return CriterionResult(9, "tight-set classification", False,
                               "GQ(4,2) truncated")
    for i, sols in res.meta["by_parameter"].items():
        labs = {s["label"] for s in sols}
        if "other" in labs:
            return CriterionResult(9, "tight-set classification", False,
                                   f"GQ(4,2) i={i}")
        summary[f"GQ(4,2) i={i}"] = len(sols)
    return CriterionResult(9, "tight-set classification", True, str(summary))


def criterion_10() -> CriterionResult:
    """Small-parameter classification on Q-(5,2): pencil unions or an
    embedded parabolic quadric."""
    from .geometry import all_hyperplanes, classify_hyperplane_section
    qm = get_space_by_name("Q-(5,2)")
    ctx = get_context(qm)
    res = find_cl_bounded(qm, 3)
    if not res.exhaustive:
        return CriterionResult(10, "small-x classification", False, "truncated")
    embeds = set()
    for a in all_hyperplanes(qm.gf, 5):
        if classify_hyperplane_section(qm.form, a, qm.points) == "parabolic":
            embeds.add(construct_embedded(ctx, a).mask)
    tally = {}
    for x, sols in res.meta["by_parameter"].items():
        for m in sols:
            if union_of_pencils_decomposition(qm, m) is not None:
                kind = "pencil-union"
            elif x == 3 and m in embeds:
                kind = "embedded"
            else:
                return CriterionResult(10, "small-x classification", False,
                                       f"x={x}: unexplained set")
            tally[(x, kind)] = tally.get((x, kind), 0) + 1
    detail = ", ".join(f"x={x} {k}: {v}" for (x, k), v in sorted(tally.items()))
    return CriterionResult(10, "small-x classification", True, detail)


def criterion_11() -> CriterionResult:
    """Two-generator disjointness counts: closed forms vs brute force."""
    qp7 = get_space_by_name("Q+(7,2)")
    ctx7 = get_context(qp7)
    K = ctx7.scheme.K
    checked = 0
    for v in (-1, 1):
        expect = kms_disjoint_to_two(qp7.desc, v)
        done = 0
        for a in range(ctx7.n):
            for b in range(a + 1, ctx7.n):
                if qp7.intersection_vdim(a, b) != v + 1:
                    continue
                got = (K[a] & K[b]).bit_count()
                if got != expect:
                    return CriterionResult(
                        11, "two-generator counts", False,
                        f"Q+(7,2) v={v}: {got} != {expect}")
                done += 1
                if done >= 40:
                    break
            if done >= 40:
                break
        checked += done
    h34 = get_space_by_name("H(3,4)")
    ctxh = get_context(h34)
    Kh = ctxh.scheme.K
    for v in (-1, 0):
        expect = kms_disjoint_to_two(h34.desc, v)
        for a in range(ctxh.n):
            for b in range(a + 1, ctxh.n):
                if h34.intersection_vdim(a, b) != v + 1:
                    continue
                got = (Kh[a] & Kh[b]).bit_count()
                if got != expect:
                    return CriterionResult(
                        11, "two-generator counts", False,
                        f"H(3,4) v={v}: {got} != {expect}")
                checked += 1
    # class Cameron-Liebler sets on one class of Q+(7,2)
    latin = qp7.class_mask("latin")
    full_class = GenSet(ctx7, latin, "latin")
    pencil = construct_point_pencil(ctx7, 0, "latin")
    center = qp7.class_members("greek")[0]
    solid = construct_base_solid(ctx7, center, "latin")
    pairs = []
    members = qp7.class_members("latin")
    for a in members:
        for b in members:
            if b > a and (K[a] >> b) & 1:
                pairs.append((a, b))
        if len(pairs) >= 25:
            break
    for gs in (full_class, pencil, solid, complement(pencil)):
        x = int(gs.x)
        for a, b in pairs:
            chi_a = (gs.mask >> a) & 1
            chi_b = (gs.mask >> b) & 1
            expect = class_disjoint_to_two(2, 2, x, chi_a, chi_b)
            got = (K[a] & K[b] & gs.mask).bit_count()
            if got != expect:
                return CriterionResult(
                    11, "two-generator counts", False,
                    f"class set x={x}: {got} != {expect}")
            checked += 1
    full28 = class_disjoint_to_two(2, 2, 9, 1, 1)
    if full28 != 28:
        return CriterionResult(11, "two-generator counts", False,
                               "closed form at x=9 is not 28")
    return CriterionResult(11, "two-generator counts", True,
                           f"{checked} pair counts, exponent n(n-1) confirmed "
                           "(28 for the full class at q=2)")


def criterion_12() -> CriterionResult:
    """Spread facts: class purity, eigenspace orthogonality, intersection
    with Cameron-Liebler sets and regular systems."""
    qp5 = get_space_by_name("Q+(5,2)")
    res = _spreads("Q+(5,2)")
    if not res.exhaustive or res.solutions:
        return CriterionResult(12, "spread facts", False,
                               "Q+(5,2) spreads should be exhaustively empty")
    # class purity is vacuous on Q+(5,2); check it really on Q+(7,2) samples
    qp7 = get_space_by_name("Q+(7,2)")
    res7 = find_spreads(qp7, max_solutions=5)
    for s in res7.solutions:
        labs = {qp7.class_labels[g] for g in _bits(s)}
        if len(labs) != 1:
            return CriterionResult(12, "spread facts", False,
                                   "Q+(7,2) spread not class-pure")
    checked = 0
    for name, extra in (("W(3,2)", None), ("Q-(5,2)", None), ("Q(6,2)", 3)):
        sp = get_space_by_name(name)
        ctx = get_context(sp)
        spreads = (_spreads(name) if extra is None
                   else _spreads(name, 40)).solutions
        if not spreads:
            return CriterionResult(12, "spread facts", False,
                                   f"{name}: no spreads found")
        for s in spreads:
            # w = pencil chi_s - 1: <w, 1> = 0, or chi_s has no V_j part
            for j in (0, 1) + ((extra,) if extra else ()):
                if (ctx.pencil * s.bit_count() != ctx.n if j == 0 else
                        ctx.scheme.combination(set(range(ctx.d + 1)) - {j})
                        .witness(s) is not None):
                    return CriterionResult(12, "spread facts", False,
                                           f"{name}: spread not orthogonal V_{j}")
            checked += 1
        pencil = construct_point_pencil(ctx, 0)
        ok, wit = test_spread_intersections(pencil, spreads)
        if ok is not True:
            return CriterionResult(12, "spread facts", False,
                                   f"{name}: pencil vs spread {wit}")
        if name == "Q(6,2)":
            hc = construct_hyperbolic_class(ctx, 0)
            ok, wit = test_spread_intersections(hc, spreads)
            if ok is not True:
                return CriterionResult(12, "spread facts", False,
                                       "hyperbolic class vs spread")
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
                return CriterionResult(12, "spread facts", False,
                                       f"|L^S| != m x (m={m}, x={gs.x})")
            checked += 1
    return CriterionResult(12, "spread facts", True,
                           f"{checked} spread/system checks")


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12]


def run_suite(printer=print) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        printer(res.line())
    return results
