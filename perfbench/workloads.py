"""The polarcl benchmark workloads and the phases every workload runs.

Each workload is a `Plan`: the spaces it sets up, the schemes it
certifies, the searches it runs with their exact expected (solutions,
nodes), and the corpus its check phase verifies.  `execute` runs one
plan: the setup, then rounds of the other three phases (see there).

    setup    enumerate, build the context, one verdict per space
    certify  regularity, intersection numbers, B^tB, incidences, bases
    search   the plan's searches
    check    one pass of `check_cl` over the corpus

Every operation (one set-up space, one certification step, one search,
one check) is counted; it fails when it raises or when its gate finds a
wrong result.  The program is called through module attributes
(`clsets.check_cl`, `search.find_spreads`, ...) so that the traced run's
wrappers see the benchmark's own calls too.

Why the workloads are what they are is written down in README.md.
"""

from __future__ import annotations

import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from polarcl import clsets, counting, enumeration, gq as gqmod, scheme, search

# Every time is CPU time of this single-threaded process: wall time on an
# idle host, without the time the process waits for a CPU on a busy one.
clock = time.process_time

DESK_SPACES = ["Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)",
               "W(3,2)", "W(3,3)", "W(5,2)", "H(3,4)", "H(4,4)"]
# basis vectors per eigenspace that are also checked against K = A_d
EIGENCHECK_VECTORS = 2


def space_key(name: str) -> str:
    """`Q+(7,2)` -> `Qp7_2`, `Q-(5,2)` -> `Qm5_2`, `H(4,4)` -> `H4_4`."""
    return (name.replace("+", "p").replace("-", "m").replace("(", "")
            .replace(")", "").replace(",", "_"))


@dataclass
class SearchSpec:
    id: str
    call: Callable  # Env -> SearchResult
    solutions: int
    nodes: int
    rounds: int = 1  # rounds the search runs in
    reps: int = 1  # repeats within each of those rounds
    verify: Callable | None = None  # (Env, SearchResult) -> problem or None


@dataclass
class Case:
    ctx: object
    mask: int
    class_label: str | None = None
    spreads: list | None = None
    expect_x: Fraction | None = None  # set: must be Cameron-Liebler with this x


@dataclass
class Plan:
    name: str
    spaces: list[str]
    setup_reps: int
    certify: list[str]  # spaces whose schemes are certified
    certify_reps: int  # certification rounds
    searches: list[SearchSpec]
    corpus: Callable  # (Env, seed) -> list[Case]
    min_passes: int  # least number of check passes, one per round
    build_gq: bool = False


@dataclass
class Env:
    """What the phases hand each other: contexts, the GQ, search results."""

    ctx: dict = field(default_factory=dict)
    gq: object = None
    results: dict = field(default_factory=dict)

    def space(self, name):
        return self.ctx[name].space


class Run:
    """Counts operations and failures, and keeps the phase measurements."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.phase_s: dict[str, float] = {}
        self.subspaces = 0
        self.search_times: dict[str, list[float]] = {}
        self.search_info: dict[str, dict] = {}
        self.check_times: dict[str, list[float]] = {}
        self.pass_rates: list[float] = []
        self.checks = 0
        self.checks_per_s = 0.0
        self.peak_rss_mb = 0.0
        self.certify_times: dict[str, list[float]] = {}

    def op(self, label: str, fn):
        """Run one operation; `fn` returns None when its gate holds, or a
        description of what it found instead."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a raising operation is a failed one
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{label}: {problem}")

    def span(self, name: str, layer: str = "bench"):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, layer)


# -- gates ---------------------------------------------------------------------


def verdict_problem(case: Case, rep) -> str | None:
    """All characterisations agree; constructions get their predicted x."""
    v = rep.verdicts
    vals = [v["disjointness_counts"], v["eigenvector"], v["eigenspace"]]
    if v.get("image") is not None:
        vals.append(v["image"])
    if case.spreads is not None:
        if not case.spreads:
            if v.get("spread_intersections") != "vacuous":
                return "no spreads, but statement (iv) is not vacuous"
        else:
            vals.append(v["spread_intersections"])
    if len(set(vals)) != 1:
        return f"characterisations disagree on a set of size {rep.size}: {v}"
    if case.expect_x is not None and (not rep.is_cl or rep.x != case.expect_x):
        return f"expected a CL set with x={case.expect_x}, got CL={rep.is_cl} x={rep.x}"
    return None


def spread_problem(sp, res) -> str | None:
    """Every reported spread partitions the points (checked here, directly)."""
    for s in res.solutions:
        covered, total = 0, 0
        while s:
            low = s & -s
            pm = sp.gen_point_masks[low.bit_length() - 1]
            covered |= pm
            total += pm.bit_count()
            s ^= low
        if covered != (1 << len(sp.points)) - 1 or total != len(sp.points):
            return "a reported spread does not partition the points"
    return None


def tight_gate(env, res) -> str | None:
    for i, sols in res.meta["by_parameter"].items():
        if any(s["label"] == "other" for s in sols):
            return f"an {i}-tight set is neither a line union nor a subquadrangle"
    return None


# -- phases ----------------------------------------------------------------------


def first_verdict_problem(ctx) -> str | None:
    sp = ctx.space
    d, e, q = sp.d, sp.desc.e, sp.desc.q
    for k in range(1, d + 1):
        expect = counting.num_kspaces(d, e, q, k - 1)
        if len(sp.levels[k]) != expect:
            return f"level {k} has {len(sp.levels[k])} subspaces, num_kspaces gives {expect}"
    gs = clsets.construct_point_pencil(ctx, 0)
    return verdict_problem(Case(ctx, gs.mask, expect_x=Fraction(1)),
                           clsets.check_cl(gs))


def setup_phase(plan: Plan, run: Run, env: Env):
    t0 = clock()
    with run.span("phase.setup"):
        for name in plan.spaces:
            def one(name=name):
                with run.span(f"setup {name}"):
                    sp = enumeration.get_space_by_name(name)
                    ctx = clsets.get_context(sp)
                    env.ctx[name] = ctx
                    run.subspaces += sum(len(sp.levels[k]) for k in range(1, sp.d + 1))
                    return first_verdict_problem(ctx)
            run.op(f"setup {name}", one)
        if plan.build_gq:
            def build():
                with run.span("setup GQ(4,2)"):
                    base = gqmod.GQ.from_polar(enumeration.get_space_by_name("Q-(5,2)"))
                    env.gq = base.dual()
                if env.gq.order != (4, 2):
                    return f"dual of the Q-(5,2) quadrangle has order {env.gq.order}"
            run.op("setup GQ(4,2)", build)
    run.phase_s["setup"] = clock() - t0


def certify_steps(ctx, sch):
    """(label, gate) for each certification step of one space's scheme."""
    sp = ctx.space
    d, e, q, n = sp.d, sp.desc.e, sp.desc.q, ctx.n

    def regularity():
        _, witness = sch.verify_distance_regularity()
        return witness and f"b/c parameters fail at {witness}"

    def intersection_numbers():
        witness = sch.verify_intersection_numbers()
        return witness and f"p^k_ij fails at {witness}"

    def btb():
        witness = sch.verify_BtB()
        return witness and f"B^tB fails at {witness}"

    def incidences():
        for k in range(1, d + 1):
            rows = sch.incidence(k)
            through = counting.num_kspaces_through_mspace(d, e, q, d - 1, k - 1)
            if len(rows) != counting.num_kspaces(d, e, q, k - 1):
                return f"C_{k} has {len(rows)} rows"
            if any(r.bit_count() != through for r in rows):
                return f"a row of C_{k} does not have {through} generators"
            per_gen = counting.gaussian_binomial(d, k, q)
            if sum(r.bit_count() for r in rows) != n * per_gen:
                return f"generators of C_{k} do not each hold {per_gen} subspaces"
        return None

    def eigenbases():
        bases = sch.eigenspace_bases()
        for j, basis in bases.items():
            if len(basis) != sch.table.multiplicity(j):
                return f"V_{j} basis has {len(basis)} vectors"
            lam = sch.P[j][d]
            # an independent route: the first vectors are K-eigenvectors too
            for w in basis[:EIGENCHECK_VECTORS]:
                if sch.matvec_mask(sch.K, w) != [lam * x for x in w]:
                    return f"a basis vector of V_{j} fails the K eigencheck"
        return None

    steps = [("regularity", regularity), ("intersection numbers", intersection_numbers)]
    if ctx.type == "III":
        steps.append(("B^tB", btb))
    steps.append(("incidences", incidences))
    steps.append(("eigenbases", eigenbases))
    return steps


def certify_round(plan: Plan, run: Run, env: Env, rnd: int, times: dict):
    """Certify every scheme once.  Round 0 works on the live scheme, so the
    bases and incidences it builds stay for the later phases; later
    rounds certify a freshly built scheme (its construction is not timed)."""
    for name in plan.certify:
        ctx = env.ctx[name]
        sch = ctx.scheme if rnd == 0 else scheme.SchemeContext(ctx.space)
        for label, gate in certify_steps(ctx, sch):
            def step(label=label, gate=gate):
                with run.span(f"certify {name} {label}"):
                    return gate()
            t0 = clock()
            run.op(f"certify {name} {label}", step)
            times.setdefault(f"{name} {label}", []).append(clock() - t0)


def search_once(run: Run, env: Env, spec: SearchSpec):
    """One repeat of one search, gated on its exact (solutions, nodes)."""
    times = run.search_times.setdefault(spec.id, [])
    before = _check_totals(run.tracer)

    def one():
        start = clock()
        with run.span(f"search.{spec.id}", "search"):
            res = spec.call(env)
        times.append(clock() - start)
        env.results.setdefault(spec.id, res)
        run.search_info[spec.id] = {"nodes": res.nodes, "solutions": len(res.solutions)}
        if len(res.solutions) != spec.solutions or res.nodes != spec.nodes:
            return (f"{len(res.solutions)} solutions / {res.nodes} nodes, "
                    f"expected {spec.solutions} / {spec.nodes}")
        return spec.verify(env, res) if spec.verify else None
    run.op(f"search {spec.id}", one)
    after = _check_totals(run.tracer)
    if run.tracer is not None and spec.id in run.search_info:
        run.search_info[spec.id]["certify_calls"] = after[0] - before[0]
        run.search_info[spec.id]["certify_s"] = after[1] - before[1]


def _check_totals(tracer):
    if tracer is None or "clsets.check_cl" not in tracer.stats:
        return (0, 0.0)
    stat = tracer.stats["clsets.check_cl"]
    return (stat.calls, stat.total)


def check_pass(run: Run, cases: list, times: list, between=()):
    """`check_cl` once on every corpus set, each set's time kept.  The
    calls in `between` run spread evenly over the pass, outside its time."""
    slots = {len(cases) * (k + 1) // (len(between) + 1): k for k in range(len(between))}
    elapsed = 0.0
    for i, (case, case_times) in enumerate(zip(cases, times)):
        if i in slots:
            between[slots[i]]()

        def one(case=case):
            gs = clsets.GenSet(case.ctx, case.mask, case.class_label)
            rep = clsets.check_cl(gs, spreads=case.spreads)
            return verdict_problem(case, rep)
        c0 = clock()
        run.op(f"check on {case.ctx.space.name()}", one)
        case_times.append(clock() - c0)
        elapsed += case_times[-1]
    run.pass_rates.append(len(cases) / elapsed)
    run.checks += len(cases)
    return elapsed


def _extend(cases, more):
    cases.extend(more)
    return None if cases else "empty corpus"


def execute(plan: Plan, seed: int, seconds: float, tracer=None,
            setup_only=False, single_pass=False) -> Run:
    """Set up, then run rounds of certify, search and one check pass.

    Round 0 runs the phases once in their natural order.  Further rounds
    repeat them until every phase has its repeats and the check passes
    (at most one per round, at least `min_passes`) have taken `seconds`;
    there the search repeats run spread over the check pass, so that the
    repeats of every unit are spread over the run.  Each unit (a
    certification step, a search, a corpus set) is then timed by its
    fastest repeat.  `single_pass` stops after round 0.
    """
    run = Run(tracer)
    env = Env()
    t0 = clock()
    setup_phase(plan, run, env)
    if setup_only or run.failed:
        run.phase_s["total"] = clock() - t0
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.env = env
        return run
    certify_times = run.certify_times
    cases: list[Case] = []
    case_times: list[list[float]] = []
    rounds = max([plan.certify_reps, plan.min_passes] + [s.rounds for s in plan.searches])
    check_s = 0.0
    rnd = 0
    while True:
        if rnd < plan.certify_reps:
            with run.span("phase.certify"):
                certify_round(plan, run, env, rnd, certify_times)
        jobs = [partial(search_once, run, env, spec) for spec in plan.searches
                if rnd < spec.rounds for _ in range(1 if single_pass else spec.reps)]
        if rnd == 0:
            # round 0 searches first: the corpus is built from their results
            with run.span("phase.search"):
                for job in jobs:
                    job()
            jobs = []
            run.op("build corpus", lambda: _extend(cases, plan.corpus(env, seed)))
            case_times = [[] for _ in cases]
        if cases and (rnd < plan.min_passes or check_s < seconds):
            with run.span("phase.check"):
                check_s += check_pass(run, cases, case_times, jobs)
        else:
            for job in jobs:
                job()
        if rnd == 0:
            # what a user doing each phase once needs; later rounds add
            # freshly built schemes that a user would not hold
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rnd += 1
        if single_pass or (rnd >= rounds and (check_s >= seconds or not cases)):
            break
    run.phase_s["certify"] = sum(min(t) for t in certify_times.values())
    run.phase_s["search"] = sum(min(w) for w in run.search_times.values() if w)
    run.phase_s["check"] = check_s
    run.phase_s["total"] = clock() - t0
    for case, times in zip(cases, case_times):
        key = space_key(case.ctx.space.name())
        run.check_times.setdefault(key, []).append(min(times))
    if cases:
        run.checks_per_s = len(cases) / sum(min(t) for t in case_times)
    run.env = env
    return run


def image_rank(env: Env) -> int:
    """Total rank of the image bases the verdicts used (cached by then)."""
    total = 0
    for ctx in env.ctx.values():
        if ctx.type == "I":
            total += ctx.scheme.image_basis("A").rank
        elif ctx.type == "III":
            total += ctx.scheme.image_basis("B").rank
        elif ctx.type == "II":
            total += sum(ctx.restricted(lab).image_basis().rank
                         for lab in ("latin", "greek"))
    return total


# -- corpora -----------------------------------------------------------------------


def _random_mask(rng, n, size):
    return sum(1 << g for g in rng.sample(range(n), size))


def _noncollinear(sp, p):
    """The first point not collinear with point p."""
    return next(r for r in range(len(sp.points))
                if sp.form.pair(sp.points[p], sp.points[r]) != 0)


def desk_cases(ctx, rng, spreads) -> list[Case]:
    """Constructions with their predicted x, set algebra, near-misses and
    random sets on one desk space (the corpus of acceptance criteria 4-5,
    with seeded choices)."""
    sp = ctx.space
    n, q, d, e = ctx.n, ctx.q, ctx.d, ctx.e
    out: list[Case] = []

    def add(mask, x=None, label=None):
        out.append(Case(ctx, mask, label, None if label else spreads,
                        None if x is None else Fraction(x)))

    pts = rng.sample(range(len(sp.points)), 5)
    pencils = [clsets.construct_point_pencil(ctx, p) for p in pts]
    for gs in pencils:
        add(gs.mask, 1)
    p0 = pencils[0]
    add(clsets.complement(p0).mask, counting.qint(q, e + d - 1))
    add((1 << n) - 1, counting.qint(q, e + d - 1) + 1)
    add(0, 0)
    far = _noncollinear(sp, pts[0])
    add(clsets.union(p0, clsets.construct_point_pencil(ctx, far)).mask, 2)
    if ctx.type == "III":
        classes = sp.hyperbolic_classes()
        for idx in rng.sample(range(len(classes)), 2):
            add(clsets.construct_hyperbolic_class(ctx, idx).mask, 1)
        if d == 3:
            add(clsets.construct_base_plane(ctx, rng.randrange(n)).mask, 1)
    fam = sp.desc.family
    if (fam in ("Q-", "Q") or (fam == "H" and sp.desc.dim % 2 == 0)) and e >= 1:
        add(clsets.construct_embedded(ctx).mask, counting.qpow(q, e - 1) + 1)
    if fam == "Q+" and d % 2 == 0:
        latin, greek = sp.class_mask("latin"), sp.class_mask("greek")
        rows = sp.point_gen_masks()
        add((rows[pts[0]] & latin) | (rows[far] & greek))
        add(latin)
        add(greek | (rows[pts[0]] & latin))
        cp = clsets.construct_point_pencil(ctx, pts[0], "latin")
        add(cp.mask, 1, "latin")
        add(clsets.complement(cp).mask, q ** (d - 1), "latin")
        center = rng.choice(sp.class_members("greek"))
        add(clsets.construct_base_solid(ctx, center, "latin").mask, 1, "latin")
    members = p0.members()
    outside = [g for g in range(n) if not (p0.mask >> g) & 1]
    drop, extra = rng.choice(members), rng.choice(outside)
    add(p0.mask & ~(1 << drop))
    add(p0.mask | (1 << extra))
    add((p0.mask & ~(1 << drop)) | (1 << extra))
    for _ in range(10):
        add(_random_mask(rng, n, ctx.pencil))
    for _ in range(32):
        add(_random_mask(rng, n, rng.randrange(0, n + 1)))
    return out


def desk_verify_corpus(env: Env, seed: int) -> list[Case]:
    """`desk_cases` on every space; statement (iv) where spreads were searched."""
    cases = []
    for name, ctx in env.ctx.items():
        found = env.results.get(f"spread.{space_key(name)}")
        cases += desk_cases(ctx, random.Random(f"{seed}:{name}"),
                            found.solutions if found else None)
    return cases


def desk_classify_corpus(env: Env, seed: int) -> list[Case]:
    """Every few solutions of the CL searches, with their x, and every
    fourth regular system; fixed, so the workload ignores the seed."""
    cases = []
    qm = env.ctx["Q-(5,2)"]
    for x, sols in env.results["cl_bounded.Qm5_2"].meta["by_parameter"].items():
        cases += [Case(qm, m, expect_x=Fraction(x)) for m in sols[::10]]
    cases += [Case(env.ctx["Q(6,2)"], m, expect_x=Fraction(1))
              for m in env.results["cl_param1.Q6_2"].solutions[::5]]
    cases += [Case(env.ctx["Q+(7,2)"], m, "latin", expect_x=Fraction(1))
              for m in env.results["cl_param1.Qp7_2_latin"].solutions[::5]]
    cases += [Case(env.ctx["Q+(5,2)"], m)
              for m in env.results["regular.Qp5_2"].solutions[::4]]
    return cases


# -- the plans -----------------------------------------------------------------------


def _spreads(name, sid, solutions, nodes, rounds, reps):
    return SearchSpec(
        sid, lambda env: search.find_spreads(env.space(name)),
        solutions, nodes, rounds, reps, lambda env, res: spread_problem(env.space(name), res))


PLANS = {
    "desk-verify": Plan(
        name="desk-verify",
        spaces=DESK_SPACES,
        setup_reps=3,
        certify=DESK_SPACES,
        certify_reps=3,
        searches=[
            _spreads("W(3,2)", "spread.W3_2", 6, 28, rounds=3, reps=17),
            _spreads("Q(4,2)", "spread.Q4_2", 6, 28, rounds=3, reps=17),
            _spreads("Q-(5,2)", "spread.Qm5_2", 200, 1126, rounds=3, reps=17),
            _spreads("W(3,3)", "spread.W3_3", 36, 281, rounds=3, reps=17),
            _spreads("H(3,4)", "spread.H3_4", 0, 16, rounds=3, reps=17),
            _spreads("Q+(5,2)", "spread.Qp5_2", 0, 19, rounds=3, reps=17),
        ],
        corpus=desk_verify_corpus,
        min_passes=4,
    ),
    "desk-classify": Plan(
        name="desk-classify",
        spaces=["Q-(5,2)", "Q(6,2)", "Q+(7,2)", "Q+(5,2)"],
        setup_reps=3,
        certify=["Q-(5,2)", "Q(6,2)", "Q+(5,2)"],
        certify_reps=6,
        searches=[
            SearchSpec("cl_bounded.Qm5_2",
                       lambda env: search.find_cl_bounded(env.space("Q-(5,2)"), 3),
                       999, 440_706),
            SearchSpec("tight.GQ4_2", lambda env: search.find_tight_sets(env.gq, 3),
                       999, 441_178, verify=tight_gate),
            SearchSpec("cl_param1.Q6_2",
                       lambda env: search.find_cl_parameter1(env.space("Q(6,2)")),
                       270, 41_787, rounds=2),
            SearchSpec("cl_param1.Qp7_2_latin",
                       lambda env: search.find_cl_parameter1(env.space("Q+(7,2)"),
                                                             class_label="latin"),
                       270, 42_617, rounds=2),
            _spreads("Q(6,2)", "spread.Q6_2", 960, 6_376, rounds=6, reps=1),
            SearchSpec("regular.Qp5_2",
                       lambda env: search.find_regular_systems(env.space("Q+(5,2)"), 2,
                                                               eigenspaces={0, 2}),
                       168, 4_811, rounds=6),
        ],
        corpus=desk_classify_corpus,
        min_passes=6,
        build_gq=True,
    ),
}

# every search id any plan runs, in metric order
SEARCH_IDS = ["cl_bounded.Qm5_2", "tight.GQ4_2", "cl_param1.Q6_2",
              "cl_param1.Qp7_2_latin", "spread.Q6_2", "regular.Qp5_2"]
SPREAD_IDS = ["spread.W3_2", "spread.Q4_2", "spread.Qm5_2", "spread.W3_3",
              "spread.H3_4", "spread.Qp5_2"]
CL_SEARCH_IDS = ["cl_bounded.Qm5_2", "cl_param1.Q6_2", "cl_param1.Qp7_2_latin"]
