"""polarcl: command-line interface.

Subcommands:
    space info        closed-form counts, parameters, eigenvalue table
    space enumerate   build a space and write its canonical lists
    scheme verify     distance-regularity / algebra / incidence checks
    construct         write a named construction as a set file
    check             full Cameron-Liebler report for a set file
    search            spread | regular | tight | cl searches
    suite             the acceptance battery, one pass/fail line each

Exit codes: 0 success, 1 verification failure, 2 usage error.  All JSON
artifacts embed a run manifest; outputs are deterministic for a fixed
command line (timing fields aside).
"""

from __future__ import annotations

import argparse
import json
import sys

from .artifacts import (load_generator_set, load_space, load_spreads,
                        make_manifest, space_payload, write_generator_set,
                        write_json)
from .clsets import (GenSet, VerificationError, check_cl,
                     construct_base_plane, construct_base_solid,
                     construct_embedded, construct_hyperbolic_class,
                     construct_point_pencil, complement, get_context,
                     space_type)
from .counting import (EigenvalueTable, num_generators, num_kspaces,
                       parameter_b, parameter_c)
from .enumeration import BudgetError, get_space
from .geometry import GeometryError, descriptor, descriptor_from_name
from .gq import GQ
from .search import (find_cl_bounded, find_cl_parameter1,
                     find_regular_systems, find_spreads, find_tight_sets)


def _add_space_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=["Q+", "Q", "Q-", "W", "H"],
                   help="polar space family")
    p.add_argument("--rank", type=int, help="rank d")
    p.add_argument("--q", type=int, help="field order")
    p.add_argument("--dim", type=int,
                   help="ambient projective dimension (required for H)")
    p.add_argument("--space-name", help='e.g. "Q+(5,2)" or "H(4,4)"')


def _descriptor_from_args(args):
    if args.space_name:
        return descriptor_from_name(args.space_name)
    if not (args.family and args.rank and args.q):
        raise GeometryError("need --space-name or --family/--rank/--q")
    return descriptor(args.family, args.rank, args.q, args.dim)


def _space_from_args(args):
    d = _descriptor_from_args(args)
    return get_space(d.family, d.rank, d.q, d.dim)


# `space info` checks the (d+1) x (d+1) eigenvalue table exactly, about
# (d+1)^3 products of numbers up to the generator count n: 1 s is about
# (d+1)^3 bits(n) = 3e7, reached at rank 35 for q = 2 and 16 for q = 2^40
INFO_BUDGET = 3 * 10 ** 7


def cmd_space_info(args) -> int:
    desc = _descriptor_from_args(args)
    d, e, q = desc.rank, desc.e, desc.q
    cost = (d + 1) ** 3 * num_generators(d, e, q).bit_length()
    if cost > INFO_BUDGET:
        raise BudgetError(f"{desc.name()}: the eigenvalue table of rank {d} "
                          f"costs (d+1)^3 bits(n) = {cost}, over the budget "
                          f"{INFO_BUDGET}")
    table = EigenvalueTable(d, e, q)
    info = {
        "manifest": make_manifest(args.argv, desc),
        "name": desc.name(),
        "e": {"num": e.numerator, "den": e.denominator},
        "counts": {f"projective_dim_{k}": num_kspaces(d, e, q, k)
                   for k in range(d)},
        "b": [parameter_b(d, e, q, i) for i in range(d)],
        "c": [parameter_c(d, e, q, i) for i in range(1, d + 1)],
        "P": table.P,
        "multiplicities": [table.multiplicity(j) for j in range(d + 1)],
    }
    if args.json:
        print(json.dumps(info, indent=1, sort_keys=True))
    else:
        print(f"{desc.name()}: rank {d}, parameter e = {e}, q = {q}")
        for k in range(d):
            print(f"  {k}-spaces: {info['counts'][f'projective_dim_{k}']}")
        print(f"  b = {info['b']}, c = {info['c']}")
        print("  eigenvalue table P[j][i]:")
        width = max(len(str(x)) for row in table.P for x in row) + 1
        for j, row in enumerate(table.P):
            print(f"    j={j}: " + "".join(str(x).rjust(width) for x in row))
        print(f"  multiplicities: {info['multiplicities']}")
    if args.out:
        write_json(args.out, info)
    return 0


def cmd_space_enumerate(args) -> int:
    space = _space_from_args(args)
    payload = space_payload(space, args.argv)
    write_json(args.out, payload)
    print(f"{space.name()}: {len(space.points)} points, "
          f"{space.n_generators} generators -> {args.out}")
    return 0


def cmd_scheme_verify(args) -> int:
    space = load_space(args.space)
    ctx = get_context(space)
    checks = {}
    for k in range(1, space.d + 1):
        checks[f"count_level_{k}"] = len(space.levels[k]) == num_kspaces(
            space.d, space.desc.e, space.desc.q, k - 1)
    params, witness = ctx.scheme.verify_distance_regularity()
    checks["distance_regularity"] = witness is None
    bad = ctx.scheme.verify_intersection_numbers()
    checks["intersection_numbers"] = bad is None
    if space_type(space.desc) == "III":
        checks["BtB_identity"] = ctx.scheme.verify_BtB() is None
    col1 = [row[1] for row in ctx.scheme.P]
    checks["eigenvalues_distinct"] = len(set(col1)) == len(col1)
    report = {
        "manifest": make_manifest(args.argv, space.desc),
        "parameters": params,
        "P": ctx.scheme.P,
        "checks": checks,
    }
    if args.out:
        write_json(args.out, report)
    ok = all(checks.values())
    for name, passed in checks.items():
        print(f"  [{'ok' if passed else 'FAIL'}] {name}")
    return 0 if ok else 1


def cmd_construct(args) -> int:
    space = load_space(args.space)
    ctx = get_context(space)
    kind = args.kind
    flag = {"point_pencil": "point", "complement_of_pencil": "point",
            "hyperbolic_class": "index", "base_plane": "gen",
            "base_solid": "center"}.get(kind)
    if flag is not None:
        count = (len(space.points) if flag == "point" else space.n_generators
                 if flag != "index" else len(space.hyperbolic_classes()))
        if not 0 <= getattr(args, flag) < count:
            raise GeometryError(f"--{flag} {getattr(args, flag)} is not in "
                                f"0..{count - 1}")
    if kind == "point_pencil":
        gs = construct_point_pencil(ctx, args.point, args.generator_class)
    elif kind == "hyperbolic_class":
        gs = construct_hyperbolic_class(ctx, args.index)
    elif kind == "embedded_polar_space":
        gs = construct_embedded(ctx)
    elif kind == "base_plane":
        gs = construct_base_plane(ctx, args.gen)
    elif kind == "base_solid":
        gs = construct_base_solid(ctx, args.center,
                                  args.generator_class or "latin")
    elif kind == "complement_of_pencil":
        gs = complement(construct_point_pencil(ctx, args.point,
                                               args.generator_class))
    else:
        raise GeometryError(f"unknown construction {kind}")
    write_generator_set(args.out, space, gs.mask, explicit=args.explicit)
    print(f"{kind}: {gs.size} generators, x = {gs.x} -> {args.out}")
    return 0


def cmd_check(args) -> int:
    space = load_space(args.space)
    ctx = get_context(space)
    mask = load_generator_set(args.set, space)
    spreads = load_spreads(args.spreads, space) if args.spreads else None
    gs = GenSet(ctx, mask, args.generator_class)
    rep = check_cl(gs, spreads=spreads)
    payload = {"manifest": make_manifest(args.argv, space.desc),
               "report": rep.to_json()}
    if args.out:
        write_json(args.out, payload)
    print(json.dumps(rep.to_json(), indent=1, sort_keys=True))
    return 0 if rep.is_cl else 1


def cmd_search(args) -> int:
    import time as _time
    t0 = _time.time()
    if args.limit is not None and args.target not in ("spread", "regular"):
        raise ValueError(f"--limit is not supported by search {args.target}")
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    if args.xmax < 1 and args.target in ("tight", "cl"):
        raise ValueError(f"--xmax must be at least 1, got {args.xmax}")
    space = load_space(args.space)
    budget = args.budget
    if args.target == "spread":
        res = find_spreads(space, budget=budget, max_solutions=args.limit)
    elif args.target == "regular":
        eig = (set(int(x) for x in args.eigenspaces.split(","))
               if args.eigenspaces else None)
        res = find_regular_systems(space, args.m, eigenspaces=eig,
                                   budget=budget, max_solutions=args.limit)
    elif args.target == "tight":
        gq = GQ.from_polar(space)
        if args.dual:
            gq = gq.dual()
        res = find_tight_sets(gq, args.xmax, budget=budget)
    elif args.target == "cl":
        if args.xmax <= 1:
            res = find_cl_parameter1(space, class_label=args.generator_class,
                                     budget=budget)
        elif args.generator_class is not None:
            raise GeometryError("class-restricted search supports --xmax 1 only")
        else:
            res = find_cl_bounded(space, args.xmax, budget=budget)
    else:
        raise GeometryError(f"unknown search target {args.target}")
    manifest = make_manifest(
        args.argv, space.desc,
        completeness="exhaustive" if res.exhaustive
        else f"{res.stopped_by}-truncated")
    manifest["timing"]["wall_time_s"] = _time.time() - t0
    payload = {"manifest": manifest, **res.to_json()}
    if args.out:
        write_json(args.out, payload)
    print(f"{res.kind}: {len(res.solutions)} solutions, "
          f"{'exhaustive' if res.exhaustive else 'TRUNCATED'}, "
          f"{res.nodes} nodes")
    return 0


def cmd_suite(args) -> int:
    from .suite import CORPUS_SEED, run_suite
    results = run_suite()
    payload = {
        "manifest": make_manifest(args.argv, seed=CORPUS_SEED),
        "level": args.level,
        "results": [{"criterion": r.number, "name": r.name, "ok": r.ok,
                     "details": r.details} for r in results],
    }
    if args.out:
        write_json(args.out, payload)
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polarcl",
        description="exact computation with finite classical polar spaces")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker hint (computation is deterministic "
                         "regardless of the value)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="space-level commands")
    spsub = sp.add_subparsers(dest="subcommand", required=True)
    p = spsub.add_parser("info", help="closed-form counts and eigenvalues")
    _add_space_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_space_info)
    p = spsub.add_parser("enumerate", help="enumerate and store a space")
    _add_space_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_space_enumerate)

    p = sub.add_parser("scheme", help="scheme-level commands")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pv = ssub.add_parser("verify", help="verify the association scheme")
    pv.add_argument("--space", required=True)
    pv.add_argument("--out")
    pv.set_defaults(fn=cmd_scheme_verify)

    p = sub.add_parser("construct", help="write a named construction")
    p.add_argument("--space", required=True)
    p.add_argument("--kind", required=True,
                   choices=["point_pencil", "hyperbolic_class",
                            "embedded_polar_space", "base_plane", "base_solid",
                            "complement_of_pencil"])
    p.add_argument("--point", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--gen", type=int, default=0)
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--class", dest="generator_class",
                   choices=["latin", "greek"])
    p.add_argument("--explicit", action="store_true",
                   help="write subspace rows instead of idx: lines")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("check", help="Cameron-Liebler report for a set")
    p.add_argument("--space", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--spreads")
    p.add_argument("--class", dest="generator_class",
                   choices=["latin", "greek"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("search", help="combinatorial searches")
    p.add_argument("target", choices=["spread", "regular", "tight", "cl"])
    p.add_argument("--space", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--xmax", type=int, default=1)
    p.add_argument("--eigenspaces", help="comma-separated indices, e.g. 0,2")
    p.add_argument("--class", dest="generator_class",
                   choices=["latin", "greek"])
    p.add_argument("--dual", action="store_true",
                   help="search the dual generalised quadrangle")
    p.add_argument("--limit", type=int,
                   help="stop after this many solutions (spread, regular)")
    p.add_argument("--budget", type=int, help="node budget override")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--level", default="desk", choices=["desk"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    args.argv = argv  # recorded as the manifest's command
    try:
        return args.fn(args)
    except (GeometryError, BudgetError, OSError, ValueError) as ex:
        print(f"polarcl: error: {ex}", file=sys.stderr)
        return 2
    except VerificationError as ex:
        print(f"polarcl: verification failed: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
