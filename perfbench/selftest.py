"""Self-test of the benchmark harness, on the smallest spaces.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares exactly the metrics of metrics.py,
then runs reduced versions of the two workloads in this interpreter,
untraced and traced, through the same report and summary code as a real
run, and asserts that every declared metric is emitted with its unit,
that no operation failed, and that no end-to-end metric reads 0.  Takes
about ten seconds; exits 0 when everything holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from polarcl import search  # noqa: E402


def small_plans():
    def spreads(name, solutions, nodes):
        return W._spreads(name, f"spread.{W.space_key(name)}", solutions, nodes, 2, 1)

    def classify_corpus(env, seed):
        return ([W.Case(env.ctx["W(3,2)"], m, expect_x=1)
                 for m in env.results["cl_param1.W3_2"].solutions]
                + [W.Case(env.ctx["Q+(5,2)"], m)
                   for m in env.results["regular.Qp5_2"].solutions[::8]])

    return [
        W.Plan("desk-verify", ["W(3,2)", "Q(4,2)", "Q+(5,2)", "Q-(5,2)"], setup_reps=2,
               certify=["W(3,2)", "Q(4,2)", "Q+(5,2)", "Q-(5,2)"],
               certify_reps=2,
               searches=[spreads("W(3,2)", 6, 28), spreads("Q-(5,2)", 200, 1126),
                         spreads("Q+(5,2)", 0, 19)],
               corpus=W.desk_verify_corpus, min_passes=2),
        W.Plan("desk-classify", ["W(3,2)", "Q-(5,2)", "Q+(5,2)"], setup_reps=2,
               certify=["Q+(5,2)"], certify_reps=2,
               searches=[
                   W.SearchSpec("cl_param1.W3_2",
                                lambda env: search.find_cl_parameter1(env.space("W(3,2)")),
                                15, 60),
                   W.SearchSpec("regular.Qp5_2",
                                lambda env: search.find_regular_systems(
                                    env.space("Q+(5,2)"), 2, eigenspaces={0, 2}),
                                168, 4_811),
                   spreads("W(3,2)", 6, 28)],
               corpus=classify_corpus, min_passes=2, build_gq=True),
    ]


def check(values: dict, declared, problems: list, label: str, nonzero: bool):
    names = [name for name, *_ in declared]
    if sorted(values) != sorted(names):
        problems.append(f"{label}: emitted {sorted(set(values) ^ set(names))} "
                        "differently from BENCHMARK.json")
    for name, unit, *_ in declared:
        entry = values.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, not {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} is not a number")
        elif nonzero and entry["value"] == 0:
            problems.append(f"{label}: {name} reads 0")


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(W.PLANS):
        problems.append("BENCHMARK.json workloads differ from workloads.PLANS")
    if [[m[k] for k in ("name", "unit", "better", "bound")] for m in spec["end_to_end"]] \
            != [list(m) for m in metrics.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if [[m[k] for k in ("name", "unit", "better")] for m in spec["per_layer"]] \
            != [list(m) for m in metrics.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")

    plans = small_plans()
    # untraced passes first: the traced pass installs its wrappers for good
    for plan in plans:
        reports = [worker.measure(plan, 1, 0.2, setup_only=True), worker.measure(plan, 1, 0.2)]
        values, attempted, failed = run.summarise(0, reports, [])
        if failed or attempted < 1:
            problems += [f"{plan.name}: {f}" for f in sum((r["failures"] for r in reports), [])]
        check(values, metrics.END_TO_END, problems, f"{plan.name} trace 0", nonzero=True)
    for plan in plans:
        reports = [worker.measure(plan, 2, 0.2, single_pass=True),
                   worker.measure(plan, 2, 0.2, trace=True, single_pass=True)]
        values, attempted, failed = run.summarise(1, reports, [])
        if failed:
            problems += [f"{plan.name}: {f}" for f in sum((r["failures"] for r in reports), [])]
        check(values, metrics.PER_LAYER, problems, f"{plan.name} trace 1", nonzero=False)
        if values["clsets.checks"]["value"] == 0 or values["clsets.check_s"]["value"] <= 0:
            problems.append(f"{plan.name} trace 1: the traced pass saw no check_cl call")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
