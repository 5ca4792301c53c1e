"""The polarcl benchmark: measure one workload and print its metrics.

    python3 perfbench/run.py --workload desk-verify --seed 1 --seconds 3 --trace 0

Run it from the root of a polarcl checkout (it needs `src/polarcl`).
Every pass of the workload runs in a fresh interpreter (worker.py), one
at a time, single-threaded:

    --trace 0  `setup_reps - 1` set-up-only passes, then one full pass;
               prints the end-to-end metrics.  setup_s is the median of
               all set-ups; the other metrics come from the full pass.
    --trace 1  one untraced and one traced pass, each running round 0
               only; prints the per-layer metrics of the traced pass, and
               trace.overhead_s, the difference of their times.

`--seconds` is the least time the check passes of a full pass take (see
workloads.execute).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the
run (seed, commit, Python version, processor count, host-speed
calibration, per-phase times, failures) is written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and a digest of
    the sources, which identifies them either way."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=20)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polarcl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_worker(args, deadline: float, *flags) -> tuple[dict | None, str | None]:
    """One pass in a fresh interpreter; (report, None) or (None, problem)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, "no time left for this pass"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        return None, f"pass {flags} timed out"
    if proc.returncode != 0:
        return None, f"pass {flags} exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (json.JSONDecodeError, IndexError):
        return None, f"pass {flags} printed no report"


def summarise(trace: int, reports: list, problems: list[str]):
    """(metrics, attempted, failed) from the reports of a run's passes.

    With trace 0 the last report is the full pass and every report gives
    a set-up time; with trace 1 the reports are the untraced and the
    traced pass.  A pass that gave no report is None in `reports` and one
    failed operation in `problems`; its metrics then read 0.
    """
    import metrics
    good = [r for r in reports if r is not None]
    attempted = sum(r["attempted"] for r in good) + len(problems)
    failed = sum(r["failed"] for r in good) + len(problems)
    if problems:
        declared = metrics.PER_LAYER if trace else metrics.END_TO_END
        values = metrics.with_units({name: 0.0 for name, *_ in declared})
    elif trace:
        plain, traced = reports
        values = dict(traced["per_layer"])
        values.update(metrics.with_units({
            "trace.overhead_s": traced["phase_s"]["total"] - plain["phase_s"]["total"]}))
    else:
        values = metrics.end_to_end([r["phase_s"]["setup"] for r in reports],
                                    reports[-1], attempted, failed)
    return values, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polarcl" / "__init__.py").is_file():
        print(f"perfbench: no polarcl sources under {ROOT / 'src'}; run it from a "
              "polarcl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.PLANS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(workloads.PLANS))}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    plan = workloads.PLANS[args.workload]
    passes: list[tuple[str, dict | None]] = []
    problems: list[str] = []

    def do(label, *flags):
        report, problem = run_worker(args, deadline, *flags)
        passes.append((label, report))
        if problem:
            problems.append(problem)

    if args.trace:
        do("untraced", "--single-pass")
        do("traced", "--single-pass", "--trace")
    else:
        for _ in range(plan.setup_reps - 1):
            do("setup", "--setup-only")
        do("full")

    values, attempted, failed = summarise(args.trace, [r for _, r in passes], problems)
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
              "metrics": values}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_identity(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "problems": problems, "passes": passes, "result": result,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, entry in values.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for _, report in passes:
        for failure in (report or {}).get("failures", []):
            print(f"FAILED {failure}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
