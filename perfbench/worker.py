"""Runs one workload in this fresh interpreter and prints its report.

run.py starts this script once per measured pass, so every pass begins
with empty module caches, as a `polarcl check` user does.  The report is
one JSON object on the last line of standard output.

    python3 perfbench/worker.py --workload desk-verify --seed 1 --seconds 3 \
        [--setup-only] [--single-pass] [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"


def calibrate() -> dict:
    """Wall and CPU seconds of a fixed pure-Python loop: this host's speed now."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}


def measure(plan, seed: int, seconds: float, trace=False, setup_only=False,
            single_pass=False, spans_path=None) -> dict:
    """Run the plan once in this interpreter and return the pass's report."""
    tracer = None
    if trace:
        tracer = spans.Tracer(f"{plan.name}:{seed}")
        tracer.install()
    calibration = [calibrate()]
    run = workloads.execute(plan, seed, seconds, tracer, setup_only, single_pass)
    calibration.append(calibrate())
    rank = 0
    if tracer is not None:
        def measure_rank():
            nonlocal rank
            rank = workloads.image_rank(run.env)
        run.op("image rank", measure_rank)
    report = {
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "phase_s": run.phase_s,
        "pass_rates": run.pass_rates,
        "checks": run.checks,
        "checks_per_s": run.checks_per_s,
        "peak_rss_mb": run.peak_rss_mb,
        "certify_times": run.certify_times,
        "calibration_s": calibration,
        "searches": {sid: {"times": run.search_times.get(sid), **info}
                     for sid, info in run.search_info.items()},
    }
    if tracer is not None:
        report["per_layer"] = metrics.per_layer(tracer, run, rank)
        report["missing_targets"] = tracer.missing
        if spans_path is not None:
            tracer.write(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--single-pass", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    report = measure(workloads.PLANS[args.workload], args.seed, args.seconds, args.trace,
                     args.setup_only, args.single_pass, spans_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
