"""Every metric the benchmark reports, with its unit, and how each is derived.

`END_TO_END` and `PER_LAYER` are the lists BENCHMARK.json declares;
selftest.py checks that the two agree and that a run emits each one.
Per-layer metrics of a search or a space that the workload does not run
read 0.  Metrics built on a wrap target the program no longer has are
left out (see spans.py).
"""

from __future__ import annotations

import statistics

from spans import LAYERS
from workloads import CL_SEARCH_IDS, DESK_SPACES, SEARCH_IDS, SPREAD_IDS, space_key

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("certify_s", "s", "lower", 0.25),
    ("checks_per_s", "1/s", "higher", 0.25),
    ("search_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_ok_frac", "fraction", "higher", 0.01),
]

# per-layer metric -> span whose outermost inclusive time it reports
SPAN_TIMES = {
    "enumeration.build_s": "enumeration.build",
    "enumeration.hyperbolic_classes_s": "enumeration.hyperbolic_classes",
    "linalg.gf_rref_s": "linalg.gf_rref",
    "linalg.echelon_add_s": "linalg.echelon_add",
    "linalg.echelon_contains_s": "linalg.echelon_contains",
    "scheme.build_s": "scheme.build",
    "scheme.restricted_build_s": "scheme.restricted_build",
    "scheme.regularity_s": "scheme.regularity",
    "scheme.intersection_numbers_s": "scheme.intersection_numbers",
    "scheme.btb_s": "scheme.btb",
    "scheme.incidence_s": "scheme.incidence",
    "scheme.eigenbases_s": "scheme.eigenbases",
    "scheme.image_basis_s": "scheme.image_basis",
    "clsets.check_s": "clsets.check_cl",
    "clsets.disjointness_s": "clsets.disjointness",
    "clsets.eigenvector_s": "clsets.eigenvector",
    "clsets.eigenspace_s": "clsets.eigenspace",
    "clsets.image_s": "clsets.image",
    "clsets.spread_s": "clsets.spread",
    "gq.build_s": "gq.build",
}
# per-layer metric -> span whose call count it reports
SPAN_CALLS = {
    "linalg.gf_rref_calls": "linalg.gf_rref",
    "linalg.echelon_add_calls": "linalg.echelon_add",
    "linalg.echelon_contains_calls": "linalg.echelon_contains",
    "clsets.checks": "clsets.check_cl",
}


def _per_layer():
    out = []
    for name in SPAN_TIMES:
        out.append((name, "s", "lower"))
    for name in SPAN_CALLS:
        out.append((name, "count", "lower"))
    out += [("enumeration.subspaces", "count", "higher"),
            ("scheme.image_rank", "count", "higher"),
            ("clsets.positive", "count", "higher")]
    out += [(f"clsets.check_ms.{space_key(s)}", "ms", "lower") for s in DESK_SPACES]
    for sid in SEARCH_IDS:
        out += [(f"search.{sid}.wall_s", "s", "lower"),
                (f"search.{sid}.nodes", "count", "lower"),
                (f"search.{sid}.solutions", "count", "higher"),
                (f"search.{sid}.nodes_per_s", "1/s", "higher"),
                (f"search.{sid}.certify_calls", "count", "lower"),
                (f"search.{sid}.certify_s", "s", "lower"),
                (f"search.{sid}.engine_s", "s", "lower")]
        if sid in CL_SEARCH_IDS:
            out.append((f"search.{sid}.yield", "ratio", "higher"))
    for sid in SPREAD_IDS:
        out += [(f"search.{sid}.wall_s", "s", "lower"),
                (f"search.{sid}.nodes", "count", "lower"),
                (f"search.{sid}.solutions", "count", "higher"),
                (f"search.{sid}.nodes_per_s", "1/s", "higher")]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def with_units(values: dict) -> dict:
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def end_to_end(setups: list[float], full: dict, attempted: int, failed: int) -> dict:
    """The end-to-end metrics of an untraced run from its workers' reports."""
    return with_units({
        "setup_s": statistics.median(setups),
        "certify_s": full["phase_s"].get("certify", 0.0),
        "checks_per_s": full["checks_per_s"],
        "search_s": full["phase_s"].get("search", 0.0),
        "peak_rss_mb": full["peak_rss_mb"],
        "ops_ok_frac": 1 - failed / attempted if attempted else 0.0,
    })


def per_layer(tracer, run, image_rank: int) -> dict:
    """The per-layer metrics of a traced worker, all but trace.overhead_s."""
    stats = tracer.stats
    values = {}
    for name, span in SPAN_TIMES.items():
        if span in stats:
            values[name] = stats[span].total
    for name, span in SPAN_CALLS.items():
        if span in stats:
            values[name] = stats[span].calls
    values["enumeration.subspaces"] = run.subspaces
    values["scheme.image_rank"] = image_rank
    if "clsets.check_cl" in stats:
        values["clsets.positive"] = stats["clsets.check_cl"].hits
    for space in DESK_SPACES:
        times = run.check_times.get(space_key(space))
        values[f"clsets.check_ms.{space_key(space)}"] = (
            1000 * statistics.median(times) if times else 0.0)
    for sid in SEARCH_IDS + SPREAD_IDS:
        times = run.search_times.get(sid)
        info = run.search_info.get(sid, {})
        wall = min(times) if times else 0.0
        values[f"search.{sid}.wall_s"] = wall
        values[f"search.{sid}.nodes"] = info.get("nodes", 0)
        values[f"search.{sid}.solutions"] = info.get("solutions", 0)
        values[f"search.{sid}.nodes_per_s"] = info.get("nodes", 0) / wall if wall else 0.0
        if sid in SPREAD_IDS:
            continue
        if "clsets.check_cl" in stats:
            calls = info.get("certify_calls", 0)
            certify = info.get("certify_s", 0.0)
            values[f"search.{sid}.certify_calls"] = calls
            values[f"search.{sid}.certify_s"] = certify
            values[f"search.{sid}.engine_s"] = wall - certify
            if sid in CL_SEARCH_IDS:
                values[f"search.{sid}.yield"] = (
                    info.get("solutions", 0) / calls if calls else 0.0)
    for layer, self_s in tracer.layer_self_times().items():
        values[f"{layer}.self_s"] = self_s
    return with_units(values)
