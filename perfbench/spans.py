"""Tracing from outside the program: wrap public entry points, record spans.

`Tracer.install` replaces each target in `TARGETS` by a timing wrapper.
A module-level function is replaced in every loaded `polarcl` module that
holds the same object, so calls through `from .x import f` names are
traced as well; a method is replaced on its class.  A target the program
no longer has is listed in `missing` and its metrics are left out, so a
removed entry point reads as absent rather than as zero.

Spans (name, start, end, parent, run id) stay in memory and are written
out by `write`.  Calls of the hot leaf targets (marked `keep=False`) are
only aggregated, because they run hundreds of thousands of times: they
still add their time to their parent's child time, so every self time
(span duration minus the time its child spans cover) stays exact.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

clock = time.process_time  # the same clock as workloads.py

# (span name, layer, module, attribute path, keep individual spans)
TARGETS = [
    ("enumeration.build", "enumeration", "polarcl.enumeration", "PolarSpace.__init__", True),
    ("enumeration.hyperbolic_classes", "enumeration", "polarcl.enumeration",
     "PolarSpace.hyperbolic_classes", True),
    ("linalg.gf_rref", "linalg", "polarcl.linalg", "gf_rref", False),
    ("linalg.echelon_add", "linalg", "polarcl.linalg", "IntEchelon.add", False),
    ("linalg.echelon_contains", "linalg", "polarcl.linalg", "IntEchelon.contains", False),
    ("scheme.build", "scheme", "polarcl.scheme", "SchemeContext.__init__", True),
    ("scheme.restricted_build", "scheme", "polarcl.scheme", "RestrictedScheme.__init__", True),
    ("scheme.regularity", "scheme", "polarcl.scheme",
     "SchemeContext.verify_distance_regularity", True),
    ("scheme.intersection_numbers", "scheme", "polarcl.scheme",
     "SchemeContext.verify_intersection_numbers", True),
    ("scheme.btb", "scheme", "polarcl.scheme", "SchemeContext.verify_BtB", True),
    ("scheme.incidence", "scheme", "polarcl.scheme", "SchemeContext.incidence", True),
    ("scheme.eigenbases", "scheme", "polarcl.scheme", "SchemeContext.eigenspace_bases", True),
    ("scheme.image_basis", "scheme", "polarcl.scheme", "SchemeContext.image_basis", True),
    ("scheme.image_basis", "scheme", "polarcl.scheme", "RestrictedScheme.image_basis", True),
    ("clsets.check_cl", "clsets", "polarcl.clsets", "check_cl", True),
    ("clsets.disjointness", "clsets", "polarcl.clsets", "test_disjointness_counts", False),
    ("clsets.eigenvector", "clsets", "polarcl.clsets", "test_eigenvector", False),
    ("clsets.eigenspace", "clsets", "polarcl.clsets", "test_eigenspace", False),
    ("clsets.image", "clsets", "polarcl.clsets", "test_image", False),
    ("clsets.spread", "clsets", "polarcl.clsets", "test_spread_intersections", False),
    ("gq.build", "gq", "polarcl.gq", "GQ.__init__", True),
]

LAYERS = ["enumeration", "linalg", "scheme", "clsets", "gq", "search"]

# span name -> predicate on the call's result, counted as `Stat.hits`
HITS = {"clsets.check_cl": lambda rep: rep.is_cl}


class Stat:
    """Per-name totals: calls, outermost inclusive time, self time."""

    __slots__ = ("layer", "calls", "hits", "total", "self_time", "depth")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.hits = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # frames: [child time, span id]
        self.missing: list[str] = []

    def stat(self, name: str, layer: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(layer)
        return self.stats[name]

    def _enter(self, stat: Stat, keep: bool):
        parent = self.stack[-1][1] if self.stack else None
        sid = len(self.spans) if keep else parent
        if keep:
            self.spans.append(None)
        frame = [0.0, sid]
        self.stack.append(frame)
        stat.depth += 1
        return frame, parent, clock()

    def _exit(self, name, stat, keep, frame, parent, t0):
        t1 = clock()
        self.stack.pop()
        dur = t1 - t0
        stat.depth -= 1
        stat.calls += 1
        stat.self_time += dur - frame[0]
        if stat.depth == 0:
            stat.total += dur
        if self.stack:
            self.stack[-1][0] += dur
        if keep:
            self.spans[frame[1]] = (name, t0, t1, parent, self.run_id)

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        stat = self.stat(name, layer)
        frame, parent, t0 = self._enter(stat, True)
        try:
            yield
        finally:
            self._exit(name, stat, True, frame, parent, t0)

    def wrap(self, name: str, layer: str, fn, keep: bool):
        stat = self.stat(name, layer)
        enter, leave = self._enter, self._exit
        hit = HITS.get(name)

        def traced(*args, **kwargs):
            frame, parent, t0 = enter(stat, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, stat, keep, frame, parent, t0)
            if hit is not None and hit(result):
                stat.hits += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, layer, modname, path, keep in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self.wrap(name, layer, original, keep)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for modname2, mod in list(sys.modules.items()):
                if modname2.split(".")[0] != "polarcl":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for stat in self.stats.values():
            if stat.layer in out:
                out[stat.layer] += stat.self_time
        return out

    def write(self, path):
        """All spans plus per-name totals, as one JSON document."""
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "stats": {name: {"layer": s.layer, "calls": s.calls, "hits": s.hits,
                             "total_s": s.total, "self_s": s.self_time}
                      for name, s in self.stats.items()},
            "missing_targets": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
