"""The entry points perfbench wraps by name still exist: a removed or
renamed one fails here, not as a traced run with missing metrics."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    """perfbench/spans.py, loaded without installing its tracer."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves_to_a_polarcl_callable():
    targets = _spans().TARGETS
    assert targets
    for name, _, modname, path, _ in targets:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), f"{name}: {modname}.{path} is gone"
        assert obj.__module__ == modname, f"{name}: {modname}.{path}"
