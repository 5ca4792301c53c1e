"""Shared fixtures.

Checks run under `python -O` only if they raise instead of asserting.  A
wrapper test marked `@pytest.mark.under_optimize("test_a", "test_b")`
names tests of its own module that must also pass there; one `python -O`
pytest process runs the targets of every selected wrapper, and each
wrapper then checks its own targets through `run_under_optimize`.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "under_optimize(*names): tests of the same module that "
        "must pass in a python -O process")


def _targets(item):
    """The node ids, relative to the repo root, that a wrapper names."""
    module = os.path.relpath(str(item.path), ROOT).replace(os.sep, "/")
    return [f"{module}::{name}" for mark in item.iter_markers("under_optimize")
            for name in mark.args]


@pytest.fixture(scope="session")
def _optimized_outcomes(request):
    """(outcome per node id, output) of one `python -O` pytest process
    over the targets of every selected wrapper."""
    targets = sorted({t for item in request.session.items
                      for t in _targets(item)})
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-rA", "-p",
         "no:cacheprovider", *targets], cwd=ROOT, env=env,
        capture_output=True, text=True)
    outcomes = dict((nid, word) for word, nid in re.findall(
        r"^(PASSED|FAILED|ERROR) (\S+)", proc.stdout, re.M))
    return outcomes, proc.stdout + proc.stderr


@pytest.fixture
def run_under_optimize(request, _optimized_outcomes):
    """Check that the calling wrapper's targets passed under -O, expect
    of them in all (a parametrized target counts each case)."""
    def run(expect_passed):
        outcomes, output = _optimized_outcomes
        targets = _targets(request.node)
        mine = {nid: word for nid, word in outcomes.items()
                if any(nid == t or nid.startswith(t + "[") for t in targets)}
        assert mine and set(mine.values()) == {"PASSED"}, output
        assert len(mine) == expect_passed, output
    return run
