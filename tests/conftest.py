"""Shared fixtures."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def run_under_optimize():
    """Run the given test node ids in a `python -O` pytest process.

    Checks run under -O only if they raise instead of asserting; the
    caller states how many tests must pass there.
    """
    def run(node_ids, expect_passed):
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *node_ids], cwd=ROOT, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        passed = re.search(r"(\d+) passed", proc.stdout)
        assert passed and int(passed.group(1)) == expect_passed, proc.stdout
    return run
