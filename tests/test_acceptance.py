"""Acceptance battery: every criterion runs at its stated exactness.

One test per criterion; each prints the pass/fail line of the underlying
suite function, so `pytest -s tests/test_acceptance.py` shows the table.
"""

from types import SimpleNamespace

import pytest

from polarcl import suite
from polarcl.clsets import VerificationError


def _run(fn):
    res = fn()
    print(res.line())
    assert res.ok, res.details
    return res


def test_criterion_01_count_oracle():
    _run(suite.criterion_1)


def test_criterion_02_distance_regularity():
    _run(suite.criterion_2)


def test_criterion_03_spectrum():
    _run(suite.criterion_3)


def test_criterion_04_characterisation_equivalence():
    res = _run(suite.criterion_4)
    assert "sets" in res.details


def test_criterion_05_example_parameters():
    _run(suite.criterion_5)


def test_criterion_06_intersection_distributions():
    _run(suite.criterion_6)


def test_criterion_07_two_regular_systems():
    res = _run(suite.criterion_7)
    assert "fail the CL tests" in res.details


def test_criterion_07_rejects_a_non_regular_solution(monkeypatch):
    found = SimpleNamespace(solutions=[0], exhaustive=True)
    monkeypatch.setattr(suite, "find_regular_systems",
                        lambda sp, m, eigenspaces: found)
    with pytest.raises(VerificationError, match="not a 2-regular system"):
        suite.criterion_7()


@pytest.mark.under_optimize("test_criterion_07_rejects_a_non_regular_solution")
def test_criterion_07_rejects_under_optimize(run_under_optimize):
    run_under_optimize(1)


def test_criterion_08_parameter1_classification():
    res = _run(suite.criterion_8)
    assert "135 base-solids" in res.details


def test_criterion_09_tight_set_classification():
    _run(suite.criterion_9)


def test_criterion_10_small_x_classification():
    res = _run(suite.criterion_10)
    assert "x=3 embedded: 36" in res.details


def test_criterion_11_two_generator_counts():
    res = _run(suite.criterion_11)
    assert "28" in res.details


def test_criterion_12_spread_facts():
    _run(suite.criterion_12)
