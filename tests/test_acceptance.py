"""Acceptance battery: every criterion runs at its stated exactness.

One test per criterion; each prints the pass/fail line of the underlying
suite function, so `pytest -s tests/test_acceptance.py` shows the table.
"""

from itertools import islice
from types import SimpleNamespace

import pytest

from polarcl import suite
from polarcl.cli import main
from polarcl.clsets import VerificationError
from polarcl.enumeration import get_space_by_name
from polarcl.scheme import SchemeContext

from reference import reference_pairs


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


# -- every criterion can fail -----------------------------------------------


def _plus_one(name):
    def tamper(monkeypatch):
        orig = getattr(suite, name)
        monkeypatch.setattr(suite, name, lambda *args: orig(*args) + 1)
    return tamper


def _stub(name, value):
    def tamper(monkeypatch):
        monkeypatch.setattr(suite, name, lambda *args, **kw: value)
    return tamper


def _algebra_off(monkeypatch):
    monkeypatch.setattr(SchemeContext, "verify_distance_regularity",
                        lambda self: (None, (0, 1, 1, 3, 2)))


def _matvec_off(monkeypatch):
    orig = SchemeContext.matvec_mask
    monkeypatch.setattr(SchemeContext, "matvec_mask",
                        lambda self, masks, v: [x + 1 for x in orig(self, masks, v)])


def _eigenspace_flipped(monkeypatch):
    orig = suite.check_cl

    def check(gs, spreads=None):
        rep = orig(gs, spreads=spreads)
        rep.verdicts["eigenspace"] = not rep.verdicts["eigenspace"]
        return rep
    monkeypatch.setattr(suite, "check_cl", check)


def _profile_off(monkeypatch):
    orig = suite.profile_verdict

    def verdict(gs, pi):
        ok, got, exp = orig(gs, pi)
        return False, got, exp
    monkeypatch.setattr(suite, "profile_verdict", verdict)


# criterion -> (tamper, the detail its FAIL line prints)
FAILURES = {
    1: (_plus_one("num_kspaces"), "Q+(5,2) level 1"),
    2: (_algebra_off, "Q(6,2): (0, 1, 1, 3, 2)"),
    3: (_matvec_off, "Q(6,2) V_0"),
    4: (_eigenspace_flipped, "Q+(5,2) mask size 6: {'disjointness_counts': "
        "True, 'eigenvector': True, 'eigenspace': False, 'image': True, "
        "'spread_intersections': 'vacuous'}"),
    5: (_plus_one("qint"), "complement Q+(5,2): x=4, CL=True"),
    6: (_profile_off, "pencil W(3,2) probe 0: [1, 2, 0] vs [1, 2, 0]"),
    7: (_stub("find_regular_systems", SimpleNamespace(solutions=[])),
        "none found"),
    8: (_stub("classify_parameter1", "other"), "W(3,2): {'other': 15}"),
    9: (_stub("find_tight_sets", SimpleNamespace(exhaustive=False)),
        "GQ(2,2) truncated"),
    10: (_stub("union_of_pencils_decomposition", None), "x=1: unexplained set"),
    11: (_plus_one("kms_disjoint_to_two"), "Q+(7,2) v=-1: 28 != 29"),
    12: (_stub("test_spread_intersections", (False, 0)),
         "W(3,2): pencil vs spread 0"),
}


@pytest.mark.parametrize("number", sorted(FAILURES))
def test_every_criterion_can_fail(monkeypatch, capsys, number):
    tamper, detail = FAILURES[number]
    tamper(monkeypatch)
    monkeypatch.setattr(suite, "ALL_CRITERIA",
                        [getattr(suite, f"criterion_{number}")])
    capsys.readouterr()
    assert main(["suite"]) == 1
    line, total = capsys.readouterr().out.splitlines()
    assert line.startswith(f"[FAIL] criterion {number:2d} - "), line
    assert line.endswith(f": {detail}"), line
    assert total == "0/1 criteria passed"


def test_criterion_11_reads_the_pairs_of_the_pair_loop(monkeypatch):
    # the pairs each intersection dimension reads off A_{d-1-v}, in the
    # order and number of the loop over all pairs
    read = []

    def recording(pairs, cap):
        read.append(list(islice(pairs, cap)))
        return read[-1]
    monkeypatch.setattr(suite, "islice", recording)
    _run(suite.criterion_11)
    assert read == [reference_pairs(get_space_by_name(name), v, cap)
                    for name, dims, cap in suite.PAIR_COUNT_ROWS
                    for v in dims]
