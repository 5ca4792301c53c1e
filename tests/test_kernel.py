"""The certified-kernel image test: verdicts against fraction-free
elimination on the benchmark corpora, the certificate under tampering,
and the GQ statement (ii) on the same kernel."""

import importlib.util
import os
import sys

import pytest

import polarcl.gq
import polarcl.scheme as scheme
from polarcl.clsets import GenSet, get_context
from polarcl.clsets import test_image as image_test
from polarcl.enumeration import get_space_by_name
from polarcl.geometry import VerificationError
from polarcl.gq import GQ, gq_cl_report
from polarcl.linalg import PRIME, IntEchelon, kernel_columns
from polarcl.scheme import CertifiedKernel, SchemeError

from reference import image_membership

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    """perfbench/workloads.py, whose corpora the benchmark checks."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _env(W, names):
    env = W.Env()
    for name in names:
        env.ctx[name] = get_context(get_space_by_name(name))
    return env


_REFERENCE = {}


def _reference(ctx, label):
    """The fraction-free echelon of the matrix the image test reads, over
    its columns: A or B for full sets, A' on one class."""
    key = (ctx.space.name(), label)
    if key not in _REFERENCE:
        sp = ctx.space
        if label is not None:
            masks, columns = sp.point_gen_masks(), sp.class_members(label)
        elif ctx.type == "I":
            masks, columns = sp.point_gen_masks(), range(ctx.n)
        else:
            masks, columns = ctx.scheme.build_B(), range(ctx.n)
        ech = IntEchelon(len(columns))
        for m in masks:
            ech.add([(m >> g) & 1 for g in columns])
        _REFERENCE[key] = ech, columns
    return _REFERENCE[key]


def _verdict_pairs(ctx, mask, label):
    """(kernel, fraction-free) verdicts for every matrix the image test
    reads on this set: both classes for a full set on Q+(2d-1,q), d even."""
    if label is not None:
        parts = [(mask, label)]
    elif ctx.type == "II":
        parts = [(mask & ctx.space.class_mask(lab), lab)
                 for lab in ("latin", "greek")]
    else:
        parts = [(mask, None)]
    out = []
    for m, lab in parts:
        if lab is not None:
            kernel = ctx.restricted(lab).image_basis()
        else:
            kernel = ctx.scheme.image_basis("A" if ctx.type == "I" else "B")
        ech, columns = _reference(ctx, lab)
        out.append((kernel.witness(m) is None,
                    ech.contains([(m >> g) & 1 for g in columns])))
    return out


def _assert_corpus_agrees(cases, tag):
    checked = inside = 0
    classes = set()
    for case in cases:
        for got, want in _verdict_pairs(case.ctx, case.mask, case.class_label):
            assert got == want, (tag, case.ctx.space.name(), case.class_label,
                                 case.mask)
            checked += 1
            inside += got
        if case.ctx.type == "II":
            classes.add(case.class_label)
    return checked, inside, classes


def test_kernel_verdicts_match_fraction_free_on_desk_verify_corpus():
    W = _workloads()
    env = _env(W, W.DESK_SPACES)
    for seed in (1, 3, 7):
        cases = W.desk_verify_corpus(env, seed)
        assert {c.ctx.space.name() for c in cases} == set(W.DESK_SPACES)
        checked, inside, classes = _assert_corpus_agrees(cases, seed)
        # full sets on Q+(7,2) read both classes; class sets the latin one
        assert classes == {None, "latin"}
        assert checked > len(cases) and 0 < inside < checked


def test_kernel_verdicts_match_fraction_free_on_desk_classify_rechecks():
    W = _workloads()
    plan = W.PLANS["desk-classify"]
    env = _env(W, plan.spaces)
    for spec in plan.searches:
        if spec.id in ("cl_bounded.Qm5_2", "cl_param1.Q6_2",
                       "cl_param1.Qp7_2_latin", "regular.Qp5_2"):
            env.results[spec.id] = spec.call(env)
    cases = W.desk_classify_corpus(env, 1)
    checked, inside, _ = _assert_corpus_agrees(cases, "desk-classify")
    assert checked == len(cases) == 251
    assert 0 < inside < checked


def test_latin_class_stays_outside_the_image():
    ctx = get_context(get_space_by_name("Q+(5,2)"))
    latin = ctx.space.class_mask("latin")
    assert ctx.scheme.image_basis("A").witness(latin) is not None
    assert image_test(GenSet(ctx, latin)) == (False, "A")


def test_witness_is_the_first_nonzero_inner_product():
    # M = [0 1 1] on three columns: z_0 = e_0 (free column 0) and
    # z_1 = (0, -1, 1) (free column 2)
    kernel = CertifiedKernel([0b110], 3)
    assert (kernel.rank, kernel.dim) == (1, 2)
    assert kernel.witness(0b110) is None
    assert kernel.witness(0b001) == 0
    assert kernel.witness(0b010) == 1  # <z_0, chi> = 0, <z_1, chi> = -1
    assert kernel.witness(0b100) == 1
    assert kernel.witness(0b111) == 0


def test_vector_image_test_takes_scaled_0_1_vectors_only():
    sch = get_context(get_space_by_name("W(3,2)")).scheme
    assert image_membership(sch, [2] * sch.n, "A")
    with pytest.raises(SchemeError, match="not 0/1"):
        image_membership(sch, [1, 2] + [0] * (sch.n - 2), "A")


def _q62_B_kernel():
    ctx = get_context(get_space_by_name("Q(6,2)"))
    return CertifiedKernel(ctx.scheme.build_B(), ctx.n)


def _entry_off_by_one(monkeypatch):
    def corrupt(ech):
        width, cols = kernel_columns(ech)
        cols[ech.pivots[0]] += 1  # z_0 at the first row's pivot column
        return width, cols
    monkeypatch.setattr(scheme, "kernel_columns", corrupt)
    _q62_B_kernel()


def _entry_off_past_row_0(monkeypatch):
    # z_0 one off at a pivot column that row 0 of B misses: row 0 still
    # passes, and the first row through that column, row 1, fails
    B = get_context(get_space_by_name("Q(6,2)")).scheme.build_B()

    def corrupt(ech):
        width, cols = kernel_columns(ech)
        cols[next(c for c in ech.pivots if not B[0] >> c & 1)] += 1
        return width, cols
    monkeypatch.setattr(scheme, "kernel_columns", corrupt)
    _q62_B_kernel()


def _free_entry_zeroed(monkeypatch):
    def corrupt(ech):
        width, cols = kernel_columns(ech)
        cols[next(t for t in range(ech.ncols) if t not in ech.pivots)] = 0
        return width, cols
    monkeypatch.setattr(scheme, "kernel_columns", corrupt)
    _q62_B_kernel()


def _primes_too_small_to_lift(monkeypatch):
    monkeypatch.setattr(scheme, "KERNEL_PRIMES", (5, 7))
    _q62_B_kernel()


def _primes_that_lift_wrongly(monkeypatch):
    monkeypatch.setattr(scheme, "KERNEL_PRIMES", (2, 3))
    _q62_B_kernel()


KERNEL_TAMPERS = {
    "entry-off-by-one": (_entry_off_by_one,
                         rf"p = {PRIME}: entry \d+ of M z_0 is nonzero; "
                         rf"p = {2 ** 61 - 1}: entry \d+ of M z_0 is nonzero"),
    "entry-off-past-row-0": (_entry_off_past_row_0,
                             rf"p = {PRIME}: entry 1 of M z_0 is nonzero; "
                             rf"p = {2 ** 61 - 1}: entry 1 of M z_0 is "
                             r"nonzero"),
    "free-entry-zeroed": (_free_entry_zeroed,
                          r"83 vectors are nonzero at their free column alone, "
                          r"expected n - r_p = 84"),
    "primes-too-small": (_primes_too_small_to_lift,
                         r"p = 5: an entry has no rational lift; "
                         r"p = 7: an entry has no rational lift"),
    "primes-lift-wrongly": (_primes_that_lift_wrongly,
                            r"p = 2: entry \d+ of M z_\d+ is nonzero; "
                            r"p = 3: entry \d+ of M z_\d+ is nonzero"),
}


@pytest.mark.parametrize("tamper", sorted(KERNEL_TAMPERS))
def test_tampered_kernel_raises(monkeypatch, tamper):
    route, message = KERNEL_TAMPERS[tamper]
    with pytest.raises(VerificationError, match=message):
        route(monkeypatch)


@pytest.mark.under_optimize("test_tampered_kernel_raises")
def test_tampered_kernel_raises_under_optimize(run_under_optimize):
    run_under_optimize(len(KERNEL_TAMPERS))


def test_failed_prime_retries_with_the_next(monkeypatch):
    want = _q62_B_kernel()
    for primes in ((5, PRIME), (2, 2 ** 61 - 1)):
        monkeypatch.setattr(scheme, "KERNEL_PRIMES", primes)
        got = _q62_B_kernel()
        assert (got.rank, got.dim) == (want.rank, want.dim) == (51, 84)
        pencils = get_space_by_name("Q(6,2)").point_gen_masks()
        for m in pencils[:5] + [pencils[0] ^ 1, 0b1011]:
            assert (got.witness(m) is None) == (want.witness(m) is None)


def test_gq_statement_ii_builds_its_kernel_once(monkeypatch):
    built = []

    class Counting(CertifiedKernel):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(polarcl.gq, "CertifiedKernel", Counting)
    g = GQ.from_polar(get_space_by_name("W(3,2)"))
    for mask in (g.point_lines[0], g.point_lines[0] ^ 1, 0,
                 (1 << g.n_lines) - 1):
        rep = gq_cl_report(g, mask)
        assert rep["consistent"] and rep["ker_perp"] == rep["im_At"]
    assert len(built) == 1
