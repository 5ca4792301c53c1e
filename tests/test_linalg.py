"""Packed-row kernels: the modular echelon and the packed eigencheck."""

import random

import polarcl.linalg as linalg
from polarcl.linalg import (PRIME, IntEchelon, ModEchelon, eigencheck_width,
                            first_non_eigenvector, spread)


def test_mod_echelon_agrees_with_rational_echelon():
    # independent rows, integer combinations of them, and entries at p - 1
    rng = random.Random(11)
    for n in (1, 7, 30):
        base = [[rng.randrange(-50, 51) for _ in range(n)]
                for _ in range(n // 2 + 1)]
        vectors = list(base)
        for _ in range(n):
            coef = [rng.randrange(-3, 4) for _ in base]
            vectors.append([sum(c * row[t] for c, row in zip(coef, base))
                            for t in range(n)])
            vectors.append([rng.choice((PRIME - 1, 1 - PRIME, 0))
                            for _ in range(n)])
        rng.shuffle(vectors)
        mod, rat = ModEchelon(n), IntEchelon(n)
        assert [mod.add(v) for v in vectors] == [rat.add(v) for v in vectors]
        assert mod.rank == rat.rank


def test_mod_echelon_worst_field_growth():
    # rows e_i + (p - 1) e_last for i < n - 1: reducing (1, ..., 1, x) adds
    # (p - 1)^2 to the last field n - 1 times, the largest growth possible
    n, p = 200, PRIME
    ech = ModEchelon(n)
    for i in range(n - 1):
        assert ech.add([int(t == i) + (p - 1) * (t == n - 1) for t in range(n)])
    # the last field ends at x + (n - 1) (p - 1)^2 = x + n - 1 (mod p); the
    # first vector is dependent mod p only, not over Q
    assert not ech.add([1] * (n - 1) + [p - (n - 1)])
    assert ech.add([1] * (n - 1) + [p - 1])
    assert ech.rank == n


def test_spread():
    assert spread(0b1011, 3) == 1 + (1 << 3) + (1 << 9)
    assert spread(0, 5) == 0


C4 = [0b1010, 0b0101, 0b1010, 0b0101]  # the 4-cycle: eigenvalues 2, 0, 0, -2


def test_eigencheck_width_bound():
    # width bits(k * peak) + 2: the largest and smallest products of a width
    assert eigencheck_width(1, 2 ** 6 - 1) == 8
    assert eigencheck_width(2, 2 ** 5) == 9
    for peak in (2 ** 6 - 1, 2 ** 6, 2 ** 7 - 1):
        for w, lam in (([peak, -peak, peak, -peak], -2),
                       ([peak, 0, -peak, 0], 0),
                       ([peak] * 4, 2)):
            assert first_non_eigenvector(C4, lam, [w]) is None
            for t in range(4):
                for step in (1, -1):
                    near = list(w)
                    near[t] += step
                    assert first_non_eigenvector(C4, lam, [w, near]) == 1


def test_eigencheck_fooled_below_its_width(monkeypatch):
    # M = diag(1, 0), lam = -1: (M - lam I) w = (2 w_0, w_1).  For
    # w = (2^m, -1) the packed sum 2^(m+1) - 2^B vanishes at B = m + 1 =
    # bits(k max|w|), so a width two bits below the bound is fooled.
    masks, lam = [0b01, 0b00], -1
    for m in (3, 10):
        w = [2 ** m, -1]
        assert first_non_eigenvector(masks, lam, [w]) == 0
        width = eigencheck_width(1, 2 ** m)
        monkeypatch.setattr(linalg, "eigencheck_width", lambda k, p: width - 1)
        assert first_non_eigenvector(masks, lam, [w]) == 0
        monkeypatch.setattr(linalg, "eigencheck_width", lambda k, p: width - 2)
        assert first_non_eigenvector(masks, lam, [w]) is None
        monkeypatch.undo()

