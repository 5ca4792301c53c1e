"""Packed-row kernels: the modular echelon, the packed eigencheck, and
the RREF and kernel lift of the tests' certified kernel (`reference`)."""

import random
from math import gcd

import polarcl.linalg as linalg
from polarcl.linalg import (PRIME, IntEchelon, ModEchelon, eigencheck_width,
                            first_non_eigenvector, spread)

from reference import kernel_columns, rational_reconstruction, rref


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



def test_rref_mod_p_is_reduced_with_the_same_row_space():
    rng = random.Random(5)
    n = 12
    rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(8)]
    rows += [[a - 3 * b for a, b in zip(rows[0], rows[1])], [0] * n]
    ech = ModEchelon(n)
    for row in rows:
        ech.add(row)
    entries = rref(ech)
    assert len(entries) == ech.rank == 8
    assert ech.rows == [linalg._pack(e, ech.nbytes) for e in entries]
    for row, piv in zip(entries, ech.pivots):
        assert all(0 <= x < PRIME for x in row)
        assert [row[c] for c in ech.pivots] == [int(c == piv) for c in ech.pivots]
    again = ModEchelon(n)
    assert all(again.add(row) for row in entries)
    assert not any(again.add(row) for row in rows)


def test_rref_worst_field_growth():
    # row i is e_i + (p - 1)(e_{i+1} + ... + e_{n-1}): back-substitution
    # adds up to (p - 1)^2 to a field of row i once per later row, the
    # largest growth the field width allows for; the RREF is the identity
    n, p = 150, PRIME
    ech = ModEchelon(n)
    for i in range(n):
        assert ech.add([int(t == i) + (p - 1) * (t > i) for t in range(n)])
    assert rref(ech) == [[int(t == i) for t in range(n)] for i in range(n)]


def test_rational_reconstruction_finds_exactly_the_small_fractions():
    p, bound = 101, 7  # isqrt(101 // 2); 2 * 7 * 7 < 101 makes them unique
    small = {a * pow(b, -1, p) % p: (a, b) for b in range(1, bound + 1)
             for a in range(-bound, bound + 1) if gcd(a, b) == 1}
    assert len(small) == sum(1 for b in range(1, bound + 1)
                             for a in range(-bound, bound + 1) if gcd(a, b) == 1)
    for u in range(p):
        assert rational_reconstruction(u, p) == small.get(u)


def _fields(col, count, width):
    """The balanced fields of a packed kernel column."""
    half = 1 << width - 1
    raw = col + sum(half << width * i for i in range(count))
    return [(raw >> width * i & (2 * half - 1)) - half for i in range(count)]


def test_kernel_columns_clear_denominators():
    # [2 1 0]: z_0 = (-1/2, 1, 0) scaled to (-1, 2, 0), z_1 = (0, 0, 1)
    ech = ModEchelon(3)
    ech.add([2, 1, 0])
    width, cols = kernel_columns(ech)
    assert width == 8  # bits(3 * 2) + 2 = 5, rounded up to a byte
    assert [_fields(c, 2, width) for c in cols] == [[-1, 0], [2, 0], [0, 1]]
    # modulo 5, -1/3 = 3 has no fraction with |a|, b <= isqrt(2) = 1
    ech = ModEchelon(3, 5)
    ech.add([3, 1, 0])
    assert kernel_columns(ech) is None


FOLD_PRIMES = (2, 3, 5, 7, PRIME, 2 ** 61 - 1)


def test_fold_is_exact_at_the_worst_field_bound():
    # every field value up to the echelon's bound n p (p - 1) reduces to
    # its residue: the bound itself, the values around each multiple of
    # 2^s below it, and random ones
    rng = random.Random(3)
    for p in FOLD_PRIMES:
        for n in (1, 7, 200, 1120):
            ech = ModEchelon(n, p)
            top, s = ech.bound, ech._s
            values = [top, top - 1, 0, 1, p - 1, p, 2 * p - 1]
            values += [(top >> s << s) + k for k in (-1, 0, 1)]
            values += [(1 << s) * k + j for k in (1, 2, top >> s)
                       for j in (-1, 0, 1)]
            values += [rng.randrange(top + 1) for _ in range(2 * n)]
            values = [x for x in values if 0 <= x <= top]
            for at in range(0, len(values), n):
                fields = values[at:at + n] + [top] * (n - len(values[at:at + n]))
                got = ech.reduce(linalg._pack(fields, ech.nbytes))
                assert got == linalg._pack([x % p for x in fields], ech.nbytes), \
                    (p, n)


def test_spread_table_matches_the_bit_loop():
    def reference(mask, width):
        return sum(1 << width * t for t in range(mask.bit_length())
                   if mask >> t & 1)
    rng = random.Random(4)
    masks = [0, 1, 0xFF, 1 << 40, (1 << 100) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 300)) for _ in range(20)]
    for width in range(1, 81):
        for mask in masks:
            assert spread(mask, width) == reference(mask, width), (mask, width)
