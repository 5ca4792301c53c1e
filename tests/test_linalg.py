"""Exact linear algebra: RREF over GF(q), the modular echelon, byte
selectors, the packed eigencheck, and the RREF and kernel lift of the
tests' certified kernel (`reference`)."""

import random
from math import gcd

import pytest

import polarcl.linalg as linalg
from polarcl.gf import field
from polarcl.linalg import (PRIME, IntEchelon, ModEchelon, eigencheck_width,
                            first_non_eigenvector, gf_rref, selectors, spread)

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
    # M swaps two entries, lam = -1: (M - lam I) w = (w_0 + w_1, w_0 + w_1).
    # Neither of (2^m, 2^m) and (-1, 0) is an eigenvector; each row of
    # (M - lam I) W has fields 2^(m+1) and -1, packed 2^(m+1) - 2^B, which
    # vanishes at B = m + 1 = bits(k max|w|): the first vector's field
    # carries into the second's and cancels it, so a width two bits below
    # the bound is fooled.
    masks, lam = [0b10, 0b01], -1
    for m in (3, 10):
        vectors = [[2 ** m, 2 ** m], [-1, 0]]
        assert first_non_eigenvector(masks, lam, vectors) == 0
        width = eigencheck_width(1, 2 ** m)
        monkeypatch.setattr(linalg, "eigencheck_width", lambda k, p: width - 1)
        assert first_non_eigenvector(masks, lam, vectors) == 0
        monkeypatch.setattr(linalg, "eigencheck_width", lambda k, p: width - 2)
        assert first_non_eigenvector(masks, lam, vectors) is None
        monkeypatch.undo()


def _first_non_eigenvector_by_lists(masks, lam, vectors):
    """The reference: one list matvec per vector."""
    n = len(masks)
    for idx, w in enumerate(vectors):
        if any(sum(w[t] for t in range(n) if masks[s] >> t & 1) != lam * w[s]
               for s in range(n)):
            return idx
    return None


def test_eigencheck_matches_list_matvecs():
    # blow up a random symmetric 0/1 quotient: each class is an
    # independent set (lam = 0) or a clique (lam = -1), so a zero-sum
    # vector on one class is an eigenvector; then corrupt one or two
    rng = random.Random(8)
    for trial in range(200):
        lam = rng.choice((0, -1))
        sizes = [rng.randrange(2, 5) for _ in range(rng.randrange(1, 5))]
        cls = [c for c, size in enumerate(sizes) for _ in range(size)]
        n = len(cls)
        link = {(a, b): rng.random() < 0.5 for a in range(len(sizes))
                for b in range(a, len(sizes))}
        adj = [[s != t and (cls[s] == cls[t] and lam == -1
                            or cls[s] != cls[t] and link[min(cls[s], cls[t]),
                                                         max(cls[s], cls[t])])
                for t in range(n)] for s in range(n)]
        masks = [sum(1 << t for t in range(n) if adj[s][t]) for s in range(n)]
        vectors = []
        for _ in range(rng.randrange(1, 6)):
            c = rng.randrange(len(sizes))
            members = [t for t in range(n) if cls[t] == c]
            w = [0] * n
            for t in members[:-1]:
                w[t] = rng.randrange(-2 ** rng.randrange(1, 30), 2 ** 29)
            w[members[-1]] = -sum(w)
            vectors.append(w)
        assert first_non_eigenvector(masks, lam, vectors) is None
        assert _first_non_eigenvector_by_lists(masks, lam, vectors) is None
        # a column of M - lam I that is nonzero makes a corruption visible
        live = [t for t in range(n) if masks[t] or lam]
        if not live:
            continue
        bad = sorted(rng.sample(range(len(vectors)),
                                min(len(vectors), rng.choice((1, 2)))))
        for idx in bad:
            vectors[idx][rng.choice(live)] += rng.choice((1, -1, 2 ** 40))
        got = first_non_eigenvector(masks, lam, vectors)
        assert got == _first_non_eigenvector_by_lists(masks, lam, vectors) \
            == bad[0], trial
    assert first_non_eigenvector(C4, 0, []) is None


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


def test_selectors_match_a_bit_loop():
    # every n up to 70, n % 8 != 0 included, with the zero and all-ones
    # masks and masks whose lowest and highest bits differ
    rng = random.Random(5)
    for n in range(1, 71):
        masks = [0, (1 << n) - 1, 1, 1 << n - 1]
        masks += [rng.getrandbits(n) for _ in range(6)]
        want = [bytes(m >> t & 1 for t in range(n)) for m in masks]
        assert selectors(masks, n) == want, n


def _random_matrix(rng, gf, nrows, ncols):
    """Rows over GF(q), some of them combinations of the others."""
    rows = [[rng.randrange(gf.q) for _ in range(ncols)]
            for _ in range(nrows // 2 + 1)]
    while len(rows) < nrows:
        a, u, v = rng.randrange(gf.q), rng.choice(rows), rng.choice(rows)
        rows.append([gf.add(gf.mul(a, x), y) for x, y in zip(u, v)])
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gf_rref_is_idempotent_and_canonical(q):
    # rref(rref(M)) = rref(M); row permutations, row scalings and row
    # additions leave it unchanged; pivots are 1 with zeros above and below
    gf, rng = field(q), random.Random(q)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 8)
        M = _random_matrix(rng, gf, nrows, ncols)
        R = gf_rref(M, gf)
        rows, pivots = R
        assert gf_rref(rows, gf) == R
        assert gf_rref(M + [list(r) for r in rows], gf) == R  # same row space
        assert list(pivots) == sorted(set(pivots))
        for r, c in enumerate(pivots):
            column = [row[c] for row in rows]
            assert column == [int(i == r) for i in range(len(rows))]
            assert not any(rows[r][:c])
        assert gf_rref(rng.sample(M, nrows), gf) == R
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        s, a = rng.randrange(1, q), rng.randrange(q)
        scaled = [list(r) for r in M]
        scaled[i] = [gf.mul(s, x) for x in M[i]]
        assert gf_rref(scaled, gf) == R
        if i != j:
            added = [list(r) for r in M]
            added[i] = [gf.add(x, gf.mul(a, y)) for x, y in zip(M[i], M[j])]
            assert gf_rref(added, gf) == R


def test_gf_rref_of_nothing():
    gf = field(3)
    assert gf_rref([], gf) == ((), ())
    assert gf_rref([[0, 0, 0]] * 4, gf) == ((), ())
    assert gf_rref([[0]], gf) == ((), ())
