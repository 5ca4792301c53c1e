"""Field arithmetic: axioms exhaustively, conjugation, canonical moduli."""

import pytest

from polarcl.gf import TABLE_ENTRY_BUDGET, FieldError, field, least_irreducible

ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


def test_identities_and_inverses():
    for q in ORDERS:
        F = field(q)
        for a in F.elements():
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1


def test_axioms_exhaustive():
    for q in ORDERS:
        F = field(q)
        els = list(F.elements())
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_char2_addition():
    assert field(2).add(1, 1) == 0


def test_gf4_multiplication_forced_by_modulus():
    F = field(4)
    omega = 2  # encoding of t
    assert F.mul(omega, omega) == 3  # t^2 = t + 1 under t^2 + t + 1


def test_gf3_inverse():
    assert field(3).inv(2) == 2  # 2*2 = 4 = 1 mod 3


def test_inversion_of_zero_raises():
    with pytest.raises(FieldError):
        field(5).inv(0)


def test_moduli_are_lexicographically_least():
    # frozen canonical moduli (low-degree coefficients of t^n + ...)
    expected = {4: (1, 1), 8: (1, 1, 0), 9: (1, 0), 16: (1, 1, 0, 0),
                25: (2, 0), 27: (1, 2, 0)}
    for q, mod in expected.items():
        F = field(q)
        assert F.modulus == mod
        # independent minimality scan: every smaller encoding is reducible,
        # witnessed by a root or a monic factor of degree <= n/2
        p, n = F.p, F.degree
        enc = sum(c * p ** i for i, c in enumerate(mod))
        for smaller in range(enc):
            coeffs = []
            v = smaller
            for _ in range(n):
                coeffs.append(v % p)
                v //= p
            assert _reducible(coeffs, p, n)


def _reducible(low_coeffs, p, n):
    def value(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        return acc

    poly = list(low_coeffs) + [1]
    if any(value(poly, x) == 0 for x in range(p)):
        return True
    if n <= 3:
        return False
    # degree-2 monic factor scan suffices for n = 4
    for c0 in range(p):
        for c1 in range(p):
            div = [c0, c1, 1]
            if _divides(div, poly, p):
                return True
    return False


def _divides(div, poly, p):
    rem = list(poly)
    while len(rem) >= len(div) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(div):
            break
        lead = rem[-1]
        shift = len(rem) - len(div)
        for i, c in enumerate(div):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    return not any(rem)


def test_conjugation_is_involutory_automorphism():
    for q in (4, 9, 16, 25):
        F = field(q)
        fixed = []
        for a in F.elements():
            assert F.conjugate(F.conjugate(a)) == a
            if F.conjugate(a) == a:
                fixed.append(a)
            for b in F.elements():
                assert F.conjugate(F.add(a, b)) == F.add(F.conjugate(a), F.conjugate(b))
                assert F.conjugate(F.mul(a, b)) == F.mul(F.conjugate(a), F.conjugate(b))
        assert len(fixed) == F.sqrt_order  # exactly the subfield


def test_conjugation_examples():
    F4 = field(4)
    assert F4.conjugate(0) == 0 and F4.conjugate(1) == 1
    omega = 2
    assert F4.conjugate(omega) == F4.mul(omega, omega)  # omega^2, by poly arith
    F9 = field(9)
    t = 3  # encoding of t in the basis {1, t}
    assert F9.modulus == (1, 0)  # t^2 + 1
    assert F9.conjugate(t) == F9.neg(t)  # t^3 = t*t^2 = -t


def test_conjugation_needs_even_degree():
    with pytest.raises(FieldError):
        field(8).conjugate(3)


def test_find_irreducible_quadratic():
    assert field(2).find_irreducible_quadratic() == (1, 1)
    assert field(3).find_irreducible_quadratic() == (0, 1)
    # GF(4): check the returned pair against an exhaustive root scan, and
    # that every earlier pair in encoding order has a root
    F = field(4)
    b, c = F.find_irreducible_quadratic()

    def has_root(bb, cc):
        return any(F.add(F.add(F.mul(t, t), F.mul(bb, t)), cc) == 0
                   for t in F.elements())

    assert not has_root(b, c)
    for bb in range(F.q):
        for cc in range(F.q):
            if (bb, cc) < (b, c):
                assert has_root(bb, cc)


def test_least_irreducible_is_irreducible():
    # t^4 + t + 1 over GF(2): no roots, not divisible by t^2 + t + 1
    mod = least_irreducible(2, 4)
    assert mod == (1, 1, 0, 0)
    poly = list(mod) + [1]
    for x in (0, 1):
        assert sum(c * x ** i for i, c in enumerate(poly)) % 2 == 1
    assert not _divides([1, 1, 1], poly, 2)


def test_field_tables_stay_within_their_budget():
    assert 256 * 256 <= TABLE_ENTRY_BUDGET < 257 * 257
    for q in (257, 65537):
        with pytest.raises(FieldError, match=f"GF\\({q}\\) needs {q * q} "
                           f"table entries, over budget {TABLE_ENTRY_BUDGET}"):
            field(q)
