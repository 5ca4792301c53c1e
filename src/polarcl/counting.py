"""Closed-form counting for polar spaces and their dual polar graphs.

Everything here is exact.  A rank-d polar space with parameter e over
GF(q) has

    #generators            prod_{i=0}^{d-1} (q^{e+i} + 1)
    #points                [d,1]_q (q^{d+e-1} + 1)
    #k-spaces              [d,k+1]_q prod_{i=1}^{k+1} (q^{d+e-i} + 1)
    generators through pt  prod_{i=0}^{d-2} (q^{e+i} + 1)

and its dual polar graph is distance-regular with b_i = q^{i+e} [d-i,1]_q
and c_i = [i,1]_q.  The eigenvalue of the i-th distance relation on the
j-th eigenspace of the scheme is the alternating double-bounded sum
implemented in `eigenvalue`; for the disjointness relation it collapses
to P_{j,d} = (-1)^j q^{C(d,2)+(d-j)(e-j)}.

The parameter e is half-integral on the Hermitian families, where q is a
perfect square; q^e is then an integer power of sqrt(q), so every count
below is an exact integer even though intermediate exponents are
fractions.  Exponent arithmetic therefore runs through `qpow`, which
tracks powers of sqrt(q) and refuses to produce irrational values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt


class CountingError(ValueError):
    pass


def binom2(m: int) -> int:
    """Generalized C(m,2) = m(m-1)/2, valid for negative m (C(-1,2) = 1)."""
    return m * (m - 1) // 2


def qpow(q: int, exp) -> Fraction:
    """q**exp exactly, for integer or half-integer exponents."""
    e = Fraction(exp)
    if e.denominator == 1:
        k = e.numerator
        return Fraction(q) ** k
    if e.denominator == 2:
        r = isqrt(q)
        if r * r != q:
            raise CountingError(f"q={q} is not a square; cannot take q^{e}")
        return Fraction(r) ** e.numerator
    raise CountingError(f"unsupported exponent {e}")


def _integral(v, what: str) -> int:
    """v (an int or Fraction) as an int; CountingError if it is not one."""
    v = Fraction(v)
    if v.denominator != 1:
        raise CountingError(f"{what} = {v}, expected an integer")
    return v.numerator


def _divide(num, den, what: str) -> int:
    """num / den, which must be exact."""
    if num % den:
        raise CountingError(f"{what} = {num} / {den}, expected an integer")
    return num // den


def qint(q: int, exp) -> int:
    v = qpow(q, exp)
    if v.denominator != 1:
        raise CountingError(f"q^{exp} = {v} is not an integer")
    return v.numerator


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n; zero out of range."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(1, k + 1):
        num *= q ** (n - k + i) - 1
        den *= q ** i - 1
    return _divide(num, den, f"[{n},{k}]_{q}")


# -- subspace counts -----------------------------------------------------------

def num_kspaces(d: int, e, q: int, k: int) -> int:
    """Totally isotropic subspaces of projective dimension k, 0 <= k <= d-1."""
    if not 0 <= k <= d - 1:
        raise CountingError(f"k={k} out of range for rank {d}")
    v = Fraction(gaussian_binomial(d, k + 1, q))
    for i in range(1, k + 2):
        v *= qpow(q, Fraction(d - i) + Fraction(e)) + 1
    return _integral(v, f"number of {k}-spaces")


def num_generators(d: int, e, q: int) -> int:
    v = Fraction(1)
    for i in range(d):
        v *= qpow(q, Fraction(e) + i) + 1
    return _integral(v, "number of generators")


def num_points(d: int, e, q: int) -> int:
    v = gaussian_binomial(d, 1, q) * (qpow(q, Fraction(d - 1) + Fraction(e)) + 1)
    return _integral(v, "number of points")


def num_kspaces_through_mspace(d: int, e, q: int, k: int, m: int) -> int:
    """k-spaces through a fixed m-space of the polar space (m <= k <= d-1)."""
    v = Fraction(gaussian_binomial(d - m - 1, k - m, q))
    for i in range(1, k - m + 1):
        v *= qpow(q, Fraction(d - m - i - 1) + Fraction(e)) + 1
    return _integral(v, f"number of {k}-spaces through a fixed {m}-space")


def pencil_size(d: int, e, q: int) -> int:
    """Generators through a fixed point: prod_{i=0}^{d-2} (q^{e+i} + 1)."""
    v = Fraction(1)
    for i in range(d - 1):
        v *= qpow(q, Fraction(e) + i) + 1
    return _integral(v, "pencil size")


def regular_system_size(d: int, e, q: int, m: int) -> int:
    v = m * (qpow(q, Fraction(d - 1) + Fraction(e)) + 1)
    return _integral(v, f"size of a {m}-regular system")


# -- distance-regular parameters and eigenvalues -------------------------------

def parameter_b(d: int, e, q: int, i: int) -> int:
    if not 0 <= i <= d - 1:
        return 0
    return qint(q, i + Fraction(e)) * gaussian_binomial(d - i, 1, q)


def parameter_c(d: int, e, q: int, i: int) -> int:
    if not 1 <= i <= d:
        return 0
    return gaussian_binomial(i, 1, q)


def degree_k(d: int, e, q: int, i: int) -> int:
    """Degree of the i-th distance relation, from the b/c recursion."""
    k = 1
    for j in range(i):
        k = _divide(k * parameter_b(d, e, q, j), parameter_c(d, e, q, j + 1),
                    f"k_{j + 1}")
    return k


def eigenvalue(j: int, i: int, d: int, e, q: int) -> int:
    """P_{j,i}: eigenvalue of the i-th distance relation on eigenspace j."""
    if not (0 <= i <= d and 0 <= j <= d):
        raise CountingError(f"indices out of range: j={j}, i={i}, d={d}")
    e = Fraction(e)
    total = Fraction(0)
    for u in range(max(0, j - i), min(j, d - i) + 1):
        sign = -1 if (j + u) % 2 else 1
        term = Fraction(sign
                        * gaussian_binomial(d - j, d - i - u, q)
                        * gaussian_binomial(j, u, q))
        term *= qpow(q, binom2(u + i - j) + binom2(j - u) + e * (u + i - j))
        total += term
    if total.denominator != 1:
        raise CountingError(f"P_{{{j},{i}}} = {total} is not an integer")
    return total.numerator


def eigenvalue_disjointness(j: int, d: int, e, q: int) -> int:
    """Closed form for P_{j,d}: (-1)^j q^{C(d,2)+(d-j)(e-j)}."""
    e = Fraction(e)
    v = qpow(q, binom2(d) + (d - j) * (e - j))
    if v.denominator != 1:
        raise CountingError(f"P_{{{j},{d}}} not an integer")
    return -v.numerator if j % 2 else v.numerator


class EigenvalueTable:
    """The full (d+1) x (d+1) table P[j][i] of exact scheme eigenvalues.

    Construction checks that the P_{j,1} are pairwise distinct (the
    basis annihilators of `scheme` need it); that row 0 and column d agree
    with the degrees and the disjointness closed form; and that each row
    is a character of the algebra of the closed-form intersection numbers,
    P_{j,i} P_{j,l} = sum_k p^k_{il} P_{j,k}, so the d + 1 distinct rows are
    all its characters.  A mismatch raises CountingError.
    """

    def __init__(self, d: int, e, q: int):
        self.d, self.e, self.q = d, Fraction(e), q
        self.P = [[eigenvalue(j, i, d, e, q) for i in range(d + 1)]
                  for j in range(d + 1)]
        col1 = [row[1] for row in self.P]
        if len(set(col1)) != d + 1:
            raise CountingError(f"P_{{j,1}} not pairwise distinct: {col1}")
        for i in range(d + 1):
            want = degree_k(d, e, q, i)
            if self.P[0][i] != want:
                raise CountingError(f"P_{{0,{i}}} = {self.P[0][i]}, "
                                    f"expected the degree k_{i} = {want}")
        for j in range(d + 1):
            want = eigenvalue_disjointness(j, d, e, q)
            if self.P[j][d] != want:
                raise CountingError(f"P_{{{j},{d}}} = {self.P[j][d]}, "
                                    f"expected the closed form {want}")
        p, span = intersection_numbers(d, e, q), range(d + 1)
        for (j, row), i, l in product(enumerate(self.P), span, span):
            want = sum(x * y for x, y in zip(p[i][l], row))
            if row[i] * row[l] != want:
                raise CountingError(
                    f"P_{{{j},{i}}} P_{{{j},{l}}} = {row[i] * row[l]}, expected "
                    f"sum_k p^k_{{{i},{l}}} P_{{{j},k}} = {want}")

    def multiplicity(self, j: int) -> int:
        """dim V_j, by the orthogonality relation m_j = N / sum_i P_ji^2/k_i."""
        n = num_generators(self.d, self.e, self.q)
        s = sum(Fraction(self.P[j][i] ** 2, degree_k(self.d, self.e, self.q, i))
                for i in range(self.d + 1))
        return _integral(Fraction(n) / s, f"multiplicity m_{j}")


def kms_disjoint_to_two(desc, v: int) -> int:
    """Generators disjoint from two fixed generators meeting in a v-space.

    Covered cases: hyperbolic quadrics with v = rank-1 (mod 2), i.e. the
    two generators in the same class, and the odd-dimensional Hermitian
    spaces (any v).  v = -1 encodes a disjoint pair.
    """
    d, q = desc.rank, desc.q
    dp = d - 1
    if not -1 <= v <= dp:
        raise CountingError(f"intersection dimension v={v} out of range")
    if desc.family == "Q+":
        if (v - dp) % 2 != 0:
            raise CountingError(
                f"Q+ count needs v = {dp} (mod 2), got v={v}")
        val = qint(q, Fraction((dp + v + 2) * (dp + v), 4) - binom2(v + 1))
        for i in range(1, (dp - v) // 2 + 1):
            val *= q ** (2 * i - 1) - 1
        return val
    if desc.family == "H" and desc.dim % 2 == 1:
        r = isqrt(q)
        if r * r != q:
            raise CountingError("Hermitian space needs square q")
        val = r ** (d * d - binom2(d - v))
        for i in range(1, dp - v + 1):
            val *= r ** i + (-1) ** i
        return val
    raise CountingError(f"no two-generator disjointness formula for {desc.name()}")


def class_disjoint_to_two(n: int, q: int, x: int, chi_pi: int, chi_pi2: int) -> int:
    """Members of a class Cameron-Liebler set on Q+(4n-1,q) disjoint from a
    disjoint pair: (x - chi_pi - chi_pi') q^{n(n-1)} prod (q^{2i-1} - 1).

    The exponent is n(n-1); exhaustive counts at q=2 confirm it.
    """
    val = (x - chi_pi - chi_pi2) * q ** (n * (n - 1))
    for i in range(1, n):
        val *= q ** (2 * i - 1) - 1
    return val


def intersection_numbers(d: int, e, q: int):
    """All p^k_{ij} of the scheme, via the three-term recursion on A_1 A_i.

    Returns p with p[i][j][k] = p^k_{ij}.  The recursion seeds L_0 = I and
    L_1 from (b, a, c) and uses A_1 A_i = b_{i-1} A_{i-1} + a_i A_i +
    c_{i+1} A_{i+1}; every division below is exact.
    """
    b = [parameter_b(d, e, q, i) for i in range(d + 1)]
    c = [parameter_c(d, e, q, i) for i in range(d + 1)]
    a = [b[0] - b[i] - c[i] for i in range(d + 1)]
    # L[i][k][j] = p^k_{ij}
    L = [[[1 if k == j else 0 for j in range(d + 1)] for k in range(d + 1)]]
    L1 = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(d + 1):
        if k - 1 >= 0:
            L1[k][k - 1] = c[k]
        L1[k][k] = a[k]
        if k + 1 <= d:
            L1[k][k + 1] = b[k]
    L.append(L1)
    for i in range(1, d):
        nxt = [[0] * (d + 1) for _ in range(d + 1)]
        for k in range(d + 1):
            for j in range(d + 1):
                val = sum(L1[k][m] * L[i][m][j] for m in range(d + 1))
                val -= a[i] * L[i][k][j]
                if i >= 1:
                    val -= b[i - 1] * L[i - 1][k][j]
                nxt[k][j] = _divide(val, c[i + 1], f"p^{k}_{{{i + 1},{j}}}")
        L.append(nxt)
    p = [[[L[i][k][j] for k in range(d + 1)] for j in range(d + 1)]
         for i in range(d + 1)]
    return p
