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
    return _integral(qpow(q, exp), f"q^{exp}")


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
    """Generators through a fixed point: prod_{i=0}^{d-2} (q^{e+i} + 1),
    the generator count of the rank d - 1 residue."""
    return num_generators(d - 1, e, q)


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
    return _integral(total, f"P_{{{j},{i}}}")


def eigenvalue_disjointness(j: int, d: int, e, q: int) -> int:
    """Closed form for P_{j,d}: (-1)^j q^{C(d,2)+(d-j)(e-j)}."""
    e = Fraction(e)
    v = qpow(q, binom2(d) + (d - j) * (e - j))
    if v.denominator != 1:
        raise CountingError(f"P_{{{j},{d}}} not an integer")
    return -v.numerator if j % 2 else v.numerator


class EigenvalueTable:
    """The full (d+1) x (d+1) table P[j][i] of exact scheme eigenvalues.

    Construction checks that row 0 and column d agree with the degrees
    and the disjointness closed form; that the rows are the characters of
    the algebra of the closed-form intersection numbers, with the P_{j,1}
    pairwise distinct (`character_problem`), so the d + 1 distinct rows
    are all its characters; and the orthogonality relation
    sum_j m_j P_{j,i} P_{j,l} = n k_i delta_il, n the closed-form generator
    count, which fixes the multiplicities m_j (Delsarte 1973; BCN 2.2).  A
    mismatch raises CountingError.
    """

    def __init__(self, d: int, e, q: int):
        self.d, self.e, self.q = d, Fraction(e), q
        self.P = [[eigenvalue(j, i, d, e, q) for i in range(d + 1)]
                  for j in range(d + 1)]
        for i in range(d + 1):
            if self.P[0][i] != (want := degree_k(d, e, q, i)):
                raise CountingError(f"P_{{0,{i}}} = {self.P[0][i]}, "
                                    f"expected the degree k_{i} = {want}")
        for j in range(d + 1):
            if self.P[j][d] != (want := eigenvalue_disjointness(j, d, e, q)):
                raise CountingError(f"P_{{{j},{d}}} = {self.P[j][d]}, "
                                    f"expected the closed form {want}")
        if problem := character_problem(self.P, intersection_numbers(d, e, q)):
            raise CountingError(problem)
        n = num_generators(d, e, q)
        m = [multiplicity(self.P, j, n) for j in range(d + 1)]
        for i, l in product(range(d + 1), repeat=2):
            got = sum(x * r[i] * r[l] for x, r in zip(m, self.P))
            if got != (want := n * self.P[0][i] * (i == l)):
                raise CountingError(f"sum_j m_j P_{{j,{i}}} P_{{j,{l}}} = {got}, "
                                    f"expected n k_{i} delta_{{{i},{l}}} = {want}")

    def multiplicity(self, j: int) -> int:
        """dim V_j, with N the closed-form generator count."""
        return multiplicity(self.P, j, num_generators(self.d, self.e, self.q))


def character_problem(P, p):
    """None if the P_{j,1} are pairwise distinct and every row of P is a
    character of the algebra with p[i][l][k] = p^k_{il}, that is
    P_{j,i} P_{j,l} = sum_k p^k_{il} P_{j,k}; else what fails."""
    col1 = [row[1] for row in P]
    if len(set(col1)) != len(col1):
        return f"P_{{j,1}} not pairwise distinct: {col1}"
    span = range(len(P))
    for (j, row), i, l in product(enumerate(P), span, span):
        want = sum(x * y for x, y in zip(p[i][l], row))
        if row[i] * row[l] != want:
            return (f"P_{{{j},{i}}} P_{{{j},{l}}} = {row[i] * row[l]}, expected "
                    f"sum_k p^k_{{{i},{l}}} P_{{{j},k}} = {want}")
    return None


def multiplicity(P, j: int, n: int) -> int:
    """dim V_j of a scheme on n elements with eigenvalue table P, by the
    orthogonality relation m_j = n / sum_i P_ji^2 / k_i, k_i = P_0i."""
    s = sum(Fraction(x * x, k) for x, k in zip(P[j], P[0]))
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
    """All p^k_{ij} of the scheme, as p[i][j][k], by the three-term
    recurrence: L_i[k][j] = p^k_{ij} with L_0 = I, L_1 tridiagonal in
    (c_k, a_k, b_k), and L_{i+1} = (L_1 L_i - a_i L_i - b_{i-1} L_{i-1}) /
    c_{i+1} from A_1 A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1};
    every division is exact."""
    span = range(d + 1)
    b = [parameter_b(d, e, q, i) for i in span]
    c = [parameter_c(d, e, q, i) for i in span]
    L1 = [[{k - 1: c[k], k: b[0] - b[k] - c[k], k + 1: b[k]}.get(j, 0)
           for j in span] for k in span]
    L = [[[int(k == j) for j in span] for k in span], L1]
    for i in range(1, d):
        L.append([[_divide(sum(L1[k][m] * L[i][m][j] for m in span)
                           - L1[i][i] * L[i][k][j] - b[i - 1] * L[i - 1][k][j],
                           c[i + 1], f"p^{k}_{{{i + 1},{j}}}")
                   for j in span] for k in span])
    return [[[L[i][k][j] for k in span] for j in span] for i in span]
