"""Arithmetic in GF(q) for prime powers q, in the polynomial basis.

Elements of GF(p^n) are encoded as integers 0..q-1 by packing the
coefficient vector (c_0, ..., c_{n-1}) over GF(p) as sum c_i * p^i.
The encoding is a bijection with 0 -> zero and 1 -> one, and it fixes
the scan order used everywhere downstream (file formats, tie-breaking).

The reducing modulus is always the lexicographically least monic
irreducible polynomial of degree n in coefficient-encoding order, so the
tables are reproducible without any external data.  Fields of square
order carry the conjugation x -> x^sqrt(q), the involutory automorphism
needed for Hermitian forms.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


# the q x q addition and multiplication tables may hold at most this many
# entries each, so q <= 256
TABLE_ENTRY_BUDGET = 1 << 16
# trial division reads at most this many divisors of a field order
FACTOR_BUDGET = 10 ** 6


class FieldError(ValueError):
    pass


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, n) with q = p^n, or raise if q is not a prime power.

    Trial division reads at most FACTOR_BUDGET divisors (about 0.1 s), so
    it decides every q with a prime factor up to FACTOR_BUDGET, and every
    q up to FACTOR_BUDGET^2; any other q is refused with FieldError."""
    if q < 2:
        raise FieldError(f"field order must be >= 2, got {q}")
    for p in range(2, min(isqrt(q), FACTOR_BUDGET) + 1):
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise FieldError(f"{q} is not a prime power")
            return p, n
    if q > FACTOR_BUDGET ** 2:
        raise FieldError(f"{q} has no prime factor up to {FACTOR_BUDGET}; "
                         f"trial division decides prime powers only up to "
                         f"{FACTOR_BUDGET ** 2}")
    return q, 1


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
    return a


def _is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for ddeg in range(1, deg // 2 + 1):
        for enc in range(p ** ddeg):
            div = _decode_coeffs(enc, p, ddeg) + [1]
            if not _poly_rem(m, div, p):
                return False
    return True


def _decode_coeffs(value: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(value % p)
        value //= p
    return out


def least_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree n over GF(p).

    Returned as the low-degree coefficient tuple (c_0, ..., c_{n-1}) of
    t^n + c_{n-1} t^{n-1} + ... + c_0, scanning encodings 0, 1, 2, ...
    """
    if n == 1:
        return (0,)
    for enc in range(p ** n):
        coeffs = _decode_coeffs(enc, p, n)
        if _is_irreducible(coeffs + [1], p):
            return tuple(coeffs)
    raise FieldError(f"no irreducible polynomial of degree {n} over GF({p})")


class GF:
    """The finite field GF(q) with canonical integer-encoded elements.

    Construction verifies the modulus irreducible and precomputes full
    multiplication/inverse tables; all operations afterwards are pure
    table lookups, safe to share across any number of workers.
    """

    def __init__(self, q: int):
        p, n = _factor_prime_power(q)
        if q * q > TABLE_ENTRY_BUDGET:
            raise FieldError(f"GF({q}) needs {q * q} table entries, over "
                             f"budget {TABLE_ENTRY_BUDGET}")
        self.q = q
        self.p = p
        self.degree = n
        self.modulus = least_irreducible(p, n)
        if not _is_irreducible(list(self.modulus) + [1], p):
            raise FieldError("modulus is reducible")  # unreachable by construction
        self._mul = self._build_mul_table()
        self._inv = self._build_inv_table()
        self._add = [
            [self._encode([(x + y) % p for x, y in zip(self._coeffs(a), self._coeffs(b))])
             for b in range(q)]
            for a in range(q)
        ]
        self._neg = [self._encode([(-x) % p for x in self._coeffs(a)]) for a in range(q)]
        if n % 2 == 0:
            self.sqrt_order = p ** (n // 2)
            self._conj = [self.pow(a, self.sqrt_order) for a in range(q)]
        else:
            self.sqrt_order = None
            self._conj = None

    # -- encoding ----------------------------------------------------------

    def _coeffs(self, a: int) -> list[int]:
        return _decode_coeffs(a, self.p, self.degree)

    def _encode(self, coeffs: list[int]) -> int:
        value = 0
        for c in reversed(coeffs[: self.degree]):
            value = value * self.p + (c % self.p)
        return value

    # -- table construction ------------------------------------------------

    def _build_mul_table(self) -> list[list[int]]:
        p, n = self.p, self.degree
        mod = list(self.modulus) + [1]
        table = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            ca = _poly_trim(self._coeffs(a))
            for b in range(a, self.q):
                cb = _poly_trim(self._coeffs(b))
                r = _poly_rem(_poly_mulmod_p(ca, cb, p), mod, p) if n > 1 else [
                    (a * b) % p] if (a * b) % p else []
                v = self._encode(r + [0] * (n - len(r)))
                table[a][b] = v
                table[b][a] = v
        return table

    def _build_inv_table(self) -> list[int]:
        inv = [0] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise FieldError(f"no inverse for element {a}")  # unreachable
        return inv

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        r = 1
        while k:
            if k & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            k >>= 1
        return r

    def conjugate(self, a: int) -> int:
        """a -> a^sqrt(q), defined only on fields of square order."""
        if self._conj is None:
            raise FieldError(
                f"GF({self.q}) has odd degree {self.degree}; conjugation undefined")
        return self._conj[a]

    @property
    def has_conjugation(self) -> bool:
        return self._conj is not None

    def elements(self) -> range:
        return range(self.q)

    def find_irreducible_quadratic(self) -> tuple[int, int]:
        """First (b, c) in encoding order with t^2 + b t + c rootless.

        Defines the irreducible binary quadratic g(x, y) = x^2 + bxy + cy^2
        used in the tail of the elliptic quadric's standard equation.
        """
        for b in range(self.q):
            for c in range(self.q):
                if all(self.add(self.add(self._mul[t][t], self._mul[b][t]), c) != 0
                       for t in range(self.q)):
                    return b, c
        raise FieldError("no irreducible quadratic found")  # unreachable

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Cached field constructor; fields are immutable so sharing is safe."""
    return GF(q)
