"""Exact linear algebra: over GF(q), over the integers, and modulo a prime.

Three layers live here, and none uses floating point.

GF(q) elimination gives the reduced row-echelon form that makes subspace
representations canonical.

`IntEchelon` does fraction-free elimination over the integers (rows kept
primitive by gcd division); it decides rank and image membership for the
verification paths, where a "not in the span" verdict must be exact.

Packed rows.  A vector of n entries is one Python int whose field t, the
bits [B t, B t + B), holds entry t; a row operation is then one small-int
multiply and one add on a big int.  Two kernels use this layout.

- `ModEchelon` keeps an echelon basis modulo the fixed prime `PRIME`.
  Its verdicts are one-sided: vectors independent modulo p are
  independent over Q (a nonzero minor mod p is a nonzero integer minor),
  but vectors dependent modulo p may still be independent over Q.  A
  basis it accepts is therefore certified; a shortfall is only reported.
  Stored rows have fields in [0, p) and a row operation adds at most
  (p - 1)^2 to a field, so after at most n operations a field is below
  (p - 1) + n (p - 1)^2, and B >= bits(p - 1) + bits(n (p - 1)^2) + 1
  keeps every field inside its own bits.
- `first_non_eigenvector` checks M w = lam w for a symmetric 0/1 matrix M
  given by row masks as the single identity
  sum_s w_s (spread(M[s]) - lam 2^{B s}) = 0, where spread(M[s]) packs
  row s.  The fields of that sum are the entries h_t of (M - lam I) w, and
  |h_t| <= 2 k max|w| for k = max(row weight, |lam|).  With
  B = bits(k max|w|) + 2 every |h_t| < 2^(B-1), so the balanced fields
  cannot carry into each other and the sum is zero exactly when every
  h_t is.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .gf import GF


# -- GF(q) elimination -------------------------------------------------------

def gf_rref(rows, gf: GF):
    """Reduced row echelon form over GF(q).

    Returns (rows, pivots) with rows a tuple of row tuples: pivots strictly
    increasing, pivot entries 1, zeros above and below each pivot.  Zero
    rows are dropped, so the result is the canonical form of the row space.
    """
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = gf.inv(m[r][c])
        if inv != 1:
            m[r] = [gf.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [gf.sub(x, gf.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def gf_reduce(v, rows, pivots, gf: GF):
    """Reduce the vector v against RREF rows; the residual is returned."""
    v = list(v)
    for row, c in zip(rows, pivots):
        if v[c]:
            f = v[c]
            v = [gf.sub(x, gf.mul(f, y)) for x, y in zip(v, row)]
    return v


def gf_in_span(v, rows, pivots, gf: GF) -> bool:
    return not any(gf_reduce(v, rows, pivots, gf))


def gf_nullspace(rows, ncols: int, gf: GF):
    """Canonical basis (RREF) of {x : M x = 0} for the matrix with those rows."""
    rref, pivots = gf_rref(rows, gf)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = gf.neg(row[fc])
        basis.append(tuple(v))
    return gf_rref(basis, gf)[0]


# -- integer echelon (fraction-free) -----------------------------------------

def _primitive(v: list[int]) -> list[int]:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        v = [x // g for x in v]
    for x in v:
        if x:
            if x < 0:
                v = [-y for y in v]
            break
    return v


class IntEchelon:
    """Incremental echelon basis of an integer row space.

    Rows are kept primitive (content one, first nonzero positive); a new
    vector is reduced by cross-multiplication, so all arithmetic stays in
    the integers.  Supports rank queries and membership tests for the row
    space, which over a 0/1 incidence matrix equals its rational row space.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[int]:
        v = [int(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                a, b = row[p], v[p]
                g = gcd(a, b)
                fa, fb = a // g, b // g
                v = [fa * x - fb * y for x, y in zip(v, row)]
                v = _primitive(v)
        return v

    def add(self, vec) -> bool:
        """Insert vec if independent of the current rows; report whether it was."""
        v = self.reduce(vec)
        for p in range(self.ncols):
            if v[p]:
                self.rows.append(v)
                self.pivots.append(p)
                order = sorted(range(len(self.pivots)), key=self.pivots.__getitem__)
                self.rows = [self.rows[i] for i in order]
                self.pivots = [self.pivots[i] for i in order]
                return True
        return False

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


# -- packed rows ----------------------------------------------------------------

PRIME = 1048583  # the least prime above 2^20


def _pack(vals, nbytes: int) -> int:
    """Nonnegative entries, each below 2^(8 nbytes), packed into one int."""
    return int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in vals),
                          "little")


def _unpack(packed: int, ncols: int, nbytes: int) -> list[int]:
    raw = packed.to_bytes(ncols * nbytes, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little")
            for i in range(0, len(raw), nbytes)]


class ModEchelon:
    """Incremental echelon basis modulo `PRIME` over packed rows.

    Rows are stored in insertion order, with fields reduced into [0, p),
    pivot entry 1, and zeros at the pivots of every earlier row; reducing
    a vector against them in that order clears each pivot in turn.  A
    vector's fields are reduced modulo p only when it is stored.  See the
    module docstring for the field width and for what an accepted row
    certifies over Q.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.p = p = PRIME
        bits = (p - 1).bit_length() + (ncols * (p - 1) ** 2).bit_length() + 1
        self.nbytes = -(-bits // 8)
        self.rows: list[int] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Insert vec (integer entries) if it is independent modulo p of
        the current rows; report whether it was."""
        p, nb = self.p, self.nbytes
        width, fmask = 8 * nb, (1 << 8 * nb) - 1
        v = _pack([x % p for x in vec], nb)
        for piv, row in zip(self.pivots, self.rows):
            c = (v >> width * piv & fmask) % p
            if c:
                v += (p - c) * row
        vals = [x % p for x in _unpack(v, self.ncols, nb)]
        piv = next((t for t, x in enumerate(vals) if x), None)
        if piv is None:
            return False
        inv = pow(vals[piv], -1, p)
        self.rows.append(_pack([x * inv % p for x in vals], nb))
        self.pivots.append(piv)
        return True


def spread(mask: int, width: int) -> int:
    """The 0/1 vector of a bitmask, packed into fields of `width` bits."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << width * (low.bit_length() - 1)
        mask ^= low
    return out


def eigencheck_width(degree: int, peak: int) -> int:
    """Field width for `first_non_eigenvector`: bits(degree * peak) + 2,
    for degree >= max(row weight, |lam|) and peak = max |w|."""
    return (degree * peak).bit_length() + 2


def first_non_eigenvector(masks, lam: int, vectors):
    """Index of the first vector w with M w != lam w, or None.

    M is the symmetric 0/1 matrix with row masks `masks`; each row is
    read as a column too.  Each vector costs one
    multiply-add per entry on packed rows, at the width the module
    docstring shows to be exact.
    """
    degree = max([abs(lam)] + [m.bit_count() for m in masks])
    peak = max((abs(x) for w in vectors for x in w), default=0)
    width = eigencheck_width(degree, peak)
    rows = [spread(m, width) - (lam << width * s) for s, m in enumerate(masks)]
    for idx, w in enumerate(vectors):
        acc = 0
        for x, row in zip(w, rows):
            if x:
                acc += x * row
        if acc:
            return idx
    return None


# -- rational elimination ----------------------------------------------------

def frac_rref(rows):
    """RREF over the rationals; returns (rows, pivots) with Fraction entries."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def frac_nullspace(rows, ncols: int):
    """Basis of the rational kernel {x : M x = 0}, one vector per free column."""
    rref, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def scale_to_int(vec) -> list[int]:
    """Clear denominators of a rational vector (entries may be int or Fraction)."""
    mult = 1
    for x in vec:
        if isinstance(x, Fraction):
            d = x.denominator
            mult = mult // gcd(mult, d) * d
    return [int(x * mult) for x in vec]
