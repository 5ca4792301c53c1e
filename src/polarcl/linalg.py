"""Exact linear algebra: over GF(q) and over the integers/rationals.

Two independent layers live here.  The GF(q) layer produces the reduced
row-echelon canonical form that makes subspace representations unique;
the integer layer does fraction-free elimination (rows kept primitive by
gcd division) for the rank and image-membership computations of the
verification paths.  No floating point anywhere.
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
