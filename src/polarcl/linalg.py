"""Exact linear algebra: over GF(q), over the integers, and modulo a prime.

Three layers live here, and none uses floating point.

GF(q) elimination gives the reduced row-echelon form that makes subspace
representations canonical.

`IntEchelon` does fraction-free elimination over the integers (rows kept
primitive by gcd division): the independent route for image membership
in the GQ statement (i), and the tests' reference.

Packed rows.  A vector of n entries is one Python int whose field t, the
bits [B t, B t + B), holds entry t; a row operation is then one small-int
multiply and one add on a big int.  Three kernels use this layout.

- `ModEchelon` keeps an echelon basis modulo a prime p (`PRIME` unless
  given).  Vectors independent modulo p are independent over Q (a nonzero
  minor mod p is a nonzero integer minor), not conversely, so the rank
  r_p never exceeds rank_Q.  Stored rows have fields in [0, p) and a row
  operation adds at most (p - 1)^2 to a field; after at most n of them a
  field is below (p - 1) + n (p - 1)^2, so B >= bits(p - 1) +
  bits(n (p - 1)^2) + 1 keeps fields apart.  `rref` keeps the bound: a
  row is reduced mod p before it clears its pivot from the rows above.
- `kernel_columns` reads one kernel vector off each free column of that
  RREF, lifts each entry u to the unique a/b = u (mod p) with |a|, b <=
  sqrt(p / 2), if any (rational reconstruction, Wang 1981), and clears
  denominators.  The caller certifies the result (`scheme`).  Column t
  packs (z_1[t], ..., z_m[t]) as sum_i z_i[t] 2^{B i}, so the columns of a
  0/1 set L sum to fields h_i = <z_i, chi_L>, |h_i| <= n max|z|.  With
  B = bits(n max|z|) + 2 every |h_i| < 2^(B-1): the sum is zero exactly
  when every h_i is, and its lowest set bit lies in the first nonzero h_i.
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

from bisect import bisect
from fractions import Fraction
from math import gcd, isqrt, lcm

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
    """v divided by its content, signed so that its first nonzero is > 0."""
    g = gcd(*v) if next((x for x in v if x), 0) > 0 else -gcd(*v)
    return [x // g for x in v] if g not in (0, 1) else v


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
        p = next((t for t, x in enumerate(v) if x), None)
        if p is None:
            return False
        at = bisect(self.pivots, p)  # rows stay sorted by pivot
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

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
    """Incremental echelon basis modulo a prime p over packed rows.

    Rows are stored in insertion order, with fields reduced into [0, p),
    pivot entry 1, and zeros at the pivots of every earlier row; reducing
    a vector against them in that order clears each pivot in turn.  A
    vector's fields are reduced modulo p only when it is stored.  See the
    module docstring for the field width and for what an accepted row
    certifies over Q.
    """

    def __init__(self, ncols: int, p: int | None = None):
        self.ncols = ncols
        self.p = p = PRIME if p is None else p
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

    def rref(self) -> list[list[int]]:
        """Back-substitute to the reduced form mod p; returns the entries
        of the rows, which then have zeros at each other's pivots."""
        p, nb = self.p, self.nbytes
        width, fmask = 8 * nb, (1 << 8 * nb) - 1
        rows, entries = self.rows, [None] * len(self.rows)
        for j in range(len(rows) - 1, -1, -1):
            entries[j] = [x % p for x in _unpack(rows[j], self.ncols, nb)]
            rows[j] = row = _pack(entries[j], nb)
            for i in range(j):
                c = (rows[i] >> width * self.pivots[j] & fmask) % p
                if c:
                    rows[i] += (p - c) * row
        return entries


def rational_reconstruction(u: int, p: int):
    """(a, b) with a = u b (mod p), |a| and 0 < b at most sqrt(p / 2) and
    gcd(a, b) = 1, or None when u has no such fraction."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def kernel_columns(ech: ModEchelon):
    """(width, cols) with cols[t] = sum_i z_i[t] 2^{width i} for the lifted
    kernel vectors z_i of the rows in `ech` (z_i is the lcm of its
    denominators at the i-th free column, 0 at the others), or None when
    an entry has no rational reconstruction."""
    p, n = ech.p, ech.ncols
    pivots = set(ech.pivots)
    free = [t for t in range(n) if t not in pivots]
    residues = [[-vals[f] % p for f in free] for vals in ech.rref()]
    lifted = {u: rational_reconstruction(u, p) for u in set().union(*residues)}
    if None in lifted.values():
        return None
    dens = [lcm(*(lifted[row[i]][1] for row in residues))
            for i in range(len(free))]
    entries = [[lifted[u][0] * (d // lifted[u][1]) for u, d in zip(row, dens)]
               for row in residues]
    peak = max((abs(x) for e in entries + [dens] for x in e), default=0)
    nbytes = -(-eigencheck_width(n, peak) // 8)
    width, half = 8 * nbytes, 1 << 8 * nbytes - 1
    bias = _pack([half] * len(free), nbytes)
    cols = [0] * n
    for c, e in zip(ech.pivots, entries):
        cols[c] = _pack([x + half for x in e], nbytes) - bias
    for i, f in enumerate(free):
        cols[f] = dens[i] << width * i
    return width, cols


def _bits(m):
    """The indices of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


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


# -- rational vectors ----------------------------------------------------------

def scale_to_int(vec) -> list[int]:
    """Clear denominators of a rational vector (entries may be int or Fraction)."""
    mult = 1
    for x in vec:
        if isinstance(x, Fraction):
            d = x.denominator
            mult = mult // gcd(mult, d) * d
    return [int(x * mult) for x in vec]
