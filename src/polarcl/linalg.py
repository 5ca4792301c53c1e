"""Exact linear algebra: over GF(q), over the integers, and modulo a prime.

Three layers live here, and none uses floating point.

GF(q) elimination gives the reduced row-echelon form that makes subspace
representations canonical.

`IntEchelon` does fraction-free elimination over the integers (rows kept
primitive by gcd division).  No verdict uses it: image membership is a
Bose-Mesner combination (`scheme`).  It stays as the tests' exact
reference for ranks and memberships, and perfbench times its `add` and
`contains` by name.

Packed rows.  A vector of n entries is one Python int whose field t, the
bits [B t, B t + B), holds entry t; a row operation is then one small-int
multiply and one add on a big int.  Two kernels use this layout.

- `ModEchelon` keeps an echelon basis modulo a prime p (`PRIME` unless
  given).  Vectors independent modulo p are independent over Q (a nonzero
  minor mod p is a nonzero integer minor), not conversely, so the rank
  r_p never exceeds rank_Q.  A vector enters with fields in
  [0, n (p - 1)], such as a sum of at most n rows reduced mod p.
  Stored rows have fields in [0, p) and a row operation adds at most
  (p - 1)^2 to a field, so after at most n of them a field is at most
  X_0 = n (p - 1) + n (p - 1)^2 = n p (p - 1); B >= bits(X_0) keeps
  fields apart.
- Reduction mod p works on all fields at once.  With 2^s = eps (mod p),
  s in {bits(p) - 1, bits(p)} and |eps| least, a fold maps each field x
  to (x mod 2^s) + eps floor(x / 2^s) + c p = x (mod p), fields at most
  X_{k+1} = 2^s - 1 + max(eps, 0) floor(X_k / 2^s) + c p; for eps < 0,
  c = ceil(|eps| floor(X_k / 2^s) / p) keeps fields nonnegative, so none
  borrows.  Folds run while the chain X_0 > X_1 > ... falls (computed at
  construction), then floor(X / p) conditional subtracts, each reading
  x >= p off the bias bit 2^(B-1) of (x + 2^(B-1)) - p, B > bits(X).
  `PRIME` = 2^20 + 7 (2^20 = -7) takes two folds and one subtract.
- `first_non_eigenvector` checks M w_i = lam w_i for a symmetric 0/1
  matrix M given by row masks, all w_i in one transposed pass: X_t packs
  entry t of every vector (field i holds w_i[t]), and row s of
  (M - lam I) W, sum_{t in M[s]} X_t - lam X_s (`itertools.compress`
  picks the X_t through the `selectors` of M), has the fields h_{i,s} =
  ((M - lam I) w_i)_s, |h_{i,s}| <= 2 k max|w| for k = max(row weight,
  |lam|).  With B = bits(k max|w|) + 2 every |h_{i,s}| < 2^(B-1), so the
  balanced fields cannot carry into each other: a row is zero exactly when
  its h_{i,s} are, and its lowest set bit lies in its lowest nonzero field.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache
from itertools import compress
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
_BIT = bytes.maketrans(b"01", b"\0\1")  # a bit's digit -> that bit's byte


def _pack(vals, nbytes: int) -> int:
    """Nonnegative entries, each below 2^(8 nbytes), packed into one int."""
    return int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in vals),
                          "little")


class ModEchelon:
    """Incremental echelon basis modulo a prime p over packed rows.

    Rows are stored in insertion order, with fields in [0, p), pivot
    entry 1, and zeros at the pivots of every earlier row; reducing a
    vector against them in that order clears each pivot in turn.  The
    module docstring gives the field width, the reduction mod p (run
    once per stored vector) and what an accepted row certifies over Q.
    """

    def __init__(self, ncols: int, p: int | None = None):
        self.ncols = ncols
        self.p = p = PRIME if p is None else p
        self.bound = top = max(ncols, 1) * p * (p - 1)
        self._s, self._eps = s, eps = min(
            ((s, (2 ** s + p // 2) % p - p // 2)
             for s in (p.bit_length() - 1, p.bit_length())),
            key=lambda t: (abs(t[1]), t[1] < 0))
        multiples = []  # c of each fold, while the field bound falls
        while True:
            c = -(eps * (top >> s) // p) if eps < 0 else 0
            nxt = (1 << s) - 1 + max(eps, 0) * (top >> s) + c * p
            if nxt >= top:
                break
            top = nxt
            multiples.append(c)
        self.nbytes = -(-max(self.bound.bit_length(), top.bit_length() + 1) // 8)
        self.width = width = 8 * self.nbytes
        ones = spread((1 << ncols) - 1, width)
        self._low, self._high = ones * ((1 << s) - 1), ones * ((1 << width - s) - 1)
        self._adds = [ones * c * p for c in multiples]
        self._subtracts, self._bias, self._ps = top // p, ones << width - 1, ones * p
        self.rows: list[int] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """The packed row v, fields in [0, bound], with every field
        reduced into [0, p): the folds, then the conditional subtracts."""
        s, eps, low, high = self._s, self._eps, self._low, self._high
        for add in self._adds:
            v = (v & low) + add + eps * (v >> s & high)
        bias, ps, shift, p = self._bias, self._ps, self.width - 1, self.p
        for _ in range(self._subtracts):
            v -= (((v | bias) - ps & bias) >> shift) * p
        return v

    def add(self, vec) -> bool:
        """Insert vec if it is independent modulo p of the current rows;
        report whether it was.  vec is a packed row with fields in
        [0, ncols (p - 1)], or a list of integers, packed once."""
        p, width, fmask = self.p, self.width, (1 << self.width) - 1
        v = vec if isinstance(vec, int) else _pack([x % p for x in vec],
                                                     self.nbytes)
        for piv, row in zip(self.pivots, self.rows):
            c = (v >> width * piv & fmask) % p
            if c:
                v += (p - c) * row
        v = self.reduce(v)
        if not v:
            return False
        piv = ((v & -v).bit_length() - 1) // width
        inv = pow(v >> width * piv & fmask, -1, p)
        self.rows.append(v if inv == 1 else self.reduce(v * inv))
        self.pivots.append(piv)
        return True


def _bits(m):
    """The indices of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def spread(mask: int, width: int) -> int:
    """The 0/1 vector of a bitmask, packed into fields of `width` bits:
    one table lookup per byte of the mask when width is a multiple of 8."""
    if width % 8 == 0:
        raw = mask.to_bytes(-(-mask.bit_length() // 8), "little")
        return int.from_bytes(b"".join(map(_spread_table(width).__getitem__,
                                           raw)), "little")
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << width * (low.bit_length() - 1)
        mask ^= low
    return out


def selectors(masks, n: int) -> list[bytes]:
    """Byte t of selector s is bit t of masks[s], for t < n: with
    `itertools.compress` it picks a row's entries out of a vector."""
    return [format(m, f"0{n}b")[::-1].encode().translate(_BIT) for m in masks]


@cache
def _spread_table(width: int) -> list[bytes]:
    """Byte b -> the `width` bytes of its 8 bits spread over fields."""
    return [sum(1 << width * t for t in range(8) if b >> t & 1).to_bytes(
        width, "little") for b in range(256)]


def eigencheck_width(degree: int, peak: int) -> int:
    """Field width for `first_non_eigenvector`: bits(degree * peak) + 2,
    for degree >= max(row weight, |lam|) and peak = max |w|."""
    return (degree * peak).bit_length() + 2


def first_non_eigenvector(masks, lam: int, vectors, sel=None):
    """Index of the first vector w with M w != lam w, or None.

    M is the symmetric 0/1 matrix with row masks `masks` (and `sel`, their
    `selectors`, if built); each row is read as a column too.  X_t is its
    positive entries less its negated negative ones, each packed from
    unsigned binary fields; the module docstring gives the n k row adds,
    their width and the least field.
    """
    degree = max([abs(lam)] + [m.bit_count() for m in masks])
    values = set().union(*vectors)
    width = eigencheck_width(degree, max(map(abs, values), default=0))
    pos = {x: format(max(x, 0), f"0{width}b") for x in values}
    neg = {x: format(max(-x, 0), f"0{width}b") for x in values}
    X = [int("".join(map(pos.__getitem__, col)), 2)
         - int("".join(map(neg.__getitem__, col)), 2)
         for col in zip(*vectors[::-1])]  # field i: vectors[i]
    rows = (sum(compress(X, b)) - lam * x
            for b, x in zip(sel or selectors(masks, len(X)), X))
    return min((((h & -h).bit_length() - 1) // width for h in rows if h),
               default=None)
