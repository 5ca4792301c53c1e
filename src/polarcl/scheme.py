"""The association scheme of the dual polar graph, materialised.

A SchemeContext holds, for an enumerated polar space with generator set
Omega (canonical order):

    A[i]            0/1 adjacency of the i-th distance relation, as bitmask rows
    K = A[d]        the disjointness relation
    C[k]            incidence of (k-1)-spaces with generators
    B               hyperbolic classes x generators (type III only)
    P               the exact eigenvalue table of the scheme

Relations by point counts.  Generators at distance i meet in a
(d - i)-space, of (q^{d-i} - 1)/(q - 1) points (q the field order), a
count distinct for each i.  Row g of sum_{p in g} A[p], A the
point-generator incidence, counts the points g shares with each h, so
A_i[g] is where that sum spells the count of a (d - i)-space.  The rows
are added into bit-sliced counters (Knuth, TAOCP 4A, 7.1.3); unless the
A_i[g] cover Omega, VerificationError is raised.  B^t B is checked the
same way: row u, the column sum of the classes through u, must read
q^{d-i} on A_i[u] for even i and 0 for odd i, and the A_i[u] partition
Omega, so the rows cover every pair.

The Bose-Mesner algebra in one packed pass (`verify_distance_regularity`).
With B one more than k = b_0 or the largest row of A_1, whichever is
larger, R[w] packs generator w's distance row, label i as B^i, in fields
of bits(B^{d+1}) rounded up to bytes.  For every u it checks A_0[u] = {u} and that field v
of sum_{w in A_1[u]} R[w] is E_i = c_i B^{i-1} + a_i B^i + b_i B^{i+1},
i = dist(u, v).  Digit j of that field is (A_1 A_j)_{uv} <= |A_1[u]| < B,
so nothing carries: this is A_1 A_j = b_{j-1} A_{j-1} + a_j A_j +
c_{j+1} A_{j+1} for every j on every entry (digit 1 of field u makes A_1
symmetric).  As c_{j+1} != 0, each A_i is the polynomial in A_1 that
`counting.intersection_numbers` builds by the same recurrence and j = d
closes the algebra, so every p^k_ij is the closed form (BCN,
Distance-Regular Graphs, 1989, 4.1); `EigenvalueTable` ties P to them.

Eigenspace membership: chi lies in the orthogonal sum of the V_j, j in
S, iff T chi = 0 for T = sum_i beta_i A_i acting as 0 on those V_j and as
one nonzero scalar on the others (`Combination`).

Image membership for an incidence matrix M (A points, B hyperbolic
classes, A' points on one class) needs no elimination: M^t M = sum_i
mu_i A'_i lies in the Bose-Mesner algebra and acts on V_j as theta_j =
sum_i mu_i P'_{j,i}, so im(M^t) = im(M^t M) is the sum of the V_j over
S_M = {j : theta_j != 0} (Godsil & Meagher, EKR Theorems: Algebraic
Approaches, 2016; BCN, Distance-Regular Graphs, 1989, 2.2).  `Image`
certifies S_M = S and holds (iii)'s T.  No floating point anywhere.

Eigenspace bases (`eigenspace_bases`) take three steps, each exact.

- Columns.  The annihilator prod_{l != j} (A_1 - P_{l,1} I) lies in the
  Bose-Mesner algebra, so it equals sum_i alpha_i A_i with integer
  alpha_i, solved for like beta (see `_annihilator`).  It is a multiple
  of the minimal idempotent E_j, so its column g lies in V_j; the entry
  at t is alpha_{dist(g,t)}, packed mod p by a table over i from the
  bytes of `_distance_row(g)`.  The columns are read in `column_order`,
  a golden-ratio stride: canonical neighbours lie in one sub-geometry and
  span little of V_j together (columns 0..279 of H(4,4) reach 119 of
  V_1's 120 dimensions), so the walk spreads over Omega instead.
- Independence modulo one prime.  The columns are kept greedily while
  they are independent modulo `linalg.PRIME`, in a packed-row echelon
  that reduces each column mod p itself.  The certificate is one-sided:
  independence mod p implies independence over Q, so an accepted basis
  is independent; a rank that falls short of the multiplicity raises
  SchemeError, with no fallback.  The annihilator acts on V_j as the
  scalar prod_{l != j} (P_{j,1} - P_{l,1}), and a prime that divides a
  factor loses rank (p = 5 reaches rank 1 of 9 on V_1 of W(3,2)).
  p > 2^20 exceeds every |P_{j,1} - P_{l,1}| <= 2 P_{0,1} while the
  valency P_{0,1} is below 2^19.
- Packed eigencheck.  A_1 w = P_{j,1} w for the whole basis of V_j in one
  transposed pass; `linalg` derives its field width and the echelon's.

Selectors and kept rows.  Every matvec over bitmask rows (`matvec_mask`,
the algebra pass, the A_1 eigencheck) and every sum of a set's columns
(`Combination.witness`) sums through byte selectors (`linalg.selectors`)
with `itertools.compress`; the distance rows are the selectors of the
A_i[u] weighted by i.  The algebra pass keeps
the n distance rows for the bases' columns once it passes, never on a
witness: n^2 bytes (5.0 MB on Q+(7,3)), for the stretch preflight budget.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress
from math import gcd, isqrt, lcm, prod
from operator import or_

from .counting import (EigenvalueTable, binom2, character_problem,
                       intersection_numbers, multiplicity, parameter_b,
                       parameter_c, pencil_size, qint)
from .enumeration import PolarSpace
from .geometry import GeometryError, VerificationError
from .linalg import (ModEchelon, _bits, _primitive, first_non_eigenvector,
                     selectors, spread)


class SchemeError(VerificationError):
    pass


def eigenspace_indices(desc) -> set[int]:
    """The index set S of statement (iii) for full generator sets."""
    d, e = desc.rank, Fraction(desc.e)
    if d % 2 == 0 and e == 0:
        return {0, 1, d - 1}
    if d % 2 == 1 and e == 1:
        return {0, 1, d}
    return {0, 1}


def gram_coefficients(which: str, d: int, q: int) -> list[int]:
    """mu with M^t M = sum_i mu_i A'_i: generators at distance i share
    [d - i]_q points (M = A, or A' with A'_i = A_{2i} on a class) and
    q^{d-i} hyperbolic classes at even i, none at odd i (M = B)."""
    if which == "B":
        return [q ** (d - i) if i % 2 == 0 else 0 for i in range(d + 1)]
    return [(q ** (d - i) - 1) // (q - 1)
            for i in range(0, d + 1, 2 if which == "A'" else 1)]


def image_support(which: str, d: int, q: int, P) -> dict[int, int]:
    """{j: theta_j} over S_M = {j : theta_j != 0}, theta_j the eigenvalue
    sum_i mu_i P'_{j,i} of M^t M on V_j; im(M^t) is the sum of those V_j."""
    mu = gram_coefficients(which, d, q)
    theta = (sum(m * p for m, p in zip(mu, row)) for row in P)
    return {j: t for j, t in enumerate(theta) if t}


def _solve(P, c) -> tuple[list[int], int]:
    """(y, D) with P y = D c, so y / D is the solution over Q, for an
    invertible P: Gauss-Jordan on integer rows, each step a cross-multiply."""
    rows = [list(row) + [b] for row, b in zip(P, c)]
    for k in range(len(rows)):
        piv = next(r for r in range(k, len(rows)) if rows[r][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        for r, row in enumerate(rows):
            if r != k:
                rows[r] = [top[k] * a - row[k] * b for a, b in zip(row, top)]
    D = lcm(*(row[i] for i, row in enumerate(rows)))
    return [row[-1] * (D // row[i]) for i, row in enumerate(rows)], D


class Combination:
    """T = sum_i beta_i A'_i, beta the primitive integer multiple of the x
    with P x = c, c_j = 0 for j in S and 1 otherwise, P the eigenvalues
    P'_{j,i} of the relations rows[i] within U = `universe`; `witness(L)`
    is the first t with (T chi_L)_t != 0.  Column g of T is packed as
    sum_i beta_i spread(A'_i[g] & U, W), W = bits(sum_i |beta_i| k'_i) + 2
    rounded up to bytes (k'_i = P'_{0,i}), so 0/1 sums never carry.
    Certificate: sum_i beta_i P'_{j,i} is 0 exactly for j in S; the
    columns sum to (sum_i beta_i k'_i) spread(U)."""

    def __init__(self, S, P, rows, universe: int):
        self.P, self.rows, self.universe = P, rows, universe
        self.beta = _primitive(_solve(P, [int(j not in S)
                                          for j in range(len(P))])[0])
        peak = sum(abs(b) * k for b, k in zip(self.beta, P[0]))
        self.width = 8 * -(-(peak.bit_length() + 2) // 8)
        self.cols = self._columns(rows, universe)
        if problem := self._problem(P, S, universe):
            raise VerificationError(f"statement (iii) combination for "
                                    f"S = {sorted(S)}: {problem}")

    def witness(self, mask: int):
        """None if the columns of the mask's members sum to zero, else the
        index of the lowest nonzero field: the mask's byte selector picks
        the members' columns, one big-int add each, at C level."""
        acc = sum(compress(self.cols, selectors((mask,), len(self.cols))[0]))
        return ((acc & -acc).bit_length() - 1) // self.width if acc else None

    def first_field(self, acc: int):
        """(t, value) of the lowest nonzero balanced field of acc, or None."""
        w, half = self.width, 1 << self.width - 1
        t = ((acc & -acc).bit_length() - 1) // w
        return (t, ((acc >> w * t) + half) % (2 * half) - half) if acc else None

    def _columns(self, rows, universe: int) -> list[int]:
        terms = [(b, r) for b, r in zip(self.beta, rows) if b]
        return [sum(b * spread(r[g] & universe, self.width) for b, r in terms)
                if universe >> g & 1 else 0 for g in range(len(rows[0]))]

    def _problem(self, P, S, universe: int):
        sums = [sum(b * p for b, p in zip(self.beta, row)) for row in P]
        for j, got in enumerate(sums):
            if (got == 0) != (j in S):
                return (f"sum_i beta_i P'_{{{j},i}} = {got}, expected "
                        f"{'0' if j in S else 'nonzero'}")
        k = sums[0]  # T 1_U = (sum_i beta_i k'_i) 1_U
        if off := self.first_field(sum(self.cols) - k * spread(universe,
                                                                self.width)):
            return (f"row {off[0]} of T sums to {k + off[1]}, expected "
                    f"sum_i beta_i k'_i = {k}")
        return None


class Image:
    """im(M^t) for the incidence M = `which` (row masks `rows`) on the
    universe `u` (a `RestrictedScheme`): `witness(L)` is None iff chi_L
    lies in it, and `rank` is the sum of the m_j over S_M.  Certified at
    build: S_M is statement (iii)'s S, so T is (iii)'s Combination; and
    M T = 0, one witness per row of M.  T is symmetric, so chi = M^t y
    would give T chi = (M T)^t y = 0: a "not in" follows from the incidence
    alone.  For "in", G = sum_i gamma_i A'_i acts as s / theta_j on V_j,
    j in S_M, and as 0 elsewhere (P' y = D c, c_j = L / theta_j,
    L = lcm theta_j; gamma is y over its content g, s = D L / g), so
    M^t M G chi = s chi."""

    def __init__(self, u, which: str, rows):
        T = u.T
        P, self._R, self._U, self.rows = u.P, u.rows, u.mask, rows
        theta = image_support(which, u.ctx.d, u.ctx.space.desc.q, P)
        self.name = f"{u.ctx.space.name()} M = {which}" + (
            f" on the {u.label} class" if u.label else "")
        if set(theta) != u.S:
            raise VerificationError(
                f"{self.name}: M^t M is nonzero on V_j for j in S_M = "
                f"{sorted(theta)}, expected statement (iii)'s S = {sorted(u.S)}")
        self.T, self.witness = T, T.witness
        self.rank = sum(multiplicity(P, j, u.N) for j in u.S)
        for r, m in enumerate(rows):
            if hit := T.first_field(sum([T.cols[g] for g in _bits(m)])):
                raise VerificationError(f"{self.name}: entry ({r}, {hit[0]}) "
                                        f"of M T is {hit[1]}, expected 0")
        L = lcm(*theta.values())
        y, D = _solve(P, [L // theta[j] if j in theta else 0
                          for j in range(len(P))])
        g = gcd(*y)
        self._gamma, self._scale = [x // g for x in y], D * L // g

    def preimage(self, mask: int):
        """(Y, s) = (M G chi_L, D L / g); M^t Y = s chi_L iff chi_L is in
        the image."""
        terms = [(c, r) for c, r in zip(self._gamma, self._R) if c]
        G = [sum(c * (r[t] & mask).bit_count() for c, r in terms)
             for t in range(len(self._R[0]))]
        return [sum(G[t] for t in _bits(m)) for m in self.rows], self._scale

    def certify(self, mask: int):
        """Check M^t Y = s chi_L exactly, which puts chi_L = M^t (Y / s) in
        the image; VerificationError names the first generator off."""
        Y, s = self.preimage(mask)
        got = [0] * len(self._R[0])
        for y, m in zip(Y, self.rows):
            for g in _bits(m) if y else ():
                got[g] += y
        for g in _bits(self._U):
            if got[g] != s * (mask >> g & 1):
                raise VerificationError(f"{self.name}: entry {g} of M^t Y is "
                                        f"{got[g]}, expected {s * (mask >> g & 1)}")


def _column_sums(masks):
    """Bit planes of the column sums of 0/1 rows, one ripple-carry add
    per row: bit h of planes[t] is bit t of the count of rows holding h."""
    planes = []
    for m in masks:
        t = 0
        while m:
            if t == len(planes):
                planes.append(0)
            planes[t], m, t = planes[t] ^ m, planes[t] & m, t + 1
    return planes


def _where(planes, value: int, full: int) -> int:
    """The columns (within `full`) whose bit-sliced sum equals value."""
    m = full if value < 1 << len(planes) else 0
    for t, b in enumerate(planes):
        m &= b if value >> t & 1 else ~b
    return m


def column_order(n: int) -> list[int]:
    """g_s = s c mod n for s = 0..n-1: a golden-ratio stride, c the
    integer nearest n / phi = n (sqrt 5 - 1) / 2, raised until it is prime
    to n.  It starts at 0 and meets every generator once."""
    c = (isqrt(5 * n * n) - n + 1) // 2
    while gcd(c, n) != 1:
        c += 1
    return [s * c % n for s in range(n)]


class SchemeContext:
    def __init__(self, space: PolarSpace):
        self.space = space
        self.d = space.d
        self.n = space.n_generators
        self.table = EigenvalueTable(space.desc.rank, space.desc.e, space.desc.q)
        self.P = self.table.P
        self.A = self._relations()
        self.K = self.A[self.d]
        self._universes = {}
        self._combinations = {}
        self._C = {}
        self._B = None
        self._image_bases = {}
        self._eigenbases = None
        self._certified = set()  # the certificates that passed
        self._rows = None  # the distance rows, kept once the algebra passes

    # -- relations ---------------------------------------------------------

    def _relations(self):
        """A[i][g] for every relation i and generator g, read off the
        bit-sliced point counts (see the module docstring); on Q+, every
        g's class must be the union of its even-distance rows."""
        sp, d, n = self.space, self.d, self.n
        q, rows, full = sp.desc.q, sp.point_gen_masks(), (1 << n) - 1
        counts = gram_coefficients("A", d, q)
        A = [[0] * n for _ in range(d + 1)]
        for g, pm in enumerate(sp.gen_point_masks):
            planes = _column_sums(rows[p] for p in _bits(pm))
            covered = 0
            for i, count in enumerate(counts):
                A[i][g] = m = _where(planes, count, full)
                covered += m.bit_count()
            if covered != n:
                raise VerificationError(
                    f"generator {g} shares a subspace's point count with "
                    f"{covered} generators, expected all {n}")
        for g, label in enumerate(sp.class_labels or ()):
            even = reduce(or_, (a[g] for a in A[::2]))
            cls = sp.class_mask(label)
            if even != cls:
                raise VerificationError(
                    f"generator {g} of {sp.name()} is at even distance from "
                    f"{even.bit_count()} generators, expected the "
                    f"{cls.bit_count()} of the {label} class")
        return A

    def _distance_row(self, u: int) -> bytes:
        """Byte v is the distance of generators u and v."""
        return self._rows[u] if self._rows else sum(
            i * int.from_bytes(sel, "little") for i, sel in enumerate(
                selectors([a[u] for a in self.A[1:]], self.n), 1)
        ).to_bytes(self.n, "little")

    def incidence(self, k: int):
        """C_k rows: for every (k-1)-space, the bitmask of generators on it.
        A generator holds the space iff it holds each of its spanning
        points, so a row is the AND of the point rows of A at the rows of
        `PolarSpace.level_spans(k)`.  The rows come in that order, the
        enumeration's discovery order below the generators: every reader
        of C_k uses it as a set of rows, and no level is sorted for it."""
        if k not in self._C:
            sp = self.space
            A, index = sp.point_gen_masks(), sp.point_index
            rows = []
            for s in sp.level_spans(k):
                m = (1 << self.n) - 1
                for r in s:
                    m &= A[index[r]]
                rows.append(m)
            self._C[k] = rows
        return self._C[k]

    def build_B(self):
        """Incidence of hyperbolic classes with generators (type III)."""
        if self._B is None:
            self._B = list(self.space.hyperbolic_classes())
        return self._B

    def verify_BtB(self):
        """(B^t B)_{uv} = q^{d-i} at even distance i, 0 at odd distance.

        The entry counts hyperbolic classes through both generators; at
        odd distance the intersection dimension has the wrong parity for
        the two generators to share a section class, so those terms
        vanish.  Row u is the bit-sliced column sum of the classes
        through u, compared on every A_i[u].  Returns None or the first
        violating pair (u, v, i, got, expect).  A pass is kept."""
        if "BtB" in self._certified:
            return None
        B = self.build_B()
        q, d, n, full = self.space.desc.q, self.d, self.n, (1 << self.n) - 1
        through = [[] for _ in range(n)]
        for m in B:
            for g in _bits(m):
                through[g].append(m)
        expect = gram_coefficients("B", d, q)
        for u in range(n):
            planes = _column_sums(through[u])
            bad = sum(self.A[i][u] & ~_where(planes, e, full)  # disjoint
                      for i, e in enumerate(expect))
            if bad:
                v = (bad & -bad).bit_length() - 1
                i = next(i for i in range(d + 1) if self.A[i][u] >> v & 1)
                got = sum((b >> v & 1) << t for t, b in enumerate(planes))
                return (u, v, i, got, expect[i])
        self._certified.add("BtB")
        return None

    # -- verification ------------------------------------------------------

    def verify_distance_regularity(self):
        """The algebra certificate (module docstring), kept once it passes:
        (params, None), or (None, (u, v, j, found, expected)) at the first
        entry (u, v) off, of A_1 A_j, or of A_0 = I when j is None."""
        d, q, e, n, A = self.d, self.space.desc.q, self.space.desc.e, self.n, self.A
        b, c = ([f(d, e, q, i) for i in range(d + 1)]
                for f in (parameter_b, parameter_c))
        if "algebra" in self._certified:
            return {"b": b[:d], "c": c[1:]}, None
        B = max([b[0]] + [m.bit_count() for m in A[1]]) + 1
        w = 8 * -(-(B ** (d + 1)).bit_length() // 8)
        up = [(B ** i).to_bytes(w // 8, "little") for i in range(d + 1)]
        E = [((c[i] + (b[0] - b[i] - c[i]) * B + b[i] * B * B) * B ** i // B)  # c_0 = 0
             .to_bytes(w // 8, "little") for i in range(d + 1)]
        rows = [self._distance_row(g) for g in range(n)]
        R = [int.from_bytes(b"".join(map(up.__getitem__, r)), "little") for r in rows]
        for u, (row, a1) in enumerate(zip(rows, selectors(A[1], n))):
            if off := A[0][u] ^ 1 << u:
                v = (off & -off).bit_length() - 1
                return None, (u, v, None, A[0][u] >> v & 1, int(u == v))
            got = sum(compress(R, a1))
            if off := got ^ int.from_bytes(b"".join(map(E.__getitem__, row)), "little"):
                v = ((off & -off).bit_length() - 1) // w
                f, x = (t >> w * v & (1 << w) - 1 for t in (got, got ^ off))
                j = next(j for j in range(d + 1) if (f - x) % B ** (j + 1))
                return None, (u, v, j, f // B ** j % B, x // B ** j % B)
        self._certified.add("algebra")
        self._rows = rows
        return {"b": b[:d], "c": c[1:]}, None

    def verify_intersection_numbers(self):
        """The algebra certificate's witness: it implies every p^k_ij."""
        return self.verify_distance_regularity()[1]

    # -- eigenspace machinery ------------------------------------------------

    def matvec_mask(self, masks, v):
        return [sum(compress(v, b)) for b in selectors(masks, self.n)]

    def universe(self, label=None) -> RestrictedScheme:
        """The cached universe: Omega, or the generator class `label`."""
        if label not in self._universes:
            self._universes[label] = RestrictedScheme(self, label)
        return self._universes[label]

    def combination(self, S, label=None) -> Combination:
        """The cached T of statement (iii) for S on the universe of `label`."""
        key = frozenset(S), label
        if key not in self._combinations:
            u = self.universe(label)
            self._combinations[key] = Combination(key[0], u.P, u.rows, u.mask)
        return self._combinations[key]

    # -- image membership ------------------------------------------------------

    def image_basis(self, which: str) -> Image:
        """im(M^t) for M = A (points) or B (hyperbolic classes, once
        `verify_BtB` has certified M^t M); see `Image`."""
        if which not in ("A", "B"):
            raise SchemeError(f"unknown incidence matrix {which!r}")
        if which not in self._image_bases:
            if which == "B" and (bad := self.verify_BtB()) is not None:
                raise VerificationError(
                    "(B^t B)_{{{}, {}}} at distance {} is {}, expected {}"
                    .format(*bad))
            rows = self.space.point_gen_masks() if which == "A" else self.build_B()
            self._image_bases[which] = Image(self.universe(), which, rows)
        return self._image_bases[which]

    # -- eigenspace bases (from the annihilator columns) -------------------------

    def _annihilator(self, j: int) -> list[int]:
        """alpha with prod_{l != j} (A_1 - P_{l,1} I) = sum_i alpha_i A_i;
        on V_m both act as (P alpha)_m = prod_{l != j} (P_{m,1} - P_{l,1}),
        0 unless m = j.  alpha is integral; the bases' checks cover it."""
        col = [row[1] for row in self.P]
        c = [0] * (self.d + 1)
        c[j] = prod(col[j] - lam for l, lam in enumerate(col) if l != j)
        y, D = _solve(self.P, c)
        return [a // D for a in y]

    def eigenspace_bases(self):
        """Integer bases of every V_j, built from columns of the annihilators.

        V_0 is spanned by the all-ones vector.  For j >= 1, column g of
        sum_i alpha_i A_i = prod_{l != j} (A_1 - P_{l,1} I), a nonzero
        multiple of the minimal idempotent E_j, has entries
        alpha_{dist(g,t)}; the columns are kept greedily, g in the spread
        `column_order(n)`, while they stay independent modulo
        `linalg.PRIME` (a rejected one is never built as a list).  The
        columns of E_j span V_j, so a rank short of the multiplicity m_j
        raises SchemeError.

        Certificate, trusting neither alpha nor p: the bases are
        independent over Q (independent mod p), every vector passes the
        packed check A_1 w = P_{j,1} w with fields of bits(k max|w|) + 2
        bits, and the dimensions sum to |Omega|.  Independent eigenvectors
        for distinct eigenvalues that number |Omega| span everything, so
        each basis spans its whole eigenspace.
        """
        if self._eigenbases is not None:
            return self._eigenbases
        d, n = self.d, self.n
        bases, order = {0: [[1] * n]}, column_order(n)
        for j in range(1, d + 1):
            alpha = self._annihilator(j)
            want = self.table.multiplicity(j)
            ech, basis = ModEchelon(n), []
            enc = [(a % ech.p).to_bytes(ech.nbytes, "little") for a in alpha]
            for g in order:
                row = self._distance_row(g)
                if ech.add(int.from_bytes(b"".join(map(enc.__getitem__, row)),
                                          "little")):
                    basis.append([alpha[i] for i in row])
                    if ech.rank == want:
                        break
            if ech.rank != want:
                raise SchemeError(
                    f"columns of the annihilator reach rank {ech.rank} modulo "
                    f"p = {ech.p}, expected the multiplicity {want} of V_{j}")
            bases[j] = basis
        total = sum(len(b) for b in bases.values())
        if total != n:
            raise SchemeError(
                f"eigenspace dimensions sum to {total}, expected {n}")
        sel = selectors(self.A[1], n)
        for j, basis in bases.items():
            lam = self.P[j][1]
            bad = first_non_eigenvector(self.A[1], lam, basis, sel)
            if bad is not None:
                raise SchemeError(f"basis vector {bad} of V_{j} fails the A_1 "
                                  f"eigencheck for eigenvalue {lam}")
        self._eigenbases = bases
        return bases


class RestrictedScheme:
    """The universe U of one family of generator sets: all of Omega when
    `label` is None, else one generator class of Q+(2d-1,q), d even, with
    its floor(d/2)-class scheme.  There A'_i is A_{2i} restricted to the
    class, and its eigenvalue on the restricted eigenspace V'_j is
    P'_{j,i} = P_{j,2i}; on Omega A'_i = A_i and P' = P.

    It holds U's mask, members and N = |U|, the distances i of its
    relations A'_t = A_{distances[t]} with their rows and P', statement
    (iii)'s S and its Combination T (built on first use), the pencil size p (a set's parameter is x = |L| / p) and
    f = q^{C(d-1,2)+e(d-1)}, the disjointness count of statement (i) (e = 0
    on a class).  At build it certifies, on a class, P' as the characters
    of p'^t_sr = p^{2t}_{2s,2r} (w at even distance from u is in u's
    class), and p (k' + f) = N f, k' = |K_g ^ U| for every g in U, which
    reads statement (ii) off (i) (`clsets.test_eigenvector`); a miss
    raises.
    `SchemeContext.universe` caches one per label.
    """

    def __init__(self, ctx: SchemeContext, label: str | None = None):
        sp, d = ctx.space, ctx.d
        q, e = sp.desc.q, Fraction(sp.desc.e)
        self.ctx, self.label = ctx, label
        if label is None:
            self.mask, self.members = (1 << ctx.n) - 1, list(range(ctx.n))
            self.S, self.pencil = eigenspace_indices(sp.desc), pencil_size(d, e, q)
        else:
            if sp.desc.family != "Q+" or d % 2:
                raise GeometryError(f"{sp.name()} has no class-restricted sets: "
                                    "they need a hyperbolic quadric of even rank")
            self.mask, self.members = sp.class_mask(label), sp.class_members(label)
            self.S, self.pencil = {0, 1}, prod(q ** i + 1 for i in range(1, d - 1))
        self.N, self.f = len(self.members), qint(q, binom2(d - 1) + e * (d - 1))
        self.distances = range(0, d + 1, 1 if label is None else 2)
        self.rows = [ctx.A[i] for i in self.distances]
        self.P = [[row[i] for i in self.distances]
                  for row in ctx.P[:len(self.distances)]]
        if label:  # on Omega P' = P, which EigenvalueTable certifies
            ds, p = self.distances, intersection_numbers(d, e, q)
            if problem := character_problem(
                    self.P, [[[p[s][r][t] for t in ds] for r in ds] for s in ds]):
                raise SchemeError(f"P' of {sp.name()} {label}: {problem}")
        want = Fraction(self.N * self.f, self.pencil) - self.f  # k'
        for g in self.members:
            if (got := (ctx.K[g] & self.mask).bit_count()) != want:
                raise VerificationError(f"statement (ii) from (i): |K_{g} ^ U| "
                                        f"is {got}, expected N f / p - f = {want}")
        self._image_basis_cache = None

    @cached_property
    def T(self) -> Combination:
        """Statement (iii)'s Combination on this universe."""
        return self.ctx.combination(self.S, self.label)

    def image_basis(self) -> Image:
        """im(A'^t) on a class, A' = points x class generators; see `Image`."""
        if self._image_basis_cache is None:
            rows = [pm & self.mask for pm in self.ctx.space.point_gen_masks()]
            self._image_basis_cache = Image(self, "A'", rows)
        return self._image_basis_cache
