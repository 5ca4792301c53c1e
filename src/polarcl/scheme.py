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

Eigenspace membership: chi lies in the orthogonal sum of the V_j, j in
S, iff T chi = 0 for T = sum_i beta_i A_i acting as 0 on those V_j and as
one nonzero scalar on the others (`Combination`).  Image membership for
an incidence matrix M uses im(M^t) = ker_Q(M)^perp: a 0/1 vector chi_L
lies in im(M^t) iff <z, chi_L> = 0 for every z in a basis of ker_Q(M).
`CertifiedKernel` builds that basis once per matrix and certifies it;
see there.  No floating point anywhere.

Eigenspace bases (`eigenspace_bases`) take three steps, each exact.

- Projection.  The annihilator prod_{l != j} (A_1 - P_{l,1} I) lies in
  the Bose-Mesner algebra, so it equals sum_i alpha_i A_i with integer
  alpha_i, solved for like beta (see `_annihilator`).  Its column g mod p
  is the packed row R_g = sum_i (alpha_i mod p) spread(A_i[g]), fields in
  [0, p).  A 0/1
  row r of C_j projects mod p to sum_{g in r} R_g, fields at most
  n (p - 1), and exactly to w_t = sum_i alpha_i |A_i[t] ^ r|, which is
  computed for kept rows only.
- Independence modulo one prime.  The projections are kept greedily while
  they are independent modulo `linalg.PRIME`, in a packed-row echelon.
  The certificate is one-sided: independence mod p implies independence
  over Q, so an accepted basis is independent (each kept w must reduce
  to the accepted row); a rank that falls short of the multiplicity
  raises SchemeError, with no fallback.  The annihilator acts on V_j as
  the scalar prod_{l != j} (P_{j,1} - P_{l,1}), and a prime that divides
  a factor loses rank (p = 5 reaches rank 1 of 9 on V_1 of W(3,2)).
  p > 2^20 exceeds every |P_{j,1} - P_{l,1}| <= 2 P_{0,1} while the
  valency P_{0,1} is below 2^19.
- Packed eigencheck.  Every basis vector w of V_j satisfies
  A_1 w = P_{j,1} w, checked as one integer identity on packed rows whose
  field width, bits(k max|w|) + 2, keeps the fields from carrying.  The
  modular echelon takes fields up to n (p - 1) and grows them to at most
  n p (p - 1).  Both bounds are derived in `linalg`.
"""

from __future__ import annotations

from math import lcm, prod

from .counting import (EigenvalueTable, intersection_numbers, parameter_b,
                       parameter_c)
from .enumeration import PolarSpace
from .geometry import VerificationError
from .linalg import (PRIME, ModEchelon, _bits, _primitive,
                     first_non_eigenvector, kernel_columns, spread)


class SchemeError(RuntimeError):
    pass


KERNEL_PRIMES = (PRIME, 2 ** 61 - 1)  # the second is tried on failure


class PackedColumns:
    """Columns packed in balanced `width`-bit fields: 0/1 sums never carry."""

    def witness(self, mask: int):
        """None if the columns of the mask's members sum to zero, else the
        index of the lowest nonzero field: one big-int add per member."""
        acc = sum([self.cols[g] for g in _bits(mask)])
        return ((acc & -acc).bit_length() - 1) // self.width if acc else None


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


class Combination(PackedColumns):
    """T = sum_i beta_i A'_i, beta the primitive integer multiple of the x
    with P x = c, c_j = 0 for j in S and 1 otherwise, P the eigenvalues
    P'_{j,i} of the relations rows[i] within U = `universe`; `witness(L)`
    is the first t with (T chi_L)_t != 0.  Column g of T is packed as
    sum_i beta_i spread(A'_i[g] & U, W), W = bits(sum_i |beta_i| k'_i) + 2
    rounded up to bytes (k'_i = P'_{0,i}).  Certificate: sum_i beta_i P'_{j,i}
    is 0 exactly for j in S; the columns sum to (sum_i beta_i k'_i) spread(U)."""

    def __init__(self, S, P, rows, universe: int):
        self.beta = _primitive(_solve(P, [int(j not in S)
                                          for j in range(len(P))])[0])
        peak = sum(abs(b) * k for b, k in zip(self.beta, P[0]))
        self.width = 8 * -(-(peak.bit_length() + 2) // 8)
        self.cols = self._columns(rows, universe)
        if problem := self._problem(P, S, universe):
            raise VerificationError(f"statement (iii) combination for "
                                    f"S = {sorted(S)}: {problem}")

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
        w, k = self.width, sums[0]  # T 1_U = (sum_i beta_i k'_i) 1_U
        diff = sum(self.cols) - k * spread(universe, w)
        if diff:
            t, half = ((diff & -diff).bit_length() - 1) // w, 1 << w - 1
            off = ((diff >> w * t) + half) % (2 * half) - half  # balanced
            return (f"row {t} of T sums to {k + off}, expected "
                    f"sum_i beta_i k'_i = {k}")
        return None


class CertifiedKernel(PackedColumns):
    """A certified integer basis z_1..z_m of ker_Q(M), M the 0/1 matrix of
    rows `masks` on `columns` (default 0..n-1); cols[g] packs
    (z_1[g], ..., z_m[g]) as `linalg.kernel_columns` does, 0 off `columns`.

    Certificate, trusting neither the prime nor the lift: each z_i is
    nonzero at its own free column and 0 at the others (so independent),
    M z_i = 0 holds exactly as one packed sum per row of M, and
    m = n - r_p.  As r_p <= rank_Q(M), m <= n - rank_Q(M) <= n - r_p = m:
    the z_i span ker_Q(M), and `rank` = r_p = rank_Q(M).  A failure
    retries with the next of `KERNEL_PRIMES`, then raises VerificationError.
    `witness(L)` is the first i with <z_i, chi_L> != 0, if any.
    """

    def __init__(self, masks, n: int, columns=None):
        local = masks if columns is None else _compress(masks, columns)
        columns = range(n) if columns is None else columns
        failures = []
        for p in KERNEL_PRIMES:
            ech = ModEchelon(len(columns), p)
            for m in local:
                ech.add(spread(m, ech.width))
            self.rank, self.dim = ech.rank, len(columns) - ech.rank
            lifted = kernel_columns(ech)
            if lifted is None:
                failures.append(f"p = {p}: an entry has no rational lift")
                continue
            self.width, packed, self.cols = *lifted, [0] * n
            for g, col in zip(columns, packed):
                self.cols[g] = col
            pivots = set(ech.pivots)
            problem = self._problem(masks, [g for t, g in enumerate(columns)
                                            if t not in pivots])
            if problem is None:
                return
            failures.append(f"p = {p}: {problem}")
        raise VerificationError("kernel certificate: " + "; ".join(failures))

    def _problem(self, masks, free):
        w, cols = self.width, self.cols
        alone = sum(1 for i, g in enumerate(free) if cols[g] >> w * i << w * i
                    == cols[g] and 0 < cols[g] >> w * i < 1 << w - 1)
        if alone != self.dim:
            return (f"{alone} vectors are nonzero at their free column alone, "
                    f"expected n - r_p = {self.dim}")
        for k, m in enumerate(masks):
            if self.witness(m) is not None:
                return f"entry {k} of M z_{self.witness(m)} is nonzero"
        return None


def _compress(masks, columns):
    """Each mask with bit columns[t] moved to bit t, other bits dropped."""
    at = {g: t for t, g in enumerate(columns)}
    return [sum(1 << at[g] for g in _bits(m) if g in at) for m in masks]


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


class SchemeContext:
    def __init__(self, space: PolarSpace):
        self.space = space
        self.d = space.d
        self.n = space.n_generators
        self.table = EigenvalueTable(space.desc.rank, space.desc.e, space.desc.q)
        self.P = self.table.P
        self.A = self._relations()
        self.K = self.A[self.d]
        self._combinations = {}
        self._C = {}
        self._B = None
        self._image_bases = {}
        self._eigenbases = None

    # -- relations ---------------------------------------------------------

    def _relations(self):
        """A[i][g] for every relation i and generator g, read off the
        bit-sliced point counts (see the module docstring)."""
        sp, d, n = self.space, self.d, self.n
        q, rows, full = sp.desc.q, sp.point_gen_masks(), (1 << n) - 1
        counts = [(q ** (d - i) - 1) // (q - 1) for i in range(d + 1)]
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
        return A

    def _distance_row(self, u: int) -> bytes:
        """Byte v is the distance of generators u and v."""
        return sum(i * spread(self.A[i][u], 8)
                   for i in range(1, self.d + 1)).to_bytes(self.n, "little")

    def incidence(self, k: int):
        """C_k rows: for every (k-1)-space, the bitmask of generators on it.
        A generator holds the space iff it holds each of its basis points,
        so a row is the AND of the point rows of A at its echelon rows."""
        if k not in self._C:
            sp = self.space
            A = sp.point_gen_masks()
            rows = []
            for s in sp.levels[k]:
                m = (1 << self.n) - 1
                for r in s:
                    m &= A[sp.point_index[r]]
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
        violating pair (u, v, i, got, expect).
        """
        B = self.build_B()
        q, d, n, full = self.space.desc.q, self.d, self.n, (1 << self.n) - 1
        through = [[] for _ in range(n)]
        for m in B:
            for g in _bits(m):
                through[g].append(m)
        expect = [q ** (d - i) if i % 2 == 0 else 0 for i in range(d + 1)]
        for u in range(n):
            planes = _column_sums(through[u])
            bad = sum(self.A[i][u] & ~_where(planes, e, full)  # disjoint
                      for i, e in enumerate(expect))
            if bad:
                v = (bad & -bad).bit_length() - 1
                i = next(i for i in range(d + 1) if self.A[i][u] >> v & 1)
                got = sum((b >> v & 1) << t for t, b in enumerate(planes))
                return (u, v, i, got, expect[i])
        return None

    # -- verification ------------------------------------------------------

    def verify_distance_regularity(self):
        """Empirical b_i, c_i over all pairs vs the closed forms.

        Returns (params, None) on success or (None, witness) with the
        first violating pair.
        """
        d, q, e = self.d, self.space.desc.q, self.space.desc.e
        b = [parameter_b(d, e, q, i) for i in range(d)] + [None]
        c = [None] + [parameter_c(d, e, q, i) for i in range(1, d + 1)]
        A, n = self.A, self.n
        # at distance i: (rows at i + 1, b_i, rows at i - 1, c_i)
        spec = [(A[i + 1] if i < d else None, b[i], A[i - 1] if i else None,
                 c[i]) for i in range(d + 1)]
        for u in range(n):
            row, nb = self._distance_row(u), A[1][u]
            for v in range(u, n):
                up, bi, down, ci = spec[row[v]]
                if up is not None and (nb & up[v]).bit_count() != bi:
                    return None, (u, v, "b", row[v], (nb & up[v]).bit_count(),
                                  bi)
                if down is not None and (nb & down[v]).bit_count() != ci:
                    return None, (u, v, "c", row[v],
                                  (nb & down[v]).bit_count(), ci)
        return {"b": b[:d], "c": c[1:]}, None

    def verify_intersection_numbers(self):
        """A_i A_j = sum_k p^k_{ij} A_k, checked entrywise by counting."""
        d, n, span = self.d, self.n, range(self.d + 1)
        p = intersection_numbers(d, self.space.desc.e, self.space.desc.q)
        want = [[p[i][j][k] for i in span for j in span] for k in span]
        rows = list(zip(*self.A))  # rows[g][i] = A_i[g]
        for u in range(n):
            row, at_u = self._distance_row(u), rows[u]
            for v in range(u, n):
                got = [(a & b).bit_count() for a in at_u for b in rows[v]]
                if got != want[row[v]]:
                    t = next(t for t, (x, y) in enumerate(zip(got, want[row[v]]))
                             if x != y)
                    return (u, v, *divmod(t, d + 1), got[t], want[row[v]][t])
        return None

    # -- eigenspace machinery ------------------------------------------------

    def matvec_mask(self, masks, v):
        out = []
        for m in masks:
            acc = 0
            for j in _bits(m):
                acc += v[j]
            out.append(acc)
        return out

    def combination(self, S, label=None) -> Combination:
        """The cached T of statement (iii) for S, on Omega or class `label`."""
        key = frozenset(S), label
        if key not in self._combinations:
            self._combinations[key] = Combination(key[0], *(
                (self.P, self.A, (1 << self.n) - 1) if label is None else
                (RestrictedScheme(self, label).P, self.A[::2],
                 self.space.class_mask(label))))
        return self._combinations[key]

    # -- image membership ------------------------------------------------------

    def image_basis(self, which: str) -> CertifiedKernel:
        """Certified kernel of M = A (points) or B (hyperbolic classes);
        its `witness` decides membership in im(M^t)."""
        if which not in ("A", "B"):
            raise SchemeError(f"unknown incidence matrix {which!r}")
        if which not in self._image_bases:
            masks = self.space.point_gen_masks() if which == "A" else self.build_B()
            self._image_bases[which] = CertifiedKernel(masks, self.n)
        return self._image_bases[which]

    # -- eigenspace bases (via the incidence matrices) ---------------------------

    def _annihilator(self, j: int) -> list[int]:
        """alpha with prod_{l != j} (A_1 - P_{l,1} I) = sum_i alpha_i A_i;
        on V_m both act as (P alpha)_m = prod_{l != j} (P_{m,1} - P_{l,1}),
        0 unless m = j.  alpha is integral; the bases' checks cover it."""
        col = [row[1] for row in self.P]
        c = [0] * (self.d + 1)
        c[j] = prod(col[j] - lam for l, lam in enumerate(col) if l != j)
        y, D = _solve(self.P, c)
        return [a // D for a in y]

    def _project(self, alpha, mask: int) -> list[int]:
        """(sum_i alpha_i A_i) chi for the 0/1 vector chi of a generator
        mask: entry t is sum_i alpha_i |A_i[t] ^ mask|."""
        w = [0] * self.n
        for a, rows in zip(alpha, self.A):
            if a:
                w = [x + a * (row & mask).bit_count() for x, row in zip(w, rows)]
        return w

    def eigenspace_bases(self):
        """Integer bases of every V_j, built from the rows of the C_j.

        V_0 is spanned by the all-ones vector.  For j >= 1 each row of C_j
        is projected by sum_i alpha_i A_i = prod_{l != j} (A_1 - P_{l,1} I),
        a scalar multiple of the minimal idempotent E_j, and the
        projections are kept greedily, in row order, while they stay
        independent modulo `linalg.PRIME`.  im(C_j^t) = V_0 + ... + V_j
        makes them span V_j; a rank short of the multiplicity m_j raises
        SchemeError.

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
        bases = {0: [[1] * n]}
        for j in range(1, d + 1):
            alpha = self._annihilator(j)
            want = self.table.multiplicity(j)
            ech = ModEchelon(n)
            p, width = ech.p, ech.width
            coef = [(a % p, rows) for a, rows in zip(alpha, self.A) if a % p]
            cols = [sum(c * spread(rows[g], width) for c, rows in coef)
                    for g in range(n)]
            basis = []
            for m in self.incidence(j):
                row = sum([cols[g] for g in _bits(m)])
                if ech.add(row):
                    w = self._project(alpha, m)
                    if ech.pack(w) != ech.reduce(row):
                        raise SchemeError(
                            f"basis vector {len(basis)} of V_{j} fails to "
                            f"match its packed projection modulo p = {p}")
                    basis.append(w)
                    if ech.rank == want:
                        break
            if ech.rank != want:
                raise SchemeError(
                    f"rows of C_{j} reach rank {ech.rank} modulo p = {ech.p}, "
                    f"expected the multiplicity {want} of V_{j}")
            bases[j] = basis
        total = sum(len(b) for b in bases.values())
        if total != n:
            raise SchemeError(
                f"eigenspace dimensions sum to {total}, expected {n}")
        for j, basis in bases.items():
            lam = self.P[j][1]
            bad = first_non_eigenvector(self.A[1], lam, basis)
            if bad is not None:
                raise SchemeError(f"basis vector {bad} of V_{j} fails the A_1 "
                                  f"eigencheck for eigenvalue {lam}")
        self._eigenbases = bases
        return bases


class RestrictedScheme:
    """The floor(d/2)-class scheme on one generator class of Q+(2d-1,q).

    A'_i is A_{2i} restricted to the class; the eigenvalue of A'_i on the
    restricted eigenspace V'_j is P'_{j,i} = P_{j,2i}.  Statement (iii)
    reads `SchemeContext.combination(S, label)`.
    """

    def __init__(self, ctx: SchemeContext, label: str):
        sp = ctx.space
        if sp.class_labels is None:
            raise SchemeError("restricted scheme needs a hyperbolic quadric")
        if sp.d % 2 != 0:
            raise SchemeError("restricted class scheme needs even rank")
        self.ctx, self.label = ctx, label
        self.members = sp.class_members(label)
        self.P = [row[::2] for row in ctx.P[:sp.d // 2 + 1]]
        self._image_basis_cache = None

    def image_basis(self) -> CertifiedKernel:
        """Certified kernel of A' = points x class generators, indexed by
        the full generator index."""
        if self._image_basis_cache is None:
            cm = self.ctx.space.class_mask(self.label)
            self._image_basis_cache = CertifiedKernel(
                [pm & cm for pm in self.ctx.space.point_gen_masks()],
                self.ctx.n, self.members)
        return self._image_basis_cache
