"""The association scheme of the dual polar graph, materialised.

A SchemeContext holds, for an enumerated polar space with generator set
Omega (canonical order):

    dist            the distance oracle d - dim_vec(pi ^ pi')
    A[i]            0/1 adjacency of the i-th distance relation, as bitmask rows
    K = A[d]        the disjointness relation
    C[k]            incidence of (k-1)-spaces with generators
    B               hyperbolic classes x generators (type III only)
    P               the exact eigenvalue table of the scheme

Eigenspace membership is decided by annihilator polynomials in A_1: the
eigenvalues P_{j,1} are pairwise distinct, so each factor (A_1 - P_{j,1} I)
kills V_j and acts invertibly elsewhere, and v lies in the orthogonal sum
of the V_j over j in S exactly when the product over S annihilates v.
Image membership for an incidence matrix M uses im(M^t) = ker_Q(M)^perp:
a 0/1 vector chi_L lies in im(M^t) iff <z, chi_L> = 0 for every z in a
basis of ker_Q(M).  `CertifiedKernel` builds that basis once per matrix
and certifies it; see there.  No floating point anywhere.

Eigenspace bases (`eigenspace_bases`) take three steps, each exact.

- Projection by popcounts.  The annihilator prod_{l != j} (A_1 - P_{l,1} I)
  lies in the Bose-Mesner algebra, so it equals sum_i alpha_i A_i with
  integer alpha_i.  They follow from expanding the product with the
  intersection numbers: multiplying sum_i x_i A_i by A_1 sends the
  coefficients to x'_k = sum_i x_i p^k_{i1}.  A 0/1 row r of C_j then
  projects to w_t = sum_i alpha_i |A_i[t] ^ r|, d + 1 popcounts per entry.
- Independence modulo one prime.  The projections are kept greedily while
  they are independent modulo `linalg.PRIME`, in a packed-row echelon.
  The certificate is one-sided: independence mod p implies independence
  over Q, so an accepted basis is independent; a rank that falls short of
  the multiplicity raises SchemeError, with no fallback.  The annihilator
  acts on V_j as the scalar prod_{l != j} (P_{j,1} - P_{l,1}), and a prime
  that divides a factor loses rank (p = 5 reaches rank 1 of 9 on V_1 of
  W(3,2)).  p > 2^20 exceeds every |P_{j,1} - P_{l,1}| <= 2 P_{0,1} while
  the valency P_{0,1} is below 2^19.
- Packed eigencheck.  Every basis vector w of V_j satisfies
  A_1 w = P_{j,1} w, checked as one integer identity on packed rows whose
  field width, bits(k max|w|) + 2, keeps the fields from carrying.  The
  field width of the modular echelon is bits(p - 1) + bits(n (p - 1)^2) + 1.
  Both bounds are derived in `linalg`.
"""

from __future__ import annotations

from .counting import (EigenvalueTable, intersection_numbers, parameter_b,
                       parameter_c)
from .enumeration import PolarSpace
from .geometry import VerificationError
from .linalg import (PRIME, ModEchelon, _bits, first_non_eigenvector,
                     kernel_columns, scale_to_int)


class SchemeError(RuntimeError):
    pass


KERNEL_PRIMES = (PRIME, 2 ** 61 - 1)  # the second is tried on failure


class CertifiedKernel:
    """A certified integer basis z_1..z_m of ker_Q(M), M the 0/1 matrix of
    rows `masks` on `columns` (default 0..n-1); cols[g] packs
    (z_1[g], ..., z_m[g]) as `linalg.kernel_columns` does, 0 off `columns`.

    Certificate, trusting neither the prime nor the lift: each z_i is
    nonzero at its own free column and 0 at the others (so independent),
    M z_i = 0 holds exactly as one packed sum per row of M, and
    m = n - r_p.  As r_p <= rank_Q(M), m <= n - rank_Q(M) <= n - r_p = m:
    the z_i span ker_Q(M), and `rank` = r_p = rank_Q(M).  A failure
    retries with the next of `KERNEL_PRIMES`, then raises VerificationError.
    """

    def __init__(self, masks, n: int, columns=None):
        columns = range(n) if columns is None else columns
        failures = []
        for p in KERNEL_PRIMES:
            ech = ModEchelon(len(columns), p)
            for m in masks:
                ech.add([(m >> g) & 1 for g in columns])
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

    def witness(self, mask: int):
        """None if the 0/1 vector of the mask lies in im(M^t), else the
        first i with <z_i, chi> != 0: one big-int add per member."""
        acc = sum([self.cols[g] for g in _bits(mask)])
        return ((acc & -acc).bit_length() - 1) // self.width if acc else None

    def contains(self, vec, positions=None) -> bool:
        """`witness` for a multiple of a 0/1 vector, entry t at column
        positions[t]; other vectors raise SchemeError."""
        vec = scale_to_int(vec)
        if len(set(vec) - {0}) > 1:
            raise SchemeError("image test of a vector that is not 0/1 scaled")
        return self.witness(sum(1 << g for g, x in zip(
            positions or range(len(vec)), vec) if x)) is None


class SchemeContext:
    def __init__(self, space: PolarSpace):
        self.space = space
        self.d = space.d
        self.n = space.n_generators
        desc = space.desc
        self.table = EigenvalueTable(desc.rank, desc.e, desc.q)
        self.P = self.table.P
        self.dist = self._distances()
        self.A = self._distance_masks()
        self.K = self.A[self.d]
        self._neighbors = [list(_bits(m)) for m in self.A[1]]
        self._C = {}
        self._B = None
        self._image_bases = {}
        self._eigenbases = None

    # -- relations ---------------------------------------------------------

    def _distances(self):
        sp = self.space
        n = self.n
        dist = [[0] * n for _ in range(n)]
        for i in range(n):
            row = dist[i]
            for j in range(i + 1, n):
                dij = sp.distance(i, j)
                row[j] = dij
                dist[j][i] = dij
        return dist

    def _distance_masks(self):
        n = self.n
        A = [[0] * n for _ in range(self.d + 1)]
        for i in range(n):
            di = self.dist[i]
            for j in range(n):
                A[di[j]][i] |= 1 << j
        return A

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

    def verify_BtB(self, sample=None):
        """(B^t B)_{uv} = q^{d-i} at even distance i, 0 at odd distance.

        The entry counts hyperbolic classes through both generators; at
        odd distance the intersection dimension has the wrong parity for
        the two generators to share a section class, so those terms
        vanish.  Returns None or the first violating pair.
        """
        B = self.build_B()
        q, d = self.space.desc.q, self.d
        n = self.n
        pairs = sample if sample is not None else [
            (u, v) for u in range(n) for v in range(u, n)]
        for u, v in pairs:
            i = self.dist[u][v]
            expect = q ** (d - i) if i % 2 == 0 else 0
            got = sum(1 for m in B if (m >> u) & 1 and (m >> v) & 1)
            if got != expect:
                return (u, v, i, got, expect)
        return None

    # -- verification ------------------------------------------------------

    def verify_distance_regularity(self, pairs=None):
        """Empirical b_i, c_i over all pairs vs the closed forms.

        Returns (params, None) on success or (None, witness) with the
        first violating pair.
        """
        d, q, e = self.d, self.space.desc.q, self.space.desc.e
        b = [parameter_b(d, e, q, i) for i in range(d)]
        c = [parameter_c(d, e, q, i) for i in range(1, d + 1)]
        n = self.n
        it = pairs if pairs is not None else (
            (u, v) for u in range(n) for v in range(u, n))
        for u, v in it:
            i = self.dist[u][v]
            nb = self.A[1][u]
            if i < d:
                got_b = (nb & self.A[i + 1][v]).bit_count()
                if got_b != b[i]:
                    return None, (u, v, "b", i, got_b, b[i])
            if i >= 1:
                got_c = (nb & self.A[i - 1][v]).bit_count()
                if got_c != c[i - 1]:
                    return None, (u, v, "c", i, got_c, c[i - 1])
        return {"b": b, "c": c}, None

    def verify_intersection_numbers(self, sample=None):
        """A_i A_j = sum_k p^k_{ij} A_k, checked entrywise by counting."""
        d = self.d
        p = intersection_numbers(d, self.space.desc.e, self.space.desc.q)
        n = self.n
        pairs = sample if sample is not None else [
            (u, v) for u in range(n) for v in range(u, n)]
        for u, v in pairs:
            k = self.dist[u][v]
            for i in range(d + 1):
                Aiu = self.A[i][u]
                for j in range(d + 1):
                    got = (Aiu & self.A[j][v]).bit_count()
                    if got != p[i][j][k]:
                        return (u, v, i, j, got, p[i][j][k])
        return None

    # -- eigenspace machinery ------------------------------------------------

    def matvec_A1(self, v):
        return [sum(v[j] for j in self._neighbors[i]) for i in range(self.n)]

    def matvec_mask(self, masks, v):
        out = []
        for m in masks:
            acc = 0
            for j in _bits(m):
                acc += v[j]
            out.append(acc)
        return out

    def annihilate(self, v, js):
        """Apply prod_{j in js} (A_1 - P_{j,1} I) to v (integer vector)."""
        for j in js:
            lam = self.P[j][1]
            av = self.matvec_A1(v)
            v = [a - lam * x for a, x in zip(av, v)]
        return v

    def eigenspace_membership(self, v, S) -> bool:
        """v in the orthogonal sum of V_j, j in S (exact).

        The factor (A_1 - P_{j,1} I) kills the V_j component and scales
        every other one (the P_{j,1} are pairwise distinct), so applying
        the product over j in S leaves exactly the components outside S.
        """
        v = scale_to_int(v)
        out = self.annihilate(v, sorted(S))
        return not any(out)

    def set_eigenspace_membership(self, mask: int, S) -> bool:
        """`eigenspace_membership` of the 0/1 characteristic vector chi of
        a generator mask L.  The first factor is read off the rows:
        ((A_1 - P_{j,1} I) chi)_i = |A_1[i] ^ L| - P_{j,1} chi_i."""
        j0, *rest = sorted(S)
        lam = self.P[j0][1]
        v = [(row & mask).bit_count() - lam * ((mask >> i) & 1)
             for i, row in enumerate(self.A[1])]
        return not any(self.annihilate(v, rest))

    def orthogonal_to(self, v, j) -> bool:
        """v orthogonal to V_j, i.e. the V_j component of v vanishes."""
        v = scale_to_int(v)
        out = self.annihilate(v, [l for l in range(self.d + 1) if l != j])
        return not any(out)

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

    def image_membership(self, v, which: str) -> bool:
        return self.image_basis(which).contains(v)

    def rank_of_incidence(self, k: int) -> int:
        return CertifiedKernel(self.incidence(k), self.n).rank

    # -- eigenspace bases (via the incidence matrices) ---------------------------

    def _annihilator(self, j: int) -> list[int]:
        """alpha with prod_{l != j} (A_1 - P_{l,1} I) = sum_i alpha_i A_i.

        Starts from I = A_0 and multiplies by one factor at a time, using
        A_1 A_i = sum_k p^k_{i1} A_k from the closed-form intersection
        numbers.
        """
        d, desc = self.d, self.space.desc
        p = intersection_numbers(d, desc.e, desc.q)
        alpha = [1] + [0] * d
        for l in range(d + 1):
            if l != j:
                lam = self.P[l][1]
                alpha = [sum(x * p[i][1][k] for i, x in enumerate(alpha))
                         - lam * alpha[k] for k in range(d + 1)]
        return alpha

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
            basis = []
            for m in self.incidence(j):
                w = self._project(alpha, m)
                if ech.add(w):
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

    # -- restricted scheme on one class of a hyperbolic quadric -----------------

    def restricted(self, label: str) -> "RestrictedScheme":
        return RestrictedScheme(self, label)


class RestrictedScheme:
    """The floor(d/2)-class scheme on one generator class of Q+(2d-1,q).

    A'_i is A_{2i} restricted to the class; the eigenvalue of A'_i on the
    restricted eigenspace V'_j is P_{j,2i}.  Membership tests use the
    annihilator in A'_1 when the restricted eigenvalues P_{j,2} are
    pairwise distinct and fall back to a separating integer combination
    of all the A'_i otherwise.
    """

    def __init__(self, ctx: SchemeContext, label: str):
        sp = ctx.space
        if sp.class_labels is None:
            raise SchemeError("restricted scheme needs a hyperbolic quadric")
        if sp.d % 2 != 0:
            raise SchemeError("restricted class scheme needs even rank")
        self.ctx = ctx
        self.label = label
        self.members = sp.class_members(label)
        self.m = len(self.members)
        self.half = sp.d // 2
        self.A = []
        for i in range(self.half + 1):
            full = ctx.A[2 * i]
            rows = []
            for g in self.members:
                mask = 0
                fm = full[g]
                for t, h in enumerate(self.members):
                    if (fm >> h) & 1:
                        mask |= 1 << t
                rows.append(mask)
            self.A.append(rows)
        self.K = self.A[self.half]
        self.P = [[ctx.P[j][2 * i] for i in range(self.half + 1)]
                  for j in range(self.half + 1)]
        col1 = [row[1] for row in self.P]
        self._distinct = len(set(col1)) == self.half + 1
        self._sep = self._separating_combination()
        self._positions = {}
        self._image_basis_cache = None

    def _separating_combination(self):
        """Integer weights c with sum_i c_i P'_{j,i} pairwise distinct in j."""
        for t in range(1, 100):
            weights = [t ** i for i in range(self.half + 1)]
            vals = [sum(w * p for w, p in zip(weights, row)) for row in self.P]
            if len(set(vals)) == self.half + 1:
                return weights, vals
        raise SchemeError("no separating combination found")  # unreachable

    def matvec(self, i: int, v):
        """A'_i v, over position lists of the rows built on first use."""
        if i not in self._positions:
            self._positions[i] = [list(_bits(row)) for row in self.A[i]]
        return [sum(v[t] for t in pos) for pos in self._positions[i]]

    def _combination(self):
        """(c, vals): T = sum_i c_i A'_i acts as vals[j] on V'_j, and the
        vals are pairwise distinct.  T = A'_1 when its eigenvalues are."""
        if self._distinct:
            return ([int(i == 1) for i in range(self.half + 1)],
                    [row[1] for row in self.P])
        return self._sep

    def annihilate(self, v, js):
        """Apply prod_{j in js} (T - vals[j] I) to v (integer vector)."""
        weights, vals = self._combination()
        for j in js:
            tv = [0] * self.m
            for i, w in enumerate(weights):
                if w:
                    tv = [acc + w * a for acc, a in zip(tv, self.matvec(i, v))]
            v = [a - vals[j] * x for a, x in zip(tv, v)]
        return v

    def eigenspace_membership(self, v, S) -> bool:
        return not any(self.annihilate(scale_to_int(v), sorted(S)))

    def set_eigenspace_membership(self, mask: int, S) -> bool:
        """`eigenspace_membership` of the characteristic vector of a mask
        L inside the class.  The first factor is read off the full rows:
        (A'_i chi)_t = |A_{2i}[g_t] ^ L|, with no remapping of L."""
        weights, vals = self._combination()
        j0, *rest = sorted(S)
        A = self.ctx.A
        v = [sum(w * (A[2 * i][g] & mask).bit_count()
                 for i, w in enumerate(weights) if w)
             - vals[j0] * ((mask >> g) & 1) for g in self.members]
        return not any(self.annihilate(v, rest))

    def image_basis(self) -> CertifiedKernel:
        """Certified kernel of A' = points x class generators, indexed by
        the full generator index."""
        if self._image_basis_cache is None:
            cm = self.ctx.space.class_mask(self.label)
            self._image_basis_cache = CertifiedKernel(
                [pm & cm for pm in self.ctx.space.point_gen_masks()],
                self.ctx.n, self.members)
        return self._image_basis_cache

    def image_membership(self, v) -> bool:
        return self.image_basis().contains(v, self.members)
