"""Routes that only the tests call: the pair-loop references for the
scheme's relations and B^t B, the list-based annihilators for
eigenspace membership, and small checks kept out of the library because
nothing in it needs them."""

from fractions import Fraction
from math import lcm

import polarcl.counting as counting
from polarcl.counting import (CountingError, binom2, gaussian_binomial,
                              intersection_numbers, qint)
from polarcl.linalg import _bits
from polarcl.scheme import CertifiedKernel, RestrictedScheme, SchemeError


# -- the scheme's pair-loop references ----------------------------------------

def reference_relations(space):
    """A[i][g] from one `PolarSpace.distance` call per pair of generators."""
    n = space.n_generators
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        row = dist[i]
        for j in range(i + 1, n):
            row[j] = dist[j][i] = space.distance(i, j)
    A = [[0] * n for _ in range(space.d + 1)]
    for i in range(n):
        for j, dij in enumerate(dist[i]):
            A[dij][i] |= 1 << j
    return A


def reference_btb(sch):
    """The first pair u <= v with (B^t B)_{uv} other than q^{d-i} at even
    distance i and 0 at odd distance, as (u, v, i, got, expect), or None.
    Counts the classes through each pair one by one."""
    B = sch.build_B()
    sp = sch.space
    q, d, n = sp.desc.q, sch.d, sch.n
    for u in range(n):
        for v in range(u, n):
            i = sp.distance(u, v)
            expect = q ** (d - i) if i % 2 == 0 else 0
            got = sum(1 for m in B if (m >> u) & 1 and (m >> v) & 1)
            if got != expect:
                return (u, v, i, got, expect)
    return None


def rank_of_incidence(sch, k: int) -> int:
    return CertifiedKernel(sch.incidence(k), sch.n).rank


# -- sets ---------------------------------------------------------------------

def regular_system_m(gs):
    """The unique m if the set is a regular system, else None."""
    rows = gs.ctx.space.point_gen_masks()
    ms = {(row & gs.mask).bit_count() for row in rows}
    return ms.pop() if len(ms) == 1 else None


def max_disjoint_in(gs) -> int:
    """Largest pairwise-disjoint subfamily of the set (exact clique size)."""
    members = gs.members()
    nu = len(members)
    disj = [0] * nu
    K = gs.ctx.scheme.K
    for a in range(nu):
        for b in range(nu):
            if a != b and (K[members[a]] >> members[b]) & 1:
                disj[a] |= 1 << b
    best = 0

    def rec(cand: int, size: int):
        nonlocal best
        best = max(best, size)
        m = cand
        while m:
            low = m & -m
            t = low.bit_length() - 1
            m ^= low
            if size + 1 + (disj[t] & m).bit_count() <= best:
                continue
            rec(cand & disj[t] & ~((1 << (t + 1)) - 1), size + 1)

    rec((1 << nu) - 1, 0)
    return best


# -- geometry and closed forms ------------------------------------------------

def is_totally_isotropic(rows, form) -> bool:
    """All basis vectors isotropic and all pairwise pairings vanish."""
    for i, r in enumerate(rows):
        if not form.is_isotropic_point(r):
            return False
        for s in rows[i:]:
            if form.pair(r, s) != 0:
                return False
    return True


def q_binomial_theorem_check(n: int, q: int, t) -> bool:
    """Exact check of sum_k [n,k]_q q^C(k,2) t^k = prod_{k<n} (1 + q^k t)."""
    t = Fraction(t)
    lhs = sum(gaussian_binomial(n, k, q) * Fraction(q) ** binom2(k) * t ** k
              for k in range(n + 1))
    rhs = Fraction(1)
    for k in range(n):
        rhs *= 1 + Fraction(q) ** k * t
    return lhs == rhs


def num_disjoint_from_generator(d: int, e, q: int) -> int:
    return qint(q, binom2(d) + d * Fraction(e))


def min_eigenvalue_spaces(desc) -> set[int]:
    """Indices j with P_{j,d} equal to -q^{C(d-1,2)+e(d-1)}.

    That value is the disjointness eigenvalue on V_1; it reappears on
    V_{d-1} for hyperbolic quadrics of even rank and on V_d for the
    parameter-one spaces of odd rank, and nowhere else.  The eigenvalue
    is read through the module, so a test can patch it.
    """
    d, e = desc.rank, Fraction(desc.e)
    out = {1}
    if e == 0 and d % 2 == 0:
        out.add(d - 1)
    if e == 1 and d % 2 == 1:
        out.add(d)
    target = -qint(desc.q, binom2(d - 1) + e * (d - 1))
    for j in range(d + 1):
        got = counting.eigenvalue_disjointness(j, d, e, desc.q)
        if (got == target) != (j in out):
            relation = "==" if j in out else "!="
            raise CountingError(f"P_{{{j},{d}}} = {got}, expected "
                                f"{relation} {target}")
    return out


# -- the vector forms of the membership tests ---------------------------------

def scale_to_int(vec) -> list[int]:
    """Clear denominators of a rational vector (entries may be int or Fraction)."""
    mult = 1
    for x in vec:
        if isinstance(x, Fraction):
            mult = lcm(mult, x.denominator)
    return [int(x * mult) for x in vec]


def annihilate(scheme, v, js):
    """Apply prod_{j in js} (A_1 - P_{j,1} I) to the integer vector v with
    list matvecs: A_1 of a SchemeContext, or A'_1 = A_2 on the class of a
    RestrictedScheme, v indexed by its members.  Each factor kills V_j and
    scales the others, as the P_{j,1} are pairwise distinct."""
    if isinstance(scheme, RestrictedScheme):
        at = {g: t for t, g in enumerate(scheme.members)}
        rows = [[at[h] for h in _bits(scheme.ctx.A[2][g])]
                for g in scheme.members]
    else:
        rows = [list(_bits(m)) for m in scheme.A[1]]
    col = [row[1] for row in scheme.P]
    if len(set(col)) != len(col):
        raise SchemeError(f"the eigenvalues {col} are not pairwise distinct")
    for j in js:
        v = [sum(v[h] for h in row) - col[j] * x for row, x in zip(rows, v)]
    return v


def eigenspace_membership(scheme, v, S) -> bool:
    """v in the orthogonal sum of the V_j, j in S, for a SchemeContext or
    a RestrictedScheme: the product of the annihilator factors over S
    leaves exactly the components outside S."""
    return not any(annihilate(scheme, scale_to_int(v), sorted(S)))


def expanded_annihilator(sch, j: int) -> list[int]:
    """alpha with prod_{l != j} (A_1 - P_{l,1} I) = sum_i alpha_i A_i,
    expanded one factor at a time from I = A_0 with
    A_1 A_i = sum_k p^k_{i1} A_k and the closed-form intersection numbers."""
    d, desc = sch.d, sch.space.desc
    p = intersection_numbers(d, desc.e, desc.q)
    alpha = [1] + [0] * d
    for l in range(d + 1):
        if l != j:
            alpha = [sum(x * p[i][1][k] for i, x in enumerate(alpha))
                     - sch.P[l][1] * alpha[k] for k in range(d + 1)]
    return alpha


def _kernel_contains(kernel, vec, positions) -> bool:
    """`CertifiedKernel.witness` for a multiple of a 0/1 vector, entry t
    at column positions[t]; other vectors raise SchemeError."""
    vec = scale_to_int(vec)
    if len(set(vec) - {0}) > 1:
        raise SchemeError("image test of a vector that is not 0/1 scaled")
    return kernel.witness(sum(1 << g for g, x in zip(positions, vec) if x)) is None


def image_membership(sch, v, which: str) -> bool:
    """v in im(M^t), M = A (points) or B (hyperbolic classes)."""
    return _kernel_contains(sch.image_basis(which), v, range(len(v)))


def class_image_membership(rs, v) -> bool:
    """v, indexed by the class members, in the image of the class incidence."""
    return _kernel_contains(rs.image_basis(), v, rs.members)


# -- the pair walks over an n x n distance table ------------------------------

def _distance_table(sch):
    return [[next(i for i in range(sch.d + 1) if sch.A[i][u] >> v & 1)
             for v in range(sch.n)] for u in range(sch.n)]


def reference_regularity_witness(sch, b, c):
    """The first pair u <= v whose b_i or c_i count is off, read through
    a distance table, as `verify_distance_regularity` reports it."""
    dist, A, d = _distance_table(sch), sch.A, sch.d
    for u in range(sch.n):
        for v in range(u, sch.n):
            i = dist[u][v]
            if i < d and (A[1][u] & A[i + 1][v]).bit_count() != b[i]:
                return (u, v, "b", i, (A[1][u] & A[i + 1][v]).bit_count(), b[i])
            if i >= 1 and (A[1][u] & A[i - 1][v]).bit_count() != c[i - 1]:
                return (u, v, "c", i, (A[1][u] & A[i - 1][v]).bit_count(),
                        c[i - 1])
    return None


def reference_intersection_witness(sch, p):
    """The first (u <= v, i, j) with |A_i[u] ^ A_j[v]| != p^k_{ij}."""
    dist, A, d = _distance_table(sch), sch.A, sch.d
    for u in range(sch.n):
        for v in range(u, sch.n):
            k = dist[u][v]
            for i in range(d + 1):
                for j in range(d + 1):
                    got = (A[i][u] & A[j][v]).bit_count()
                    if got != p[i][j][k]:
                        return (u, v, i, j, got, p[i][j][k])
    return None
