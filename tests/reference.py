"""Routes that only the tests call: the pair-loop references for the
scheme's relations, its algebra, B^t B, the meeting graph, the matvec,
the incidences C_k over the canonical levels and every
generator-incidence question the library reads off the relations
(constructions, labels, z-profiles, subquadrangles, pencil
decompositions, pair counts), the list-based annihilators for eigenspace membership, the
certified kernel that decides image membership by elimination, the CL
battery with member loops and Fraction counts, the GQ line-set report,
the recursive spread and parameter-1 searches that the library's loops
must match node for node, and small checks kept out of the library
because nothing in it needs them."""

from fractions import Fraction
from functools import cache, reduce
from math import gcd, isqrt, lcm
from operator import or_

import polarcl.counting as counting
from polarcl.clsets import CLReport, image_parts
from polarcl.counting import (CountingError, binom2, gaussian_binomial,
                              intersection_numbers, qint, qpow)
from polarcl.linalg import (PRIME, IntEchelon, ModEchelon, _bits, _pack,
                            eigencheck_width, spread)
from polarcl.geometry import VerificationError
from polarcl.scheme import RestrictedScheme, SchemeError


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


def reference_meeting_graph(space, universe):
    """meets[a]: the positions b != a in `universe` whose generators meet
    universe[a], from one `intersection_vdim` call per ordered pair."""
    nu = len(universe)
    meets = [0] * nu
    for a in range(nu):
        ga = universe[a]
        for b in range(nu):
            if a != b and space.intersection_vdim(ga, universe[b]) > 0:
                meets[a] |= 1 << b
    return meets


def reference_matvec(masks, v):
    """M v for the 0/1 matrix M with row masks `masks`, one entry added
    per set bit."""
    return [sum(v[j] for j in _bits(m)) for m in masks]


def rank_of_incidence(sch, k: int) -> int:
    return CertifiedKernel(sch.incidence(k), sch.n).rank


def reference_incidence(space, k: int) -> list[int]:
    """C_k rows in the canonical order of `space.levels[k]`: generator g is
    on a (k-1)-space iff g's point mask holds each of its echelon rows,
    one generator at a time."""
    rows = []
    for s in space.levels[k]:
        at = [space.point_index[r] for r in s]
        rows.append(sum(1 << g for g, pm in enumerate(space.gen_point_masks)
                        if all(pm >> i & 1 for i in at)))
    return rows


# -- generator incidence by pair loops ----------------------------------------
#
# The library reads these off the certified relations A_i; the references
# derive them from intersection dimensions, point masks and the form.
# `reference_spreads` keeps the clash rows built from the point rows.

def reference_base_plane(space, g):
    """The generators meeting g in at least a line, one
    `intersection_vdim` call each."""
    return sum(1 << h for h in range(space.n_generators)
               if space.intersection_vdim(g, h) >= 2)


def reference_base_solid(space, center, class_label):
    """The generators of `class_label` meeting `center` in a plane."""
    return sum(1 << h for h in space.class_members(class_label)
               if space.intersection_vdim(center, h) == 3)


def reference_classify_parameter1(space, mask, class_label=None):
    """`search.classify_parameter1` from the common points of the members
    and intersection dimensions checked member by member."""
    from polarcl.clsets import get_context, space_type
    ctx = get_context(space)
    members = list(_bits(mask))
    common = reduce(lambda a, g: a & space.gen_point_masks[g], members,
                    (1 << len(space.points)) - 1)
    cm = ctx.restricted(class_label).mask
    if any(space.point_gen_masks()[p] & cm == mask for p in _bits(common)):
        return "point-pencil"
    desc = space.desc
    if class_label is None and space_type(desc) == "III":
        if mask in set(space.hyperbolic_classes()):
            return "hyperbolic-class"
        if desc.rank == 3:
            for pi in members:
                if (all(space.intersection_vdim(pi, g) >= 2 for g in members)
                        and reference_base_plane(space, pi) == mask):
                    return "base-plane"
    if class_label is not None and desc.family == "Q+" and desc.rank == 4:
        other = "greek" if class_label == "latin" else "latin"
        for center in space.class_members(other):
            if (all(space.intersection_vdim(center, g) == 3 for g in members)
                    and reference_base_solid(space, center, class_label)
                    == mask):
                return "base-solid"
    return "other"


def reference_z(gs, pi, point):
    """z[j]: the members through `point` whose common points with pi
    span a vector space of dimension j + 1, counted member by member."""
    sp = gs.ctx.space
    z = [0] * (gs.ctx.d - 1)
    pm_pi = sp.gen_point_masks[pi]
    for g in _bits(gs.mask):
        common = sp.gen_point_masks[g] & pm_pi
        if (common >> point) & 1:
            z[sp._vdim_table[common.bit_count()] - 1] += 1
    return z


def reference_classify_tight_set(gq, point_mask, i):
    """`gq.classify_tight_set` with its member loop and its loop over the
    pairs of part lines."""
    inside = [li for li in range(gq.n_lines)
              if gq.line_masks[li] & ~point_mask == 0]
    covered = 0
    disjoint = []
    for li in inside:
        if gq.line_masks[li] & covered == 0:
            disjoint.append(li)
            covered |= gq.line_masks[li]
    if covered == point_mask and len(disjoint) == i:
        return "line-union"
    if gq.t and gq.s % gq.t == 0 and i == gq.s // gq.t + 1:
        part = [li for li in range(gq.n_lines)
                if (gq.line_masks[li] & point_mask).bit_count()
                == gq.s // gq.t + 1]
        ok = all(sum((gq.line_masks[li] >> p) & 1 for li in part) == gq.t + 1
                 for p in _bits(point_mask))
        for a in range(len(part)):
            for b in range(a + 1, len(part)):
                common = gq.line_masks[part[a]] & gq.line_masks[part[b]]
                if common and not common & point_mask:
                    ok = False
        if ok and part:
            return "subquadrangle"
    return "other"


def reference_non_collinear(space, vertices):
    """No two of the points pair to zero under the form."""
    return all(space.form.pair(space.points[a], space.points[b]) != 0
               for i, a in enumerate(vertices) for b in vertices[i + 1:])


def reference_pairs(space, v, cap=None):
    """The first `cap` pairs a < b of generators meeting in a projective
    v-space, in `itertools.combinations` order."""
    n = space.n_generators
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if space.intersection_vdim(a, b) == v + 1]
    return pairs if cap is None else pairs[:cap]


# -- the certified kernel ------------------------------------------------------
#
# ModEchelon's rows are brought to the RREF mod p, one kernel vector is read
# off each free column, and each entry u is lifted to the unique a/b = u
# (mod p) with |a|, b <= sqrt(p / 2), if any (rational reconstruction, Wang
# 1981); denominators are cleared.  Column t packs (z_1[t], ..., z_m[t]) as
# sum_i z_i[t] 2^{B i}, so the columns of a 0/1 set L sum to fields
# h_i = <z_i, chi_L>, |h_i| <= n max|z|.  With B = bits(n max|z|) + 2 every
# |h_i| < 2^(B-1): the sum is zero exactly when every h_i is, and its
# lowest set bit lies in the first nonzero h_i.

KERNEL_PRIMES = (PRIME, 2 ** 61 - 1)  # the second is tried on failure


def _unpack(packed: int, ncols: int, nbytes: int) -> list[int]:
    raw = packed.to_bytes(ncols * nbytes, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little")
            for i in range(0, len(raw), nbytes)]


def rref(ech: ModEchelon) -> list[list[int]]:
    """Back-substitute the rows of ech, in place, to the reduced form mod
    p; returns their entries, which then have zeros at each other's
    pivots.  A row is reduced mod p before it clears its pivot from the
    rows above, so fields stay within the echelon's bound."""
    p, width, fmask = ech.p, ech.width, (1 << ech.width) - 1
    rows, entries = ech.rows, [None] * len(ech.rows)
    for j in range(len(rows) - 1, -1, -1):
        rows[j] = row = ech.reduce(rows[j])
        entries[j] = _unpack(row, ech.ncols, ech.nbytes)
        for i in range(j):
            c = (rows[i] >> width * ech.pivots[j] & fmask) % p
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
    residues = [[-vals[f] % p for f in free] for vals in rref(ech)]
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


def _compress(masks, columns):
    """Each mask with bit columns[t] moved to bit t, other bits dropped."""
    at = {g: t for t, g in enumerate(columns)}
    return [sum(1 << at[g] for g in _bits(m) if g in at) for m in masks]


class CertifiedKernel:
    """A certified integer basis z_1..z_m of ker_Q(M), M the 0/1 matrix of
    rows `masks` on `columns` (default 0..n-1); cols[g] packs
    (z_1[g], ..., z_m[g]) as `kernel_columns` does, 0 off `columns`.

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

    def witness(self, mask: int):
        acc = sum([self.cols[g] for g in _bits(mask)])
        return ((acc & -acc).bit_length() - 1) // self.width if acc else None

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


@cache
def image_kernel(sch, which: str = "A'"):
    """The certified kernel of M = A or B of a SchemeContext, or of A' on
    the class of a RestrictedScheme, indexed by the full generator index."""
    if isinstance(sch, RestrictedScheme):
        cm = sch.ctx.space.class_mask(sch.label)
        return CertifiedKernel([pm & cm for pm in sch.ctx.space.point_gen_masks()],
                               sch.ctx.n, sch.members)
    masks = sch.space.point_gen_masks() if which == "A" else sch.build_B()
    return CertifiedKernel(masks, sch.n)


# -- generalised quadrangles --------------------------------------------------

@cache
def gq_kernel(gq):
    """The certified kernel of a GQ's point-line incidence, built once."""
    return CertifiedKernel(gq.point_lines, gq.n_lines)


def gq_cl_report(gq, line_mask: int) -> dict:
    """All five line-set characterisations, evaluated independently.

    (i) chi in im(A^t); (ii) chi orthogonal to ker(A); (iii) disjointness
    counts (x - chi_l) t; (iv) meeting counts x + chi_l (t - 1); (v) the
    disjointness-matrix eigenvector condition for the eigenvalue -t.
    A is the point-line incidence matrix.  (i) runs fraction-free
    elimination on each call; (ii) reads the GQ's certified kernel.
    """
    x = Fraction(line_mask.bit_count(), gq.t + 1)
    chi = [(line_mask >> li) & 1 for li in range(gq.n_lines)]
    # (i) image membership
    ech = IntEchelon(gq.n_lines)
    for p in range(gq.n_points):
        ech.add([(gq.point_lines[p] >> li) & 1 for li in range(gq.n_lines)])
    v_i = ech.contains(chi)
    # (ii) orthogonality to the kernel of A
    v_ii = gq_kernel(gq).witness(line_mask) is None
    # (iii) disjointness counts and (iv) meeting counts, from the lines
    # through some point of each line
    through = [reduce(or_, (gq.point_lines[p] for p in l)) for l in gq.lines]
    meets = [t & ~(1 << li) for li, t in enumerate(through)]
    disjoint = [~t & (1 << gq.n_lines) - 1 for t in through]
    v_iii = all((disjoint[li] & line_mask).bit_count()
                == (x - chi[li]) * gq.t for li in range(gq.n_lines))
    v_iv = all((meets[li] & line_mask).bit_count()
               == x + chi[li] * (gq.t - 1) for li in range(gq.n_lines))
    # (v) eigenvector of the disjointness matrix for -t, scaled by
    # n = (t+1)(st+1): w = n (chi - x/(st+1) j)
    w = [gq.n_lines * c - line_mask.bit_count() for c in chi]
    v_v = all(sum(w[j] for j in _bits(disjoint[li])) == -gq.t * w[li]
              for li in range(gq.n_lines))
    consistent = v_i == v_ii == v_iii == v_iv == v_v
    return {"x": x, "im_At": v_i, "ker_perp": v_ii, "disjoint_counts": v_iii,
            "meet_counts": v_iv, "eigenvector": v_v, "consistent": consistent,
            "is_cl": v_iii}


# -- sets ---------------------------------------------------------------------

def member_witness(T, mask: int):
    """`Combination.witness` as a loop over the members: the index of the
    lowest nonzero field of the sum of their columns, or None."""
    acc = sum([T.cols[g] for g in _bits(mask)])
    return ((acc & -acc).bit_length() - 1) // T.width if acc else None


def reference_check_cl(gs, spreads=None) -> CLReport:
    """`check_cl` with the Fraction counts of (i) and (iv), member loops
    for every column sum, and the image test summing its own columns
    rather than reading (iii)'s witness.  Spreads are taken as valid."""
    ctx, u, mask = gs.ctx, gs.universe, gs.mask
    rep = CLReport(x=gs.x, size=gs.size,
                   type_label="II" if gs.class_label else ctx.type)
    xf, wit = gs.x * u.f, None
    if xf.denominator != 1:
        wit = u.members[0]
    else:
        expect = (xf, xf - u.f)
        wit = next((pi for pi in u.members if (ctx.scheme.K[pi] & mask)
                    .bit_count() != expect[mask >> pi & 1]), None)
    rep.verdicts["disjointness_counts"] = wit is None
    if wit is not None:
        rep.witnesses["disjointness_counts"] = wit
    rep.verdicts["eigenvector"] = wit is None
    if wit is not None:
        rep.witnesses["eigenvector"] = (u.mask & ((1 << wit) - 1)).bit_count()
    T = ctx.scheme.combination(u.S, gs.class_label)
    rep.verdicts["eigenspace"] = member_witness(T, mask) is None
    rep.witnesses["eigenspace_indices"] = sorted(u.S)
    which, parts = image_parts(gs)
    rep.verdicts["image"] = None if which is None else (
        len({m.bit_count() for _, m in parts}) == 1
        and all(member_witness(image.T, m) is None for image, m in parts))
    rep.witnesses["image_matrix"] = which
    if spreads is not None:
        bad = next((i for i, s in enumerate(spreads)
                    if Fraction((s & mask).bit_count()) != gs.x), None)
        rep.verdicts["spread_intersections"] = (
            "vacuous" if not spreads else bad is None)
        if bad is not None:
            rep.witnesses["spread_intersections"] = bad
    top = qpow(ctx.q, ctx.e + ctx.d - 1) + 1
    if rep.is_cl and (gs.x.denominator != 1 or not 0 <= gs.x <= top):
        raise VerificationError(f"positive verdict with x = {gs.x}")
    return rep


def intersection_profile(gs, pi: int):
    """n_i = members of L meeting generator pi in a (d-i-1)-space."""
    ctx = gs.ctx
    return [(ctx.scheme.A[i][pi] & gs.mask).bit_count() for i in range(ctx.d + 1)]


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
    """v in im(M^t), M = A (points) or B (hyperbolic classes), by the
    certified kernel: on any space, not only where M characterises."""
    return _kernel_contains(image_kernel(sch, which), v, range(len(v)))


def class_image_membership(rs, v) -> bool:
    """v, indexed by the class members, in the image of the class incidence."""
    return _kernel_contains(image_kernel(rs), v, rs.members)


# -- the pair walks over an n x n distance table ------------------------------

def _distance_table(sch):
    return [[next(i for i in range(sch.d + 1) if sch.A[i][u] >> v & 1)
             for v in range(sch.n)] for u in range(sch.n)]


def reference_algebra_witness(sch, b, c):
    """The first (u, v, j, found, expected) with (A_1 A_j)_{uv} other than
    (b_{j-1} A_{j-1} + a_j A_j + c_{j+1} A_{j+1})_{uv}, or with j None where
    (A_0)_{uv} is not (I)_{uv}, read through a distance table one u at a
    time, as `verify_distance_regularity` reports it; b and c run over
    0..d (b_d = c_0 = 0)."""
    dist, A, d, n = _distance_table(sch), sch.A, sch.d, sch.n
    a = [b[0] - x - y for x, y in zip(b, c)]
    for u in range(n):
        for v in range(n):
            if (dist[u][v] == 0) != (u == v):
                return (u, v, None, int(dist[u][v] == 0), int(u == v))
        for v in range(n):
            i, found = dist[u][v], [0] * (d + 1)
            for w in _bits(A[1][u]):
                found[dist[w][v]] += 1
            want = {i - 1: c[i], i: a[i], i + 1: b[i]}
            for j in range(d + 1):
                if found[j] != want.get(j, 0):
                    return (u, v, j, found[j], want.get(j, 0))
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


# -- the recursive searches, one node at a time -------------------------------


def reference_spreads(space, budget=None, max_solutions=None, containing=()):
    """`search.find_spreads` as a recursion that scans every point for the
    branching column and checks both limits at every node."""
    from polarcl.clsets import GenSet, get_context, is_regular_system
    from polarcl.search import SearchResult, _certify, node_budget
    ctx = get_context(space)
    limit = node_budget(budget)
    point_rows = space.point_gen_masks()
    npts = len(space.points)
    gen_pts = space.gen_point_masks
    res = SearchResult("spread")
    all_pts = (1 << npts) - 1
    clash = [0] * space.n_generators
    for g, pm in enumerate(gen_pts):
        for p in _bits(pm):
            clash[g] |= point_rows[p]
    avail_all = (1 << space.n_generators) - 1
    pre_covered = 0
    for g in containing:
        if gen_pts[g] & pre_covered:
            raise ValueError("preselected generators are not pairwise disjoint")
        pre_covered |= gen_pts[g]
        avail_all &= ~clash[g]

    def rec(covered: int, avail: int, chosen: list[int]):
        res.nodes += 1
        if res.nodes > limit:
            res.stopped_by = "budget"
            return
        if max_solutions is not None and len(res.solutions) >= max_solutions:
            res.stopped_by = "limit"
            return
        if covered == all_pts:
            mask = sum(1 << g for g in chosen)
            _certify(is_regular_system(GenSet(ctx, mask), 1), "spread")
            res.solutions.append(mask)
            return
        best = None
        for p in range(npts):
            if (covered >> p) & 1:
                continue
            cand = point_rows[p] & avail
            cnt = cand.bit_count()
            if cnt == 0:
                return
            if best is None or cnt < best[1]:
                best = (cand, cnt)
                if cnt == 1:
                    break
        for g in _bits(best[0]):
            chosen.append(g)
            rec(covered | gen_pts[g], avail & ~clash[g], chosen)
            chosen.pop()
            if res.stopped_by:
                return

    rec(pre_covered, avail_all, list(containing))
    res.solutions.sort()
    return res


def reference_cl_parameter1(space, class_label=None, budget=None):
    """`search.find_cl_parameter1` as a recursion over a clique list that
    counts its members at every node."""
    from polarcl.clsets import GenSet, check_cl, get_context
    from polarcl.search import (SearchResult, _certify, meeting_graph,
                                node_budget)
    ctx = get_context(space)
    limit = node_budget(budget)
    universe, meets = meeting_graph(ctx, class_label)
    target = ctx.restricted(class_label).pencil
    res = SearchResult("cl_parameter1")
    clique: list[int] = []

    def rec(cand: int, start: int):
        res.nodes += 1
        if res.nodes > limit:
            res.stopped_by = "budget"
            return
        if len(clique) == target:
            mask = sum(1 << universe[t] for t in clique)
            gs = GenSet(ctx, mask, class_label)
            if check_cl(gs).is_cl:
                _certify(gs.x == 1, "parameter-1 CL set")
                res.solutions.append(mask)
            return
        if len(clique) + cand.bit_count() < target:
            return
        m = cand & ~((1 << start) - 1)
        while m:
            low = m & -m
            t = low.bit_length() - 1
            m ^= low
            if len(clique) + (cand >> t).bit_count() < target:
                return
            clique.append(t)
            rec(cand & meets[t], t + 1)
            clique.pop()
            if res.stopped_by:
                return

    rec((1 << len(universe)) - 1, 0)
    res.solutions.sort()
    return res
