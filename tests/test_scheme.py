"""The association scheme layer: relations, eigenspaces, incidences."""

import random
from fractions import Fraction
from math import gcd

import pytest

from polarcl.clsets import get_context
from polarcl.counting import gaussian_binomial
from polarcl.enumeration import get_space_by_name
from polarcl.geometry import GeometryError, VerificationError
from polarcl.linalg import _bits
from polarcl.scheme import RestrictedScheme, SchemeError, column_order

from reference import (_distance_table, annihilate, class_image_membership,
                       eigenspace_membership, expanded_annihilator,
                       image_membership, rank_of_incidence,
                       reference_algebra_witness, reference_btb,
                       reference_incidence, reference_intersection_witness,
                       reference_matvec, reference_relations)


def ctx_of(name):
    return get_context(get_space_by_name(name)).scheme


def test_identity_and_partition():
    for name in ("W(3,2)", "Q+(5,2)", "Q-(5,2)"):
        sch = ctx_of(name)
        n = sch.n
        full = (1 << n) - 1
        for i in range(n):
            assert sch.A[0][i] == 1 << i
            assert sum(sch.A[k][i] for k in range(sch.d + 1)) == full


def test_distance_regularity_verification():
    for name in ("W(3,2)", "Q+(5,2)", "W(3,3)"):
        sch = ctx_of(name)
        params, witness = sch.verify_distance_regularity()
        assert witness is None
        assert params["c"][0] == 1  # c_1 = 1 always


def test_intersection_numbers_exhaustive_small():
    # the certificate implies every p^k_ij: the full entrywise walk over a
    # distance table passes wherever it passes
    from polarcl.counting import intersection_numbers
    for name in ("W(3,2)", "Q+(5,2)", "Q(6,2)", "Q+(7,2)"):
        sch = ctx_of(name)
        assert sch.verify_intersection_numbers() is None
        p = intersection_numbers(sch.d, sch.space.desc.e, sch.space.desc.q)
        assert reference_intersection_witness(sch, p) is None, name


def test_certificates_are_kept_once_they_pass():
    # a pass is kept on the context, so a later call walks nothing; a
    # witness is never kept, so a failing check is run again
    sch = _fresh("Q(6,2)")
    assert sch.verify_BtB() is None
    assert sch.verify_distance_regularity()[1] is None
    sch._B, saved = None, sch.A[1][0]
    sch.A[1][0] ^= 1 << 1
    assert sch.verify_BtB() is None and sch._B is None
    assert sch.verify_distance_regularity()[1] is None
    sch = _fresh("Q(6,2)")
    sch.A[1][0] ^= 1 << 1
    B = sch.build_B()
    sch._B = [m ^ 1 for m in B]  # generator 0 toggled in every class
    for _ in range(2):  # still broken, so the witness is found again
        assert sch.verify_distance_regularity()[1] is not None
        assert sch.verify_BtB() is not None
    sch.A[1][0], sch._B = saved, B
    assert sch.verify_distance_regularity()[1] is None
    assert sch.verify_BtB() is None


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_class_characters_hold_in_closed_form(d):
    # P' = (P_{j,2i}) on a class of Q+(2d-1,q) is a character table of
    # p'^t_sr = p^{2t}_{2s,2r}, with distinct P'_{j,1}, as the universe
    # certifies at build
    from polarcl.counting import (EigenvalueTable, character_problem,
                                  intersection_numbers)
    ds = range(0, d + 1, 2)
    for q in (2, 3, 4, 5, 7, 8, 9):
        P, p = EigenvalueTable(d, 0, q).P, intersection_numbers(d, 0, q)
        P_class = [[row[i] for i in ds] for row in P[:len(ds)]]
        assert character_problem(P_class, [[[p[s][r][t] for t in ds]
                                             for r in ds] for s in ds]) is None


def test_incidence_row_sums():
    # each (k-1)-space lies in the generator count of its residual space
    sch = ctx_of("Q(6,2)")
    assert {m.bit_count() for m in sch.incidence(1)} == {15}  # pencil size
    assert {m.bit_count() for m in sch.incidence(2)} == {3}   # q^e + 1
    assert {m.bit_count() for m in sch.incidence(3)} == {1}


@pytest.mark.parametrize("name", ["Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)",
                                  "Q-(5,2)", "W(3,2)", "W(3,3)", "W(5,2)",
                                  "H(3,4)", "H(4,4)"])
def test_incidence_rows_match_the_canonical_levels(name):
    # C_k comes in the enumeration's discovery order; as a multiset of rows
    # it is the incidence of the sorted canonical level
    sch = ctx_of(name)
    for k in range(1, sch.d + 1):
        assert sorted(sch.incidence(k)) == sorted(
            reference_incidence(sch.space, k)), (name, k)


def test_eigenspace_membership_examples():
    sch = ctx_of("W(3,2)")
    n = sch.n
    ones = [1] * n
    assert eigenspace_membership(sch, ones, {0})
    assert not eigenspace_membership(sch, ones, {1})
    assert not eigenspace_membership(sch, ones, {2})
    pencil = [(get_space_by_name("W(3,2)").point_gen_masks()[0] >> g) & 1
              for g in range(n)]
    assert eigenspace_membership(sch, pencil, {0, 1})
    assert not eigenspace_membership(sch, pencil, {0})
    assert not eigenspace_membership(sch, pencil, {1})
    assert not eigenspace_membership(sch, pencil, {0, 2})


def test_class_difference_vector_in_Vd():
    # the difference of the two class vectors of an embedded Q+(5,2) is an
    # A_1 eigenvector for -[3,1]_q and lies in V_3
    from polarcl.geometry import all_hyperplanes, classify_hyperplane_section
    sp = get_space_by_name("Q(6,2)")
    sch = ctx_of("Q(6,2)")
    gf = sp.gf
    a = next(h for h in all_hyperplanes(gf, 6)
             if classify_hyperplane_section(sp.form, h, sp.points) == "hyperbolic")

    def dot(v):
        acc = 0
        for x, y in zip(a, v):
            acc = gf.add(acc, gf.mul(x, y))
        return acc
    inside = [g for g, rows in enumerate(sp.generators)
              if all(dot(r) == 0 for r in rows)]
    anchor = inside[0]
    one = [g for g in inside
           if (sp.d - 1 - sp.intersection_vdim(anchor, g)) % 2 == 0]
    two = [g for g in inside if g not in set(one)]
    diff = [0] * sch.n
    for g in one:
        diff[g] += 1
    for g in two:
        diff[g] -= 1
    lam = -gaussian_binomial(3, 1, 2)
    assert sch.matvec_mask(sch.A[1], diff) == [lam * x for x in diff]
    assert eigenspace_membership(sch, diff, {3})
    # the sum of the two class vectors lies in im(A^t) = V_0 + V_1
    summ = [abs(x) for x in diff]
    assert image_membership(sch, summ, "A")
    assert eigenspace_membership(sch, summ, {0, 1})


def test_image_membership_basics():
    sch = ctx_of("W(3,2)")
    n = sch.n
    assert image_membership(sch, [0] * n, "A")
    row = [(get_space_by_name("W(3,2)").point_gen_masks()[3] >> g) & 1
           for g in range(n)]
    assert image_membership(sch, row, "A")
    assert image_membership(sch, [Fraction(1, 3)] * n, "A")  # multiple of j


def test_latin_class_vector_not_in_image():
    sp = get_space_by_name("Q+(5,2)")
    sch = ctx_of("Q+(5,2)")
    chi = [(sp.class_mask("latin") >> g) & 1 for g in range(sch.n)]
    assert not image_membership(sch, chi, "A")
    assert eigenspace_membership(sch, chi, {0, 3})


def test_image_of_AtA_equals_image_of_At():
    from polarcl.linalg import IntEchelon
    for name in ("W(3,2)", "Q-(5,2)"):
        sp = get_space_by_name(name)
        sch = ctx_of(name)
        rowsA = sp.point_gen_masks()
        n = sch.n
        ech = sch.image_basis("A")
        # rows of A^t A: for each generator column g, the vector of common
        # point counts
        ech2 = IntEchelon(n)
        for g in range(n):
            vec = [ (sp.gen_point_masks[g] & sp.gen_point_masks[h]).bit_count()
                    for h in range(n)]
            ech2.add(vec)
        assert ech.rank == ech2.rank


def test_rowspace_rank_decomposition():
    # rank(C_k) = sum_{j<=k} dim V_j: the incidence images are nested sums
    for name in ("W(3,2)", "Q+(5,2)", "Q(6,2)", "Q-(5,2)", "H(3,4)"):
        sch = ctx_of(name)
        bases = sch.eigenspace_bases()
        for k in range(1, sch.d + 1):
            expect = sum(len(bases[j]) for j in range(k + 1))
            assert rank_of_incidence(sch, k) == expect, (name, k)


def test_eigenspace_dims_match_multiplicities():
    for name in ("W(3,2)", "Q+(5,2)", "Q(6,2)", "H(3,4)", "Q+(7,2)"):
        sch = ctx_of(name)
        bases = sch.eigenspace_bases()
        for j in range(sch.d + 1):
            assert len(bases[j]) == sch.table.multiplicity(j)


def test_degree_sequence_matches_distance_classes():
    from polarcl.counting import degree_k
    for name in ("W(3,2)", "Q+(5,2)", "Q(6,2)", "H(3,4)"):
        sch = ctx_of(name)
        sp = get_space_by_name(name)
        for i in range(sch.d + 1):
            ki = degree_k(sch.d, sp.desc.e, sp.desc.q, i)
            assert all(row.bit_count() == ki for row in sch.A[i])


def test_btb_identity_type_III():
    for name in ("Q(6,2)", "W(5,2)"):
        sch = ctx_of(name)
        assert sch.verify_BtB() is None
        B = sch.build_B()
        # column sums q^d
        for g in range(sch.n):
            assert sum(1 for m in B if (m >> g) & 1) == 8
        # pencil vectors lie in im(B^t)
        sp = get_space_by_name(name)
        pencil = [(sp.point_gen_masks()[0] >> g) & 1 for g in range(sch.n)]
        assert image_membership(sch, pencil, "B")


def test_all_relations_eigenvalue_table():
    # A_i w = P_{j,i} w for every relation i and every constructed basis
    # vector of V_j, not only the dual polar graph and the disjointness
    for name in ("W(3,2)", "Q(6,2)", "H(3,4)"):
        sch = ctx_of(name)
        bases = sch.eigenspace_bases()
        for j, basis in bases.items():
            for i in range(sch.d + 1):
                lam = sch.P[j][i]
                for w in basis:
                    assert sch.matvec_mask(sch.A[i], w) == [lam * x for x in w]


def test_restricted_scheme_qplus72():
    sch = ctx_of("Q+(7,2)")
    rs = RestrictedScheme(sch, "latin")
    sp = get_space_by_name("Q+(7,2)")
    cm = sp.class_mask("latin")
    assert len(rs.members) == 135
    for i, degree in ((1, 70), (2, 64)):  # k_2 and the disjointness degree
        # A'_i = A_{2i}: generators at even distance share the class
        assert all(sch.A[2 * i][g] & ~cm == 0 for g in rs.members)
        assert {sch.A[2 * i][g].bit_count() for g in rs.members} == {degree}
    assert rs.P[0] == [1, 70, 64]
    assert rs.P[1] == [1, 7, -8]
    assert rs.P[2] == [1, -5, 4]
    ones = [1] * len(rs.members)
    assert eigenspace_membership(rs, ones, {0})
    assert not eigenspace_membership(rs, ones, {1})
    assert sch.combination({0}, "latin").witness(cm) is None
    assert sch.combination({1}, "latin").witness(cm) == rs.members[0]
    # class-restricted pencil lies in V'_0 + V'_1
    pm = sp.point_gen_masks()[0] & cm
    chi = [(pm >> g) & 1 for g in rs.members]
    assert eigenspace_membership(rs, chi, {0, 1})
    assert not eigenspace_membership(rs, chi, {0, 2})
    assert sch.combination({0, 1}, "latin").witness(pm) is None
    assert sch.combination({0, 2}, "latin").witness(pm) is not None


def test_restricted_image_rank():
    # im(A'^t) = V'_0 + V'_1: rank is 1 + dim V'_1 = 51 on a class of Q+(7,2)
    sch = ctx_of("Q+(7,2)")
    rs = RestrictedScheme(sch, "latin")
    assert rs.image_basis().rank == 51
    sp = get_space_by_name("Q+(7,2)")
    pm = sp.point_gen_masks()[0] & sp.class_mask("latin")
    chi = [(pm >> g) & 1 for g in rs.members]
    assert class_image_membership(rs, chi)


def test_restricted_needs_even_rank():
    with pytest.raises(GeometryError, match=r"Q\+\(5,2\) has no class-restricted"):
        RestrictedScheme(ctx_of("Q+(5,2)"), "latin")


def test_membership_agrees_with_basis_reduction():
    # independent route: v lies in the orthogonal sum of V_j over S iff it
    # reduces to zero against the stacked constructed bases of those V_j
    import random
    from itertools import combinations
    from polarcl.linalg import IntEchelon
    rng = random.Random(7)
    for name in ("W(3,2)", "Q(6,2)"):
        sch = ctx_of(name)
        bases = sch.eigenspace_bases()
        n = sch.n
        vectors = [[1] * n,
                   [(get_space_by_name(name).point_gen_masks()[0] >> g) & 1
                    for g in range(n)]]
        for _ in range(6):
            vectors.append([rng.randrange(-2, 3) for _ in range(n)])
        subsets = [set(s) for k in (1, 2, 3)
                   for s in combinations(range(sch.d + 1), k)]
        for v in vectors:
            for S in subsets:
                ech = IntEchelon(n)
                for j in S:
                    for w in bases[j]:
                        ech.add(w)
                assert eigenspace_membership(sch, v, S) == ech.contains(v), \
                    (name, sorted(S))


# -- the combination T of statement (iii) against the list annihilators ------


def _sets_within(sp, universe, rng):
    """Pencils, their complements and near-misses, and random sets, all
    inside the universe mask."""
    members, rows = list(_bits(universe)), sp.point_gen_masks()
    masks = [0, universe]
    for p in rng.sample(range(len(sp.points)), 3):
        pencil = rows[p] & universe
        masks += [pencil, universe & ~pencil,
                  pencil ^ 1 << rng.choice(members)]
    for _ in range(4):
        size = rng.randrange(len(members) + 1)
        masks.append(sum(1 << g for g in rng.sample(members, size)))
    return masks


@pytest.mark.parametrize("name, label", [
    ("W(3,2)", None), ("Q+(5,2)", None), ("Q-(5,2)", None), ("Q(6,2)", None),
    ("H(3,4)", None), ("Q+(7,2)", "latin"), ("Q+(7,2)", "greek")])
def test_combination_matches_the_annihilators(name, label):
    # for every index set S: witness None exactly when the list
    # annihilators kill chi, else the first t with (T chi)_t != 0, read
    # off list popcounts
    from itertools import combinations
    import random
    sch = ctx_of(name)
    rs = label and RestrictedScheme(sch, label)
    universe = sch.space.class_mask(label) if label else (1 << sch.n) - 1
    positions = rs.members if rs else range(sch.n)
    rows = sch.A[::2] if label else sch.A
    k = len(rs.P if rs else sch.P)
    masks = _sets_within(sch.space, universe, random.Random(name + str(label)))
    for S in (set(c) for r in range(1, k + 1) for c in combinations(range(k), r)):
        T = sch.combination(S, label)
        for mask in masks:
            chi = [(mask >> g) & 1 for g in positions]
            want = next((t for t in range(sch.n) if sum(
                b * (r[t] & mask).bit_count() for b, r in zip(T.beta, rows))),
                None)
            assert T.witness(mask) == want, (sorted(S), mask)
            assert (want is None) == eigenspace_membership(rs or sch, chi, S)


def test_combination_weights():
    # beta is primitive, kills exactly the V_j with j in S, and is 0 when S
    # holds every index, so then every set passes
    for name, S, label, beta in (
            ("Q(6,2)", {0, 1, 3}, None, [112, -8, -8, 7]),
            ("W(5,2)", {0, 1, 3}, None, [112, -8, -8, 7]),
            ("Q(6,3)", {0, 1, 3}, None, [1053, -27, -27, 13]),
            ("Q+(7,2)", {0, 1}, "latin", [112, -8, 7]),
            ("Q+(5,2)", {0, 1, 2, 3}, None, [0, 0, 0, 0])):
        assert ctx_of(name).combination(S, label).beta == beta, name
    T = ctx_of("Q+(5,2)").combination(range(4))
    assert T.witness((1 << 30) - 1) is None and T.witness(0b1011) is None


def _beta_entry_off(monkeypatch):
    import polarcl.scheme as scheme
    primitive = scheme._primitive
    monkeypatch.setattr(scheme, "_primitive", lambda v: [
        b + (i == 0) for i, b in enumerate(primitive(v))])
    _fresh("Q(6,2)").combination({0, 1, 3})


def _column_field_off(monkeypatch):
    from polarcl.scheme import Combination
    columns = Combination._columns

    def corrupt(self, rows, universe):
        cols = columns(self, rows, universe)
        cols[9] += 1 << self.width * 4  # T_{4,9}
        return cols
    monkeypatch.setattr(Combination, "_columns", corrupt)
    _fresh("Q(6,2)").combination({0, 1, 3})


COMBINATION_TAMPERS = {
    "beta-entry-off": (_beta_entry_off,
                       r"S = \[0, 1, 3\]: sum_i beta_i P'_\{0,i\} = 1, "
                       r"expected 0"),
    "column-field-off": (_column_field_off,
                         r"row 4 of T sums to 1, expected sum_i beta_i "
                         r"k'_i = 0"),
}


@pytest.mark.parametrize("tamper", sorted(COMBINATION_TAMPERS))
def test_tampered_combination_raises(monkeypatch, tamper):
    route, message = COMBINATION_TAMPERS[tamper]
    with pytest.raises(VerificationError, match=message):
        route(monkeypatch)


@pytest.mark.under_optimize("test_tampered_combination_raises")
def test_tampered_combination_raises_under_optimize(run_under_optimize):
    run_under_optimize(len(COMBINATION_TAMPERS))


# -- eigenspace bases: reference construction and corruption -------------------

DESK_UP_TO_135 = ["Q+(5,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)", "W(3,2)",
                  "W(3,3)", "W(5,2)", "H(3,4)"]


def reference_eigenspace_bases(sch):
    """The list-based construction: annihilate each unit vector e_g with d
    list matvecs, giving column g of the annihilator, and keep it if it is
    independent over Q (IntEchelon); g walks `column_order(n)`."""
    from polarcl.linalg import IntEchelon
    d, n = sch.d, sch.n
    bases = {0: [[1] * n]}
    for j in range(1, d + 1):
        others = [l for l in range(d + 1) if l != j]
        ech = IntEchelon(n)
        basis = []
        for g in column_order(n):
            w = annihilate(sch, [int(t == g) for t in range(n)], others)
            if any(w) and ech.add(w):
                basis.append(w)
            if ech.rank == sch.table.multiplicity(j):
                break
        bases[j] = basis
    return bases


@pytest.mark.parametrize("name", DESK_UP_TO_135)
def test_eigenspace_bases_match_reference(name):
    sch = ctx_of(name)
    assert sch.eigenspace_bases() == reference_eigenspace_bases(sch)


def test_column_order_is_a_golden_stride_permutation():
    phi = (1 + 5 ** 0.5) / 2
    for n in range(1, 2241):
        order = column_order(n)
        assert sorted(order) == list(range(n)), n
        c = order[1] if n > 1 else 1
        assert c >= round(n / phi) and all(
            gcd(b, n) > 1 for b in range(round(n / phi), c)), n


# columns `eigenspace_bases` reads over all j >= 1, in perfbench's
# DESK_SPACES order; each space's floor is n - 1 (V_0 is read off the
# all-ones vector), and the canonical order 0..n-1 read 1,676 in all
TRIED_COLUMNS = {"Q+(5,2)": 29, "Q+(7,2)": 280, "Q(4,2)": 16, "Q(6,2)": 137,
                 "Q-(5,2)": 49, "W(3,2)": 14, "W(3,3)": 45, "W(5,2)": 146,
                 "H(3,4)": 26, "H(4,4)": 298}


def test_columns_tried_on_the_desk_spaces(monkeypatch):
    from polarcl.scheme import SchemeContext
    distance_row, tried = SchemeContext._distance_row, []

    def counted(self, u):
        tried.append(u)
        return distance_row(self, u)
    monkeypatch.setattr(SchemeContext, "_distance_row", counted)
    for name, want in TRIED_COLUMNS.items():
        tried.clear()
        _fresh(name).eigenspace_bases()
        assert len(tried) == want, name


def test_annihilator_expansion_matches_matvecs():
    # column g of sum_i alpha_i A_i, read through the distances from g, is
    # the product of the other factors applied to e_g
    for name in ("W(3,2)", "Q(6,2)", "H(3,4)", "Q+(7,2)"):
        sch = ctx_of(name)
        for j in range(sch.d + 1):
            alpha = sch._annihilator(j)
            others = [l for l in range(sch.d + 1) if l != j]
            for g in (0, 1, sch.n - 1):
                unit = [int(t == g) for t in range(sch.n)]
                column = [alpha[i] for i in sch._distance_row(g)]
                assert column == annihilate(sch, unit, others)


@pytest.mark.parametrize("name", DESK_UP_TO_135 + ["Q+(7,2)", "H(4,4)",
                                                   "Q(6,3)", "W(5,3)"])
def test_annihilator_solve_matches_the_expansion(name):
    # P alpha = prod_{l != j} (P_{j,1} - P_{l,1}) e_j, solved exactly, gives
    # the coefficients of the product expanded with the intersection numbers
    sch = ctx_of(name)
    for j in range(sch.d + 1):
        assert sch._annihilator(j) == expanded_annihilator(sch, j), j


def _fresh(name):
    from polarcl.scheme import SchemeContext
    return SchemeContext(get_space_by_name(name))


def _entry_off_by_one(monkeypatch):
    # the first column the bases read gets one distance wrong
    from polarcl.scheme import SchemeContext
    distance_row = SchemeContext._distance_row
    calls = []

    def corrupt(self, u):
        row = bytearray(distance_row(self, u))
        if not calls:
            row[5] = (row[5] + 1) % (self.d + 1)
        calls.append(u)
        return bytes(row)
    monkeypatch.setattr(SchemeContext, "_distance_row", corrupt)
    _fresh("Q(6,2)").eigenspace_bases()


def _alpha_off_by_one(monkeypatch):
    from polarcl.scheme import SchemeContext
    annihilator = SchemeContext._annihilator

    def corrupt(self, j):
        alpha = annihilator(self, j)
        alpha[self.d] += 1
        return alpha
    monkeypatch.setattr(SchemeContext, "_annihilator", corrupt)
    _fresh("Q(6,2)").eigenspace_bases()


def _small_prime(monkeypatch):
    import polarcl.linalg as linalg
    monkeypatch.setattr(linalg, "PRIME", 5)  # divides a factor of the annihilator
    _fresh("W(3,2)").eigenspace_bases()


def _dims_short(monkeypatch):
    sch = _fresh("Q(6,2)")
    multiplicity = sch.table.multiplicity
    monkeypatch.setattr(sch.table, "multiplicity",
                        lambda j: multiplicity(j) - (j == 2))
    sch.eigenspace_bases()


BASIS_CORRUPTIONS = {
    "dims-short": (_dims_short,
                   r"eigenspace dimensions sum to 134, expected 135"),
    "entry-off-by-one": (_entry_off_by_one, r"basis vector 0 of V_1 fails"),
    "alpha-off-by-one": (_alpha_off_by_one, r"fails the A_1 eigencheck"),
    "rank-short-mod-p": (_small_prime,
                         r"rank 1 modulo p = 5, expected the multiplicity 9"),
}


@pytest.mark.parametrize("corruption", sorted(BASIS_CORRUPTIONS))
def test_corrupted_bases_raise(monkeypatch, corruption):
    route, message = BASIS_CORRUPTIONS[corruption]
    with pytest.raises(SchemeError, match=message):
        route(monkeypatch)


@pytest.mark.under_optimize("test_corrupted_bases_raise")
def test_corrupted_bases_raise_under_optimize(run_under_optimize):
    run_under_optimize(len(BASIS_CORRUPTIONS))


# -- relations and B^t B against the pair-loop references ---------------------

DESK_SPACES = ["Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)", "W(3,2)",
               "W(3,3)", "W(5,2)", "H(3,4)", "H(4,4)"]


@pytest.mark.parametrize("name", DESK_SPACES + ["Q(6,3)", "W(5,3)"])
def test_relations_match_the_pair_loop(name):
    sch = ctx_of(name)
    assert sch.A == reference_relations(sch.space)


def test_btb_rows_match_the_pair_loop():
    for name in ("Q(6,2)", "W(5,2)"):
        sch = ctx_of(name)
        assert sch.verify_BtB() is None and reference_btb(sch) is None


def _closed_bc(sch):
    """b_0..b_d and c_0..c_d from the certificate's parameters."""
    params, _ = ctx_of(sch.space.name()).verify_distance_regularity()
    return params["b"] + [0], [0] + params["c"]


def test_pair_walks_report_the_first_failing_pair():
    # move one generator from A_1[7] to A_2[7] and one back, symmetrically:
    # the certificate names the entry that a walk over a distance table
    # does, and the p^k_ij walk fails too
    from polarcl.counting import intersection_numbers
    sch = _fresh("Q(6,2)")
    A, g = sch.A, 7
    h1, h2 = (next(_bits(A[i][g] >> 20 << 20)) for i in (1, 2))
    for x, y, i in ((g, h1, 1), (h1, g, 1), (g, h2, 2), (h2, g, 2)):
        A[i][x] ^= 1 << y
        A[3 - i][x] ^= 1 << y
    got, witness = sch.verify_distance_regularity()
    assert got is None and witness is not None
    assert witness == reference_algebra_witness(sch, *_closed_bc(sch))
    assert sch.verify_intersection_numbers() == witness
    assert reference_intersection_witness(
        sch, intersection_numbers(3, 1, 2)) is not None


@pytest.mark.parametrize("name", DESK_SPACES)
def test_distance_rows_are_kept_only_after_a_pass(name):
    # the pair (0, h) moved from A_2 to A_1 both ways: the algebra fails
    # and keeps no rows, so once the pair is back the pass rebuilds them
    # from the mended relations, and the kept rows are the distances
    sch = _fresh(name)
    h = (sch.A[2][0] & -sch.A[2][0]).bit_length() - 1

    def move():
        for x, y in ((0, h), (h, 0)):
            sch.A[2][x] ^= 1 << y
            sch.A[1][x] ^= 1 << y
    move()
    assert sch.verify_distance_regularity()[1] is not None
    assert sch._rows is None
    move()
    assert sch.verify_distance_regularity()[1] is None
    assert sch._rows == [bytes(row) for row in _distance_table(sch)]
    assert [sch._distance_row(u) for u in range(sch.n)] == sch._rows


def test_matvec_matches_the_reference_on_random_masks():
    # signed entries, some beyond 2^64, on empty, full, sparse, even and
    # dense masks
    rng = random.Random(7)
    for name in ("W(3,2)", "Q-(5,2)", "Q(6,2)"):
        sch = ctx_of(name)
        n, bits = sch.n, rng.getrandbits
        masks = [0, (1 << n) - 1] + [f(bits(n), bits(n)) for _ in range(15)
                                     for f in (int.__and__, int.__or__,
                                               lambda a, b: a)]
        for bound in (3, 2 ** 70):
            v = [rng.randrange(-bound, bound + 1) for _ in range(n)]
            assert sch.matvec_mask(masks, v) == reference_matvec(masks, v)


@pytest.mark.parametrize("name", DESK_SPACES)
def test_matvec_matches_the_reference_on_the_bases(name):
    # A_1 and K applied to the first two and the last basis vector of
    # every V_j, each an eigenvector of both
    sch = ctx_of(name)
    for j, basis in sch.eigenspace_bases().items():
        for w in basis[:2] + basis[-1:]:
            for masks, i in ((sch.A[1], 1), (sch.K, sch.d)):
                got = sch.matvec_mask(masks, w)
                assert got == reference_matvec(masks, w)
                assert got == [sch.P[j][i] * x for x in w]


def test_btb_fires_at_an_odd_distance():
    # add to the class B[0] a generator v adjacent to its least member x:
    # the first row off is x, at the odd distance 1, where B^t B must be 0
    sch = _fresh("Q(6,2)")
    B = list(sch.build_B())
    x = (B[0] & -B[0]).bit_length() - 1
    v = next(_bits(sch.A[1][x] & ~B[0] & -(2 << x)))  # v > x, v not in B[0]
    B[0] |= 1 << v
    sch._B = B
    assert sch.verify_BtB() == (x, v, 1, 1, 0) == reference_btb(sch)


def test_regularity_fires_on_b_alone(monkeypatch):
    # b_1 one too large and every c_i right: E_1 = c_1 + a_1 B + b_1 B^2
    # moves, a_1 = k - b_1 - c_1 with it, so the first field at distance 1
    # from generator 0 is off in its digit 1
    import polarcl.scheme as scheme
    sch = _fresh("Q(6,2)")
    b, c = _closed_bc(sch)
    b[1] += 1
    monkeypatch.setattr(scheme, "parameter_b", lambda d, e, q, i: b[i])
    got, witness = sch.verify_distance_regularity()
    v = (sch.A[1][0] & -sch.A[1][0]).bit_length() - 1
    assert got is None and witness == (0, v, 1, 1, 0)  # a_1 = 14 - 12 - 1
    assert witness == reference_algebra_witness(sch, b, c)


def _tampered_b_row():
    sch = _fresh("Q(6,2)")
    B = list(sch.build_B())
    outside = ~B[3] & ((1 << sch.n) - 1)
    B[3] |= outside & -outside
    sch._B = B
    witness = sch.verify_BtB()
    if witness != reference_btb(sch):
        raise AssertionError(f"{witness} against {reference_btb(sch)}")
    if witness is not None:
        raise VerificationError(f"B^t B fails at {witness}")


def _algebra_fails(sch, b, c):
    """Raise with the certificate's witness, once the distance-table
    reference names the same one."""
    _, witness = sch.verify_distance_regularity()
    if witness != reference_algebra_witness(sch, b, c):
        raise AssertionError(f"{witness} against the reference")
    if witness is not None:
        raise VerificationError(f"the algebra certificate fails at {witness}")


def _e_coefficient_off(monkeypatch):
    # c_2 + 1 moves E_2 = c_2 B + a_2 B^2 + b_2 B^3 in its digits 1 and 2
    import polarcl.scheme as scheme
    sch = _fresh("Q(6,2)")
    b, c = _closed_bc(sch)
    c[2] += 1
    monkeypatch.setattr(scheme, "parameter_c", lambda d, e, q, i: c[i])
    _algebra_fails(sch, b, c)


def _moved(sch, h, i, j):
    """Move the pair (0, h) from A_i to A_j, both ways, so the relations
    still partition Omega."""
    for x, y in ((0, h), (h, 0)):
        sch.A[i][x] ^= 1 << y
        sch.A[j][x] ^= 1 << y
    _algebra_fails(sch, *_closed_bc(sch))


def _a1_bit_flipped(monkeypatch):
    # A_1[0] gains a generator at distance 2: its row has k + 1 members,
    # so B = k + 2 keeps digit 1 of field 0 from carrying
    sch = _fresh("Q(6,2)")
    _moved(sch, (sch.A[2][0] & -sch.A[2][0]).bit_length() - 1, 2, 1)


def _a0_entry_off(monkeypatch):
    # A_0[0] gains a neighbour of generator 0
    sch = _fresh("Q(6,2)")
    _moved(sch, (sch.A[1][0] & -sch.A[1][0]).bit_length() - 1, 1, 0)


def _p_prime_entry_off(monkeypatch):
    # P'_{1,1} = P_{1,2} on a class of Q+(7,2) one too large
    sch = _fresh("Q+(7,2)")
    sch.P[1][2] += 1
    sch.universe("latin")


def _tampered_point_row(monkeypatch):
    from polarcl.enumeration import PolarSpace
    sp = get_space_by_name("Q(6,2)")
    rows = list(sp.point_gen_masks())
    outside = ~rows[0] & ((1 << sp.n_generators) - 1)
    rows[0] |= outside & -outside
    monkeypatch.setattr(PolarSpace, "point_gen_masks", lambda self: rows)
    _fresh("Q(6,2)")


RELATION_CORRUPTIONS = {
    "a0-entry": (_a0_entry_off,
                 r"the algebra certificate fails at \(0, 1, None, 1, 0\)"),
    "a1-bit": (_a1_bit_flipped,
               r"the algebra certificate fails at \(0, 0, 1, 15, 14\)"),
    "b-row": (lambda mp: _tampered_b_row(), r"B\^t B fails at \(0, 0, 0, 9, 8\)"),
    "e-coefficient": (_e_coefficient_off,
                      r"the algebra certificate fails at \(0, \d+, 1, 3, 4\)"),
    "p-prime-entry": (_p_prime_entry_off,
                      r"P' of Q\+\(7,2\) latin: P_\{1,1\} "
                      r"P_\{1,1\} = 64, expected sum_k p\^k_\{1,1\}"),
    "point-row": (_tampered_point_row,
                  r"shares a subspace's point count with \d+ generators, "
                  r"expected all 135"),
}


@pytest.mark.parametrize("corruption", sorted(RELATION_CORRUPTIONS))
def test_tampered_incidence_fails_the_counts(monkeypatch, corruption):
    route, message = RELATION_CORRUPTIONS[corruption]
    with pytest.raises(VerificationError, match=message):
        route(monkeypatch)


@pytest.mark.under_optimize("test_tampered_incidence_fails_the_counts")
def test_tampered_incidence_fails_under_optimize(run_under_optimize):
    run_under_optimize(len(RELATION_CORRUPTIONS))
