"""Closed-form counts, eigenvalue tables, and the two-generator formulas."""

from fractions import Fraction
from itertools import product

import pytest

from polarcl.counting import (CountingError, EigenvalueTable, binom2,
                              class_disjoint_to_two, degree_k,
                              eigenvalue, eigenvalue_disjointness,
                              gaussian_binomial, intersection_numbers,
                              kms_disjoint_to_two, num_generators,
                              num_kspaces, num_kspaces_through_mspace,
                              num_points, parameter_b, parameter_c,
                              pencil_size, qpow, regular_system_size)
from polarcl.geometry import descriptor_from_name

from reference import (min_eigenvalue_spaces, num_disjoint_from_generator,
                       q_binomial_theorem_check)


def brute_count_subspaces(n, k, q):
    """Independent oracle: count k-dim subspaces of GF(q)^n by enumerating
    reduced echelon matrices pivot pattern by pivot pattern."""
    from itertools import combinations
    total = 0
    for pivots in combinations(range(n), k):
        free = sum(1 for r in range(k) for c in range(n)
                   if c not in pivots and c > pivots[r])
        total += q ** free
    return total


def test_gaussian_binomial_against_brute_force():
    assert brute_count_subspaces(4, 2, 2) == 35
    for n in range(6):
        for k in range(n + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(n, k, q) == brute_count_subspaces(n, k, q)


def test_gaussian_binomial_conventions():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7  # duality
    assert gaussian_binomial(3, -1, 2) == 0
    assert gaussian_binomial(3, 4, 2) == 0


def test_generalized_binom2():
    assert binom2(-1) == 1
    assert binom2(0) == 0
    assert binom2(1) == 0
    assert binom2(2) == 1
    assert binom2(4) == 6


def test_q_binomial_theorem():
    assert q_binomial_theorem_check(0, 5, 7)
    # both sides (1+1)(1+2)(1+4) = 30
    assert q_binomial_theorem_check(3, 2, 1)
    # factor 1 + q^0 (-1) = 0
    assert q_binomial_theorem_check(2, 3, -1)
    for n, q in product(range(6), (2, 3, 4)):
        for t in (1, -1, 2, Fraction(3, 2), Fraction(-1, 7)):
            assert q_binomial_theorem_check(n, q, t)


def test_qpow_requires_square_for_half_exponents():
    assert qpow(4, Fraction(1, 2)) == 2
    assert qpow(4, Fraction(-3, 2)) == Fraction(1, 8)
    with pytest.raises(CountingError):
        qpow(2, Fraction(1, 2))


SPACE_COUNTS = {
    # name -> (generators, points)
    "Q+(5,2)": (30, 35), "Q+(7,2)": (270, 135), "Q(4,2)": (15, 15),
    "Q(6,2)": (135, 63), "Q-(5,2)": (45, 27), "W(3,2)": (15, 15),
    "W(3,3)": (40, 40), "W(5,2)": (135, 63), "H(3,4)": (27, 45),
    "H(4,4)": (297, 165),
}


def test_space_counts():
    for name, (gens, pts) in SPACE_COUNTS.items():
        d = descriptor_from_name(name)
        assert num_generators(d.rank, d.e, d.q) == gens
        assert num_points(d.rank, d.e, d.q) == pts
        assert num_kspaces(d.rank, d.e, d.q, d.rank - 1) == gens
        assert num_kspaces(d.rank, d.e, d.q, 0) == pts


def test_through_mspace_specialisations():
    for name in SPACE_COUNTS:
        d = descriptor_from_name(name)
        # generators through a point = pencil size
        assert num_kspaces_through_mspace(
            d.rank, d.e, d.q, d.rank - 1, 0) == pencil_size(d.rank, d.e, d.q)
        if d.rank >= 2:
            # generators through a (d-2)-space: q^e + 1 by definition of e
            thru = num_kspaces_through_mspace(
                d.rank, d.e, d.q, d.rank - 1, d.rank - 2)
            assert Fraction(thru) == qpow(d.q, d.e) + 1


def test_distance_regular_parameters():
    assert parameter_b(2, 1, 2, 0) == 6          # W(3,2) degree
    assert parameter_b(3, 1, 2, 0) == 14         # Q(6,2)
    assert parameter_c(3, 1, 2, 3) == 7
    assert parameter_b(2, 2, 2, 0) == 12         # Q-(5,2)
    assert parameter_c(2, 1, 2, 1) == 1
    for name in SPACE_COUNTS:
        d = descriptor_from_name(name)
        total = sum(degree_k(d.rank, d.e, d.q, i) for i in range(d.rank + 1))
        assert total == num_generators(d.rank, d.e, d.q)


def test_eigenvalue_table_w32():
    T = EigenvalueTable(2, 1, 2)
    assert T.P == [[1, 6, 8], [1, 1, -2], [1, -3, 2]]
    assert [T.multiplicity(j) for j in range(3)] == [1, 9, 5]
    # P_{1,2} = -t for the generalised quadrangle of order (2,2)
    assert T.P[1][2] == -2


def test_eigenvalue_closed_form_gamma_d():
    for name in SPACE_COUNTS:
        d = descriptor_from_name(name)
        for j in range(d.rank + 1):
            assert eigenvalue(j, d.rank, d.rank, d.e, d.q) == \
                eigenvalue_disjointness(j, d.rank, d.e, d.q)
        # P_{0,d} equals the skew-generator count
        assert eigenvalue(0, d.rank, d.rank, d.e, d.q) == \
            num_disjoint_from_generator(d.rank, d.e, d.q)


def test_eigenvalue_qplus52():
    # P_{1,3} on Q+(5,2): (-1) q^{C(3,2)+2(0-1)} = -2
    assert eigenvalue(1, 3, 3, 0, 2) == -2


def test_eigenvalues_distinct_in_column_one():
    for name in SPACE_COUNTS:
        d = descriptor_from_name(name)
        T = EigenvalueTable(d.rank, d.e, d.q)  # construction asserts it
        col = [row[1] for row in T.P]
        assert len(set(col)) == len(col)


def test_multiplicities_sum_to_generator_count():
    for name in SPACE_COUNTS:
        d = descriptor_from_name(name)
        T = EigenvalueTable(d.rank, d.e, d.q)
        assert sum(T.multiplicity(j) for j in range(d.rank + 1)) == \
            num_generators(d.rank, d.e, d.q)


def test_min_eigenvalue_spaces():
    assert min_eigenvalue_spaces(descriptor_from_name("Q+(7,2)")) == {1, 3}
    assert min_eigenvalue_spaces(descriptor_from_name("Q+(7,3)")) == {1, 3}
    assert min_eigenvalue_spaces(descriptor_from_name("Q(6,2)")) == {1, 3}
    assert min_eigenvalue_spaces(descriptor_from_name("W(5,2)")) == {1, 3}
    assert min_eigenvalue_spaces(descriptor_from_name("Q-(5,2)")) == {1}
    assert min_eigenvalue_spaces(descriptor_from_name("W(3,2)")) == {1}
    assert min_eigenvalue_spaces(descriptor_from_name("H(3,4)")) == {1}
    assert min_eigenvalue_spaces(descriptor_from_name("H(4,4)")) == {1}


def test_kms_formula_values():
    qp7 = descriptor_from_name("Q+(7,2)")
    assert kms_disjoint_to_two(qp7, -1) == 28
    assert kms_disjoint_to_two(qp7, 1) == 32
    h34 = descriptor_from_name("H(3,4)")
    # hand count in the GQ of order (4,2): lines disjoint from two disjoint
    # lines: 27 total - 2 - 5 meeting both - 2*5 meeting exactly one = 10
    assert kms_disjoint_to_two(h34, -1) == 10
    # disjoint from two meeting lines: 16 disjoint from the first, minus
    # 4 points x 2 further lines meeting the second = 8
    assert kms_disjoint_to_two(h34, 0) == 8
    with pytest.raises(CountingError):
        kms_disjoint_to_two(qp7, 0)  # wrong parity
    with pytest.raises(CountingError):
        kms_disjoint_to_two(descriptor_from_name("W(3,2)"), -1)


def test_class_disjoint_to_two_full_class():
    # one class of Q+(7,2), x = 9: (9-1-1) * 2^{2*1} * (empty product) = 28
    assert class_disjoint_to_two(2, 2, 9, 1, 1) == 28
    assert class_disjoint_to_two(2, 2, 1, 0, 0) == 4


def test_intersection_numbers_structure():
    p = intersection_numbers(2, 1, 2)
    assert p[1][1] == [6, 1, 3]
    for d, e, q in ((2, 1, 2), (3, 0, 2), (4, 0, 2), (2, 2, 2)):
        p = intersection_numbers(d, e, q)
        for i in range(d + 1):
            for k in range(d + 1):
                assert sum(p[i][j][k] for j in range(d + 1)) == degree_k(d, e, q, i)
            # symmetry p^k_{ij} count consistency: k_k p^k_{ij} = k_i p^i_{kj}
        for i in range(d + 1):
            for j in range(d + 1):
                for k in range(d + 1):
                    assert degree_k(d, e, q, k) * p[i][j][k] == \
                        degree_k(d, e, q, i) * p[k][j][i]


# -- exact checks that raise, also under python -O ------------------------------

HALF = Fraction(1, 2)  # a non-integral q makes the integrality checks fire


def _patched(monkeypatch, name, fn):
    import polarcl.counting as counting
    monkeypatch.setattr(counting, name, fn)


def _wrong_c(mp):
    orig = parameter_c
    _patched(mp, "parameter_c", lambda d, e, q, i: orig(d, e, q, i) + (i == 2))
    return intersection_numbers(3, 0, 2)


def _wrong_degree_division(mp):
    _patched(mp, "parameter_c", lambda d, e, q, i: 4)
    return degree_k(2, 1, 2, 1)  # b_0 = 6 over c_1 = 4


def _wrong_disjointness(mp):
    _patched(mp, "eigenvalue_disjointness", lambda j, d, e, q: 0)
    return EigenvalueTable(2, 1, 2)


def _wrong_degree(mp):
    _patched(mp, "degree_k", lambda d, e, q, i: 1)
    return EigenvalueTable(2, 1, 2)


def _wrong_column_two(mp):
    # P_{1,2} of Q+(7,2) lies outside column 1, row 0 and column d = 4
    orig = eigenvalue
    _patched(mp, "eigenvalue",
             lambda j, i, d, e, q: orig(j, i, d, e, q) + ((j, i) == (1, 2)))
    return EigenvalueTable(4, 0, 2)


def _wrong_multiplicity(mp):
    # m_1 of W(3,2) one too large: sum_j m_j P_{j,0}^2 reads n + 1
    import polarcl.counting as counting
    orig = counting.multiplicity
    _patched(mp, "multiplicity", lambda P, j, n: orig(P, j, n) + (j == 1))
    return EigenvalueTable(2, 1, 2)


def _wrong_generator_count(mp):
    table = EigenvalueTable(2, 1, 2)
    _patched(mp, "num_generators", lambda d, e, q: 16)  # W(3,2) has 15
    return table.multiplicity(1)


def _min_value_everywhere(mp):
    _patched(mp, "eigenvalue_disjointness", lambda j, d, e, q: -2)
    return min_eigenvalue_spaces(descriptor_from_name("W(3,2)"))


COUNT_CHECKS = {
    "gaussian-binomial": lambda mp: gaussian_binomial(2, 1, Fraction(3, 2)),
    "num-kspaces": lambda mp: num_kspaces(1, 1, HALF, 0),
    "num-generators": lambda mp: num_generators(1, 1, HALF),
    "num-points": lambda mp: num_points(1, 1, HALF),
    "through-mspace": lambda mp: num_kspaces_through_mspace(2, 1, HALF, 1, 0),
    "pencil-size": lambda mp: pencil_size(2, 1, HALF),
    "regular-system-size": lambda mp: regular_system_size(1, 1, HALF, 1),
    "degree-division": _wrong_degree_division,
    "table-degrees": _wrong_degree,
    "table-disjointness": _wrong_disjointness,
    "table-column-2": _wrong_column_two,
    "table-orthogonality": _wrong_multiplicity,
    "multiplicity": _wrong_generator_count,
    "min-eigenvalue-spaces": _min_value_everywhere,
    "intersection-numbers": _wrong_c,
}


@pytest.mark.parametrize("route", sorted(COUNT_CHECKS))
def test_count_checks_raise(monkeypatch, route):
    with pytest.raises(CountingError, match=r"expected"):
        COUNT_CHECKS[route](monkeypatch)


def test_character_check_names_the_entry(monkeypatch):
    # P_{1,1}^2 = 36, while k_1 + a_1 P_{1,1} + c_2 P_{1,2} reads c_2 = 3
    # more than that once P_{1,2} is one off
    with pytest.raises(CountingError, match=(
            r"P_\{1,1\} P_\{1,1\} = 36, expected "
            r"sum_k p\^k_\{1,1\} P_\{1,k\} = 39")):
        _wrong_column_two(monkeypatch)


def test_orthogonality_names_the_entry(monkeypatch):
    with pytest.raises(CountingError, match=(
            r"sum_j m_j P_\{j,0\} P_\{j,0\} = 16, expected "
            r"n k_0 delta_\{0,0\} = 15")):
        _wrong_multiplicity(monkeypatch)


@pytest.mark.under_optimize("test_count_checks_raise")
def test_count_checks_raise_under_optimize(run_under_optimize):
    run_under_optimize(len(COUNT_CHECKS))
