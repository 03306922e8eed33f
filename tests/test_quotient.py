"""Quotient matrix validation, cell sizes, spectra, feasibility."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from eqcube.exact_linalg import exact_quotient
from eqcube.oracle import singleton_partition, verify_equitable
from eqcube.quotient import (MAX_DIMENSION, InvalidQuotient, QuotientError,
                             QuotientMatrix, SizesUndetermined, cell_sizes,
                             char_poly, feasibility_conditions, matrix_rows,
                             min_poly, spectrum_check, validate_quotient)
from eqcube.recursion import build_table
from eqcube.screen import certify

S22 = [[0, 22, 0], [5, 6, 11], [0, 10, 12]]


def test_validate_accepts_known_matrices():
    assert validate_quotient([[0, 3], [1, 2]], 3).m == 2
    assert validate_quotient(S22, 22).m == 3
    assert validate_quotient([[4]], 4).rows == ((4,),)


def test_validate_rejects_bad_row_sum():
    with pytest.raises(InvalidQuotient, match="row 2"):
        validate_quotient([[1, 2], [1, 1]], 3)


def test_validate_rejects_support_asymmetry():
    # S_23 > 0 while S_32 = 0 contradicts reversibility
    with pytest.raises(InvalidQuotient, match=r"pair \(2,3\)"):
        validate_quotient([[2, 1, 0], [1, 1, 1], [0, 0, 3]], 3)


def test_validate_rejects_shape_and_sign_problems():
    with pytest.raises(InvalidQuotient):
        validate_quotient([[0, 3], [1, 2], [1, 2]], 3)
    with pytest.raises(InvalidQuotient):
        validate_quotient([[0, 3], [-1, 4]], 3)


# a float n would give float cell sizes; a bool is no dimension either
@pytest.mark.parametrize("S, n", [([[0, 3], [1, 2]], 3.0),
                                  ([[0, 1], [1, 0]], True),
                                  ([[0, 3], [1, 2]], "3")])
def test_validate_refuses_a_dimension_that_is_not_an_int(S, n):
    with pytest.raises(ValueError, match=f"not an integer: {n!r}"):
        validate_quotient(S, n)


def test_validate_refuses_a_negative_dimension():
    with pytest.raises(ValueError, match="negative dimension n = -3"):
        validate_quotient([[0]], -3)


def test_a_negative_dimension_is_refused_without_naming_the_command_line():
    # the CLI adds its own --n hint; the library speaks of n alone
    with pytest.raises(ValueError) as info:
        validate_quotient([[0]], -3)
    assert str(info.value) == "negative dimension n = -3"


def test_validate_refuses_a_dimension_above_the_bound():
    # n-bit cell sizes and n + 1 eigenvalues to try: a larger n is
    # unusable input, so certify gives it no verdict
    n = MAX_DIMENSION
    assert validate_quotient([[0, n], [n, 0]], n).n == n
    for refuse in (lambda: validate_quotient([[0, n + 1], [n + 1, 0]], n + 1),
                   lambda: certify([[n + 1]], n + 1, max_level=0)):
        with pytest.raises(ValueError,
                           match=f"n must be at most {n}, got {n + 1}") as info:
            refuse()
        assert not isinstance(info.value, InvalidQuotient)


def test_validate_rejects_a_matrix_without_rows():
    with pytest.raises(InvalidQuotient, match="matrix has no rows"):
        validate_quotient([], 3)


def test_a_hand_built_matrix_is_checked_and_converted():
    # rows summing to 3 on the 2-cube used to be stored as given, and a
    # partition search on them listed colourings of another quotient
    with pytest.raises(InvalidQuotient,
                       match="row 1 sums to 3, expected n = 2"):
        QuotientMatrix(n=2, rows=((1, 2), (2, 1)))
    # list rows used to be stored as lists, which build_table could not
    # hash
    Q = QuotientMatrix(3, [[0, 3], [1, 2]])
    assert Q == validate_quotient([[0, 3], [1, 2]], 3)
    assert Q.rows == ((0, 3), (1, 2))
    assert build_table(Q).entries[(0, 0, 1)].entries == (0, 6, 0, 0,
                                                         0, 0, 6, 12)


@pytest.mark.parametrize("n, S", [
    (3.0, [[0, 3], [1, 2]]), (True, [[1]]), (-1, [[0]]),
    (MAX_DIMENSION + 1, [[MAX_DIMENSION + 1]]), (3, []), (3, [[0, 3], [1]]),
    (3, [[0, 3.0], [1, 2]]), (3, [[0, 3], [True, 2]]), (3, [[0, 3], [-1, 4]]),
    (3, [[1, 2], [1, 1]]), (3, [[2, 1, 0], [1, 1, 1], [0, 0, 3]])])
def test_the_constructor_refuses_what_validate_quotient_refuses(n, S):
    with pytest.raises(ValueError) as parsed:
        validate_quotient(S, n)
    with pytest.raises(ValueError) as by_hand:
        QuotientMatrix(n, S)
    assert (type(by_hand.value), str(by_hand.value)) == (
        type(parsed.value), str(parsed.value))


def test_cell_sizes_examples():
    assert cell_sizes(validate_quotient([[0, 3], [1, 2]], 3)) == (2, 6)
    assert cell_sizes(validate_quotient([[0, 5], [3, 2]], 5)) == (12, 20)
    assert cell_sizes(validate_quotient([[2]], 2)) == (4,)
    assert cell_sizes(validate_quotient(S22, 22)) == (409600, 1802240, 1982464)


def test_cell_sizes_can_be_fractional():
    sizes = cell_sizes(validate_quotient([[0, 3], [2, 1]], 3))
    assert sizes == (Fraction(16, 5), Fraction(24, 5))


def test_cell_sizes_need_connected_support():
    with pytest.raises(SizesUndetermined):
        cell_sizes(validate_quotient([[2, 0], [0, 2]], 2))


def test_cell_sizes_satisfy_reversibility_and_total():
    for S, n in [([[0, 3], [1, 2]], 3), ([[0, 5], [3, 2]], 5), (S22, 22),
                 ([[0, 3], [2, 1]], 3)]:
        Q = validate_quotient(S, n)
        p = cell_sizes(Q)
        assert sum(p) == 2 ** n
        for i in range(Q.m):
            for j in range(Q.m):
                assert p[i] * S[i][j] == p[j] * S[j][i]


def test_char_poly_on_two_by_two():
    # det(xI - S) for [[0,3],[1,2]] is x^2 - 2x - 3
    assert char_poly([[0, 3], [1, 2]]) == (1, -2, -3)
    assert char_poly([[0, 2], [1, 1]]) == (1, -1, -2)


def test_min_poly_on_two_by_two():
    # distinct eigenvalues 3 and -1: the minimal polynomial is det(xI - S)
    assert min_poly([[0, 3], [1, 2]]) == (1, -2, -3)


def test_min_poly_of_singleton_cube_has_degree_four():
    # the 8 x 8 adjacency of the 3-cube has only the eigenvalues +-3, +-1
    Q = verify_equitable(singleton_partition(3))
    assert Q.m == 8
    assert min_poly(Q.rows) == (1, 0, -10, 0, 9)  # (x^2 - 9)(x^2 - 1)


def test_min_poly_of_non_diagonalizable_matrix():
    # a valid quotient shape whose eigenvalue -1 has a 2 x 2 Jordan block:
    # the minimal polynomial keeps the square, (x - 3)(x + 1)^2
    Q = validate_quotient([[0, 1, 2], [1, 1, 1], [1, 2, 0]], 3)
    assert min_poly(Q.rows) == (1, -1, -5, -3) == char_poly(Q.rows)


def _fraction_min_poly(rows):
    """The Krylov search of min_poly on Fraction vectors: the reference."""
    m = len(rows)
    power = [[int(i == j) for j in range(m)] for i in range(m)]
    basis = []
    for k in range(m + 1):
        vec = [Fraction(v) for row in power for v in row]
        comb = [Fraction(int(i == k)) for i in range(m + 1)]
        for pivot, bvec, bcomb in basis:
            f = vec[pivot] / bvec[pivot]
            if f:
                vec = [u - f * w for u, w in zip(vec, bvec)]
                comb = [u - f * w for u, w in zip(comb, bcomb)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            assert all(c.denominator == 1 for c in comb)
            return tuple(int(c) for c in reversed(comb[:k + 1]))
        basis.append((pivot, vec, comb))
        power = [[sum(power[i][t] * rows[t][j] for t in range(m))
                  for j in range(m)] for i in range(m)]
    raise AssertionError("no dependence among I, A, ..., A^m")


def _conjugated(rng, B):
    """U B U^-1 for a random unimodular integer U: an integer matrix with
    the Jordan structure of B."""
    m = len(B)
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [row[:] for row in U]  # U^-1
    for _ in range(2 * m):
        if m < 2:
            break
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        # U <- (I + c e_i e_j^T) U and V <- V (I - c e_i e_j^T)
        U[i] = [u + c * w for u, w in zip(U[i], U[j])]
        for row in V:
            row[j] -= c * row[i]

    def mul(P, R):
        return [[sum(P[a][t] * R[t][b] for t in range(m)) for b in range(m)]
                for a in range(m)]
    return mul(mul(U, B), V)


def _jordan(blocks):
    """Block-diagonal matrix of Jordan blocks (eigenvalue, size)."""
    m = sum(size for _, size in blocks)
    J = [[0] * m for _ in range(m)]
    at = 0
    for value, size in blocks:
        for t in range(size):
            J[at + t][at + t] = value
            if t + 1 < size:
                J[at + t][at + t + 1] = 1
        at += size
    return J


def test_min_poly_matches_the_fraction_krylov_search_on_seeded_matrices():
    rng = random.Random(2013)
    cases = [[[0] * m for _ in range(m)] for m in range(1, 9)]
    cases += [[[c]] for c in (-3, 0, 5)]
    cases += [_jordan([(2, 3)]), _jordan([(-1, 2), (-1, 2), (3, 1)]),
              _jordan([(0, 4), (0, 1)]), _jordan([(1, 1)] * 6)]
    for _ in range(60):
        m = rng.randint(1, 8)
        cases.append([[rng.randint(-3, 3) for _ in range(m)]
                      for _ in range(m)])
        # repeated eigenvalues and Jordan blocks, hidden by a change of basis
        blocks, left = [], rng.randint(1, 8)
        while left:
            size = rng.randint(1, left)
            blocks.append((rng.randint(-2, 2), size))
            left -= size
        cases.append(_conjugated(rng, _jordan(blocks)))
    for rows in cases:
        assert min_poly(rows) == _fraction_min_poly(rows), rows
    # the zero matrix, a 1 x 1, and a single 3 x 3 Jordan block at 2
    assert min_poly([[0] * 5] * 5) == (1, 0)
    assert min_poly([[5]]) == (1, -5)
    assert min_poly(_conjugated(rng, _jordan([(2, 3)]))) == (1, -6, 12, -8)


def test_spectrum_check_splits_over_cube_eigenvalues():
    rep = spectrum_check(validate_quotient([[0, 3], [1, 2]], 3))
    assert rep.splits
    assert rep.eigenvalues == (3, -1)

    rep22 = spectrum_check(validate_quotient(S22, 22))
    assert rep22.splits
    assert rep22.eigenvalues == (22, 6, -10)


def test_spectrum_check_failure_leaves_residual():
    # eigenvalues of [[0,2],[1,1]] are 2 and -1; -1 is not of the form
    # 2 - 2w for w in 0..2, so division stops with x + 1 left over
    rep = spectrum_check(validate_quotient([[0, 2], [1, 1]], 2))
    assert not rep.splits
    assert rep.residual == (1, 1)
    assert rep.eigenvalues == (2,)


def test_spectrum_top_eigenvalue_is_n_when_it_splits():
    for S, n in [([[0, 3], [1, 2]], 3), (S22, 22), ([[2, 2], [2, 2]], 4),
                 ([[0, 4], [4, 0]], 4)]:
        rep = spectrum_check(validate_quotient(S, n))
        assert rep.splits and rep.eigenvalues[0] == n


def test_feasibility_candidate_example():
    rep = feasibility_conditions(validate_quotient([[0, 3], [1, 2]], 3))
    assert rep.divisibility_ok is True
    assert rep.ci_bound_ok is True
    assert rep.verdict == "candidate"
    assert rep.failures == ()


def test_feasibility_rejects_ci_bound():
    # c - a = 3 exceeds n/3 = 5/3
    rep = feasibility_conditions(validate_quotient([[0, 5], [3, 2]], 5))
    assert rep.divisibility_ok is True
    assert rep.ci_bound_ok is False
    assert rep.verdict == "rejected"


def test_feasibility_ci_bound_orients_larger_offdiagonal_first():
    # same matrix with the two cells swapped must be rejected identically
    rep = feasibility_conditions(validate_quotient([[2, 3], [5, 0]], 5))
    assert rep.ci_bound_ok is False
    assert rep.verdict == "rejected"


def test_feasibility_equal_offdiagonals_skip_ci():
    rep = feasibility_conditions(validate_quotient([[2, 2], [2, 2]], 4))
    assert rep.ci_bound_ok is None
    assert rep.divisibility_ok is True
    assert rep.verdict == "candidate"


def test_feasibility_ci_boundary_is_allowed():
    # 3(c - a) = n exactly must pass, which forces exact arithmetic
    rep = feasibility_conditions(validate_quotient([[0, 6], [2, 4]], 6))
    assert rep.ci_bound_ok is True
    assert rep.verdict == "candidate"


def test_feasibility_flags_fractional_sizes():
    rep = feasibility_conditions(validate_quotient([[0, 3], [2, 1]], 3))
    assert rep.sizes_integral is False
    assert rep.verdict == "rejected"


def test_feasibility_flags_undetermined_sizes():
    rep = feasibility_conditions(validate_quotient([[2, 0], [0, 2]], 2))
    assert rep.sizes_connected is False
    assert rep.verdict == "rejected"


def test_feasibility_larger_matrices_skip_two_cell_predicates():
    rep = feasibility_conditions(validate_quotient(S22, 22))
    assert rep.divisibility_ok is None
    assert rep.ci_bound_ok is None
    assert rep.verdict == "candidate"


def test_22_cube_fails_the_triple_product_condition():
    # feasibility_conditions accepts the 22-cube matrix, but the
    # m-cell form of the correlation-immunity bound rejects it: x is an
    # eigenvector for -10 = n - 2w with w = 16, and 3w = 48 > 2n = 44
    # forces sum_i |C_i| x_i^3 = 0 for a real partition
    Q = validate_quotient(S22, 22)
    x = (Fraction(121, 25), Fraction(-11, 5), Fraction(1))
    Sx = tuple(sum(s * v for s, v in zip(row, x)) for row in Q.rows)
    assert Sx == tuple(-10 * v for v in x)
    total = sum(size * v ** 3 for size, v in zip(cell_sizes(Q), x))
    assert total == Fraction(18270388224, 625) != 0


def test_cell_sizes_are_ints_where_integral():
    sizes = cell_sizes(validate_quotient([[0, 3], [1, 2]], 3))
    assert sizes == (2, 6)
    assert all(type(s) is int for s in sizes)
    assert all(type(s) is int
               for s in cell_sizes(validate_quotient(S22, 22)))
    fifths = cell_sizes(validate_quotient([[0, 3], [2, 1]], 3))
    assert fifths == (Fraction(16, 5), Fraction(24, 5))
    assert all(type(s) is Fraction for s in fifths)


def _reference_cell_sizes(Q):
    """The Fraction propagation `cell_sizes` used before it decided in
    integers: the same traversal, ratios to cell 1 as Fractions."""
    m, S = Q.m, Q.rows
    ratio = [None] * m
    ratio[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(m):
            if i == j or S[i][j] == 0:
                continue
            forced = ratio[i] * Fraction(S[i][j], S[j][i])
            if ratio[j] is None:
                ratio[j] = forced
                stack.append(j)
            elif ratio[j] != forced:
                raise InvalidQuotient(
                    f"inconsistent size ratios around cells "
                    f"{i + 1} and {j + 1}: {ratio[j]} vs {forced}")
    if any(r is None for r in ratio):
        missing = [i + 1 for i, r in enumerate(ratio) if r is None]
        raise SizesUndetermined(
            f"support graph is disconnected; cells {missing} unreachable "
            f"from cell 1")
    total = sum(ratio)
    return tuple(exact_quotient(2 ** Q.n * r, total) for r in ratio)


def _random_quotient(rng, m, n, consistent):
    """Rows summing to n over a random symmetric support.  With
    `consistent`, S_ij = k c_j and S_ji = k c_i for weights c, so every
    cycle agrees (sizes proportional to c); otherwise the off-diagonal
    entries are free and most cycles contradict each other."""
    c = [rng.randint(1, 3) for _ in range(m)]
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.6:
                if consistent:
                    k = rng.randint(1, 2)
                    rows[i][j], rows[j][i] = k * c[j], k * c[i]
                else:
                    rows[i][j], rows[j][i] = rng.randint(1, 4), rng.randint(1, 4)
    if any(sum(row) > n for row in rows):
        return None
    for i in range(m):
        rows[i][i] = n - sum(rows[i])
    return validate_quotient(rows, n)


def test_cell_sizes_match_a_fraction_reference():
    # seeded matrices with m = 1..5 and n <= 12: tree, cyclic and
    # disconnected supports, cycles that agree and cycles that do not;
    # sizes must match in value and type, refusals in class and message
    rng = random.Random(20131)
    seen = Counter()
    for _ in range(3000):
        m, n = rng.randint(1, 5), rng.randint(1, 12)
        Q = _random_quotient(rng, m, n, consistent=rng.random() < 0.5)
        if Q is None:
            continue
        edges = sum(1 for i in range(m) for j in range(i + 1, m)
                    if Q.rows[i][j])
        try:
            want = _reference_cell_sizes(Q)
        except (InvalidQuotient, SizesUndetermined) as exc:
            with pytest.raises(type(exc)) as got:
                cell_sizes(Q)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            seen[type(exc).__name__] += 1
            continue
        got = cell_sizes(Q)
        assert got == want
        assert [type(s) for s in got] == [type(s) for s in want]
        seen["cyclic" if edges >= m else "tree"] += 1
        seen["fractional" if any(type(s) is Fraction for s in got)
             else "integral"] += 1
    assert min(seen[k] for k in ("InvalidQuotient", "SizesUndetermined",
                                 "cyclic", "tree", "fractional",
                                 "integral")) >= 20, seen


def test_cell_sizes_accept_a_consistent_cycle():
    # full support on three cells: the cycle 1-2-3 agrees and fixes
    # equal sizes
    sizes = cell_sizes(validate_quotient([[0, 2, 2], [2, 0, 2], [2, 2, 0]], 4))
    assert sizes == (Fraction(16, 3),) * 3
    assert all(type(s) is Fraction for s in sizes)
    # sizes in ratio 1 : 2 : 1 around the same full support
    sizes = cell_sizes(validate_quotient([[1, 2, 1], [1, 2, 1], [1, 2, 1]], 4))
    assert sizes == (4, 8, 4)
    assert all(type(s) is int for s in sizes)


INCONSISTENT3 = [[0, 1, 3], [2, 0, 2], [1, 3, 0]]


def test_inconsistent_cycle_message_is_pinned():
    Q = validate_quotient(INCONSISTENT3, 4)
    with pytest.raises(InvalidQuotient) as exc:
        cell_sizes(Q)
    assert str(exc.value) == ("inconsistent size ratios around cells 3 "
                              "and 2: 1/2 vs 9/2")
    with pytest.raises(InvalidQuotient) as exc:
        feasibility_conditions(Q)
    assert str(exc.value) == ("inconsistent size ratios around cells 3 "
                              "and 2: 1/2 vs 9/2")


def test_matrix_rows_checks_shape_and_entries_but_not_row_sums():
    # any square matrix of nonnegative ints passes; validate_quotient
    # checks the row sums and the support on top
    assert matrix_rows([[1, 2], [1, 1]]) == ((1, 2), (1, 1))
    assert matrix_rows(([0, 5], (0, 0))) == ((0, 5), (0, 0))
    for S, message in (([], "no rows"), ([[0, 3], [1]], "not square"),
                       ([[0, -3], [1, 2]], "entry \\(1,2\\) = -3")):
        with pytest.raises(InvalidQuotient, match=message):
            matrix_rows(S)


class _Int(int):
    """An int subclass, which a quotient matrix accepts as an entry."""


def test_an_int_subclass_entry_is_accepted_and_its_value_stored():
    Q = QuotientMatrix(3, [[_Int(0), _Int(3)], [1, _Int(2)]])
    assert Q.rows == ((0, 3), (1, 2))
    assert Q == validate_quotient([[0, 3], [1, 2]], 3)


@pytest.mark.parametrize("n, S, message", [
    # one fault each: the entry check names the first bad entry
    (3, [[0, 3], [True, 2]], "entry (2,1) = True is not a nonnegative integer"),
    (3, [[0, 3.0], [1, 2]], "entry (1,2) = 3.0 is not a nonnegative integer"),
    (3, [[0, "3"], [1, 2]], "entry (1,2) = '3' is not a nonnegative integer"),
    (3, [[0, 3], [-1, 4]], "entry (2,1) = -1 is not a nonnegative integer"),
    # two faults: the first check's message wins
    (3, [[0, 3.0], [1, 1]], "entry (1,2) = 3.0 is not a nonnegative integer"),
    (3, [[1, 2, 0], [1, 1, 1], [0, 0, 2]], "row 3 sums to 2, expected n = 3"),
    (3, [[0, 3.0], [1]],
     "matrix is not square: 2 rows, row lengths [2, 1]"),
])
def test_the_checks_run_in_a_fixed_order(n, S, message):
    with pytest.raises(InvalidQuotient) as exc:
        QuotientMatrix(n, S)
    assert str(exc.value) == message


def _det(A):
    """det A by the permutation expansion, signs by inversion count."""
    m = len(A)
    total = 0
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(m) for j in range(i + 1, m))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def test_char_poly_matches_the_permutation_expansion_of_det():
    # char_poly(A) evaluated at e equals det(eI - A) at e = 0..m, which
    # fixes a monic polynomial of degree m
    rng = random.Random(1984)
    for _ in range(150):
        m = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)]
        coeffs = char_poly(A)
        assert len(coeffs) == m + 1 and coeffs[0] == 1
        for e in range(m + 1):
            value = 0
            for c in coeffs:
                value = value * e + c
            assert value == _det([[(e if i == j else 0) - A[i][j]
                                   for j in range(m)] for i in range(m)]), A


def test_char_poly_of_singleton_cube():
    # the 8 x 8 adjacency of the 3-cube: (t - 3)(t - 1)^3 (t + 1)^3 (t + 3)
    expected = [1]
    for root in (3, 1, 1, 1, -1, -1, -1, -3):
        expected = [a - root * b
                    for a, b in zip(expected + [0], [0] + expected)]
    Q = verify_equitable(singleton_partition(3))
    assert char_poly(Q.rows) == tuple(expected)


def _reference_spectrum(coeffs, n):
    """Divide by t - e for every e = n - 2w, w = 0..n, in turn, as often
    as the remainder is 0: (eigenvalues, what is left)."""
    poly, eigen = list(coeffs), []
    for w in range(n + 1):
        e = n - 2 * w
        while len(poly) > 1:
            out = [poly[0]]
            for a in poly[1:]:
                out.append(a + e * out[-1])
            if out[-1] != 0:
                break
            eigen.append(e)
            poly = out[:-1]
    return tuple(eigen), tuple(poly)


def test_spectrum_check_matches_division_by_every_cube_eigenvalue():
    rng = random.Random(33)
    cases = [([[1, 1], [1, 1]], 2), ([[0]], 0), ([[2, 0], [0, 2]], 2),
             ([[0, 2], [1, 1]], 2), (S22, 22)]
    while len(cases) < 600:
        m, n = rng.randint(1, 4), rng.randint(0, 10)
        rows = []
        for _ in range(m):
            cuts = sorted(rng.randint(0, n) for _ in range(m - 1))
            rows.append([b - a for a, b in zip([0] + cuts, cuts + [n])])
        try:
            validate_quotient(rows, n)
        except QuotientError:
            continue
        cases.append((rows, n))
    singular = 0
    for rows, n in cases:
        rep = spectrum_check(validate_quotient(rows, n))
        eigen, left = _reference_spectrum(char_poly(rows), n)
        assert rep.eigenvalues == eigen, (rows, n)
        assert rep.splits == (len(left) == 1)
        assert rep.residual == (None if rep.splits else left)
        singular += rep.char_coeffs[-1] == 0
    assert singular > 50


def _census_line(n, S):
    try:
        report = feasibility_conditions(validate_quotient(S, n))
    except QuotientError as exc:
        return f"{n} {S} {type(exc).__name__}: {exc}"
    return (f"{n} {S} {report.failures} {report.sizes} "
            f"{report.spectrum.char_coeffs}")


def test_verdict_census_of_small_matrices_is_pinned():
    # every 3-cell matrix with rows summing to n <= 6 (35832 of them)
    # and every 2-cell one with n <= 40, through validate_quotient and
    # feasibility_conditions: one line each, the refusal or the failures,
    # sizes and char_coeffs.  The digest was taken at commit 264a4fa,
    # with Faddeev-LeVerrier's char_poly and before the one-pass entry
    # check, so it pins that every verdict and message stayed the same.
    lines = []
    for m, n_max in ((3, 6), (2, 40)):
        for n in range(n_max + 1):
            rows = [list(c) for c in itertools.product(range(n + 1), repeat=m)
                    if sum(c) == n]
            lines += [_census_line(n, list(S))
                      for S in itertools.product(rows, repeat=m)]
    assert len(lines) == 35832 + sum((n + 1) ** 2 for n in range(41))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ("ef3fa42994eb2412511fa7d6f8de26c6"
                      "653cda7f190101a7d602171fd86c3621")
