"""Three-route polynomial computation and evaluation at lifts."""

import random
from fractions import Fraction

import pytest

from eqcube.exact_linalg import kron3, mat_identity, mat_mul, vec_mat
from eqcube.krawtchouk import (N, ONE, ZERO, TriPoly, X, Y, Z,
                               classical_krawtchouk, eval_at_lifts,
                               genfun_coeff, lift_image_is_zero,
                               materialize_poly_at_lifts,
                               poly_direct, poly_recursive)
from eqcube.oracle import singleton_partition, verify_equitable
from eqcube.quotient import InvalidQuotient, char_poly, validate_quotient
from eqcube.recursion import (INTERWEIGHT, TRIANGLE, build_table,
                              default_initial)

Q_PAIR = validate_quotient([[0, 3], [1, 2]], 3)
Q_SINGLE2 = verify_equitable(singleton_partition(2))

# canonical renderings of every polynomial of total degree at most four
GOLDEN = {
    (0, 0, 0): "1",
    (0, 0, 1): "z",
    (0, 0, 2): "(z^2 - n)/2",
    (0, 1, 1): "y*z - x",
    (0, 0, 3): "(z^3 + (2-3*n)*z)/6",
    (0, 1, 2): "(y*z^2 - 2*x*z + (2-n)*y)/2",
    (1, 1, 1): "x*y*z - x^2 - y^2 - z^2 + 2*n",
    (0, 0, 4): "(z^4 + (8-6*n)*z^2 + 3*n^2 - 6*n)/24",
    (0, 1, 3): "(y*z^3 - 3*x*z^2 + (8-3*n)*y*z + (3*n-6)*x)/6",
    (0, 2, 2): "(y^2*z^2 - 4*x*y*z + 2*x^2 + (4-n)*y^2 + (4-n)*z^2"
               " + n^2 - 6*n)/4",
    (1, 1, 2): "(x*y*z^2 - 2*x^2*z - 2*y^2*z - z^3 + (6-n)*x*y + (5*n-6)*z)/2",
}


def _triples_with_sum_at_most(bound):
    return [(a, b, s - a - b) for s in range(bound + 1)
            for a in range(s + 1) for b in range(s - a + 1)]


@pytest.mark.parametrize("triple,text", sorted(GOLDEN.items()))
def test_golden_renderings(triple, text):
    assert poly_recursive(*triple).render() == text


@pytest.mark.parametrize("fn", [poly_direct, genfun_coeff])
def test_other_routes_reproduce_golden_table(fn):
    for triple, text in GOLDEN.items():
        assert fn(*triple).render() == text


def test_three_routes_agree_through_degree_four():
    for t in _triples_with_sum_at_most(4):
        assert poly_recursive(*t) == poly_direct(*t) == genfun_coeff(*t)


def test_spot_agreement_beyond_the_table():
    for t in [(2, 2, 1), (3, 1, 1), (0, 2, 3), (2, 2, 2)]:
        assert poly_recursive(*t) == poly_direct(*t) == genfun_coeff(*t)


def test_three_routes_agree_at_seeded_degree_seven_triples():
    rng = random.Random(7)
    for _ in range(4):
        a = rng.randint(0, 7)
        b = rng.randint(0, 7 - a)
        t = (a, b, 7 - a - b)
        assert poly_recursive(*t) == poly_direct(*t) == genfun_coeff(*t), t


def test_negative_indices_rejected():
    for fn in (poly_recursive, poly_direct, genfun_coeff):
        with pytest.raises(ValueError):
            fn(0, -1, 2)


@pytest.mark.parametrize("fn", [poly_direct, genfun_coeff])
def test_sum_routes_refuse_past_degree_twelve_before_any_work(monkeypatch,
                                                              fn):
    # the shared integer kernel raises if a route gets as far as using it
    def kernel(f, length):
        raise AssertionError("route ran")
    monkeypatch.setattr("eqcube.krawtchouk._scaled_ff", kernel)
    for triple in [(13, 0, 0), (5, 5, 4), (0, 0, 20), (7, 7, 6)]:
        with pytest.raises(ValueError, match="exceeds the bound of 12"):
            fn(*triple)
    # degree 12 is accepted: the route starts work
    for triple in [(12, 0, 0), (4, 4, 4)]:
        with pytest.raises(AssertionError, match="route ran"):
            fn(*triple)


def test_cyclic_symmetry():
    # P^{a,b,c}(x,y,z) equals P^{b,c,a}(y,z,x)
    for (a, b, c) in _triples_with_sum_at_most(4):
        assert poly_recursive(a, b, c) == poly_recursive(b, c, a).rotated()


def test_degree_bound():
    for t in _triples_with_sum_at_most(5):
        assert poly_recursive(*t).total_degree_xyz() <= sum(t)
    assert TriPoly().total_degree_xyz() == 0


def test_tri_poly_ring_basics():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (p - p).is_zero()
    assert (X * 2) / 2 == X
    assert X ** 3 == X * X * X
    q = TriPoly({(1, 0, 0, 0): Fraction(1, 2)})
    assert q + q == X
    # another type is never equal, and repr shows the rendered text
    assert q != (Fraction(1, 2),) and (Fraction(1, 2),) != q
    assert repr(2 * X - N / 3) == "TriPoly('(6*x - n)/3')"


def test_rotated_moves_each_variable():
    assert X.rotated() == Y
    assert Y.rotated() == Z
    assert Z.rotated() == X


def test_specialize_n():
    p = poly_recursive(0, 0, 2)  # (z^2 - n)/2
    at4 = p.specialize_n(4)
    assert at4 == {(0, 0, 2): Fraction(1, 2), (0, 0, 0): Fraction(-2)}



def test_specialize_n_refuses_a_negative_dimension():
    with pytest.raises(ValueError, match="negative dimension n = -3"):
        poly_recursive(0, 0, 2).specialize_n(-3)


def _fraction_specialize_n(P, n):
    """P at n summed term by term in Fractions: the reference."""
    out = {}
    for (dx, dy, dz, dn), c in P.terms.items():
        key = (dx, dy, dz)
        out[key] = out.get(key, Fraction(0)) + Fraction(c) * n ** dn
    return {k: v for k, v in out.items() if v != 0}


@pytest.mark.parametrize("n", [0, 1, 7, 22])
def test_specialize_n_matches_a_fraction_reference(n):
    # every route-1 polynomial of degree <= 8, the zero polynomial, and
    # one that vanishes at this n: values, Fraction type and key order
    cases = [poly_recursive(*t) for t in _triples_with_sum_at_most(8)]
    cases += [ZERO, (N - TriPoly.const(n)) * X]
    for P in cases:
        got, ref = P.specialize_n(n), _fraction_specialize_n(P, n)
        assert got == ref
        assert list(got) == list(ref)
        assert all(type(v) is Fraction for v in got.values())
    assert cases[-1].specialize_n(n) == ZERO.specialize_n(n) == {}


def test_classical_krawtchouk_small_cases():
    assert classical_krawtchouk(0).render() == "1"
    assert classical_krawtchouk(1).render() == "-2*x + n"


def test_axis_polynomials_specialize_to_classical():
    # P^{r,0,0}(x, y, z) = K_r((n - x)/2) for r <= 5
    half = (TriPoly({(0, 0, 0, 1): 1}) - X) / 2
    for r in range(6):
        assert classical_krawtchouk(r).substitute_x(half) \
            == poly_recursive(r, 0, 0)


def test_every_route_specializes_to_classical_on_each_axis():
    # P^{r,0,0} = K_r((n - x)/2), and by cyclic symmetry P^{0,r,0} and
    # P^{0,0,r} are the same polynomial in z and in y, for r <= 8
    half = (TriPoly({(0, 0, 0, 1): 1}) - X) / 2
    for r in range(9):
        K = classical_krawtchouk(r).substitute_x(half)
        for triple, expected in (((r, 0, 0), K), ((0, r, 0), K.rotated()),
                                 ((0, 0, r), K.rotated().rotated())):
            for fn in (poly_recursive, poly_direct, genfun_coeff):
                assert fn(*triple) == expected, (fn.__name__, triple)


def test_eval_at_lifts_matches_recursion_tables():
    for kind in (TRIANGLE, INTERWEIGHT):
        table = build_table(Q_PAIR, kind)
        for triple in table.triples():
            P = poly_recursive(*triple)
            assert eval_at_lifts(P, Q_PAIR, kind) == table.entries[triple]


def test_eval_at_lifts_level_zero_is_initial():
    got = eval_at_lifts(poly_recursive(0, 0, 0), Q_PAIR, TRIANGLE)
    assert list(got.entries) == [2, 0, 0, 0, 0, 0, 0, 6]


def test_eval_at_lifts_example_value():
    got = eval_at_lifts(poly_recursive(0, 0, 1), Q_PAIR, TRIANGLE)
    assert list(got.entries) == [0, 6, 0, 0, 0, 0, 6, 12]


def test_vanishing_one_level_past_the_dimension():
    # the image of the initial vector dies at level n + 1 even though
    # the polynomial of the lifts is not the zero matrix
    nonzero_somewhere = False
    for triple in [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]:
        P = poly_recursive(*triple)
        assert eval_at_lifts(P, Q_PAIR, TRIANGLE).is_zero()
        assert eval_at_lifts(P, Q_PAIR, INTERWEIGHT).is_zero()
        if not lift_image_is_zero(P, Q_PAIR):
            nonzero_somewhere = True
    assert nonzero_somewhere


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_eval_at_lifts_matches_build_table_on_non_integral_cell_sizes(kind):
    # cell sizes 24/5 and 16/5: Fraction lift powers are combined, and
    # every entry keeps build_table's type, an int where integral
    Q = validate_quotient([[1, 2], [3, 0]], 3)
    table = build_table(Q, kind)
    assert any(type(v) is Fraction
               for vec in table.entries.values() for v in vec.entries)
    for triple, vec in table.entries.items():
        got = eval_at_lifts(poly_recursive(*triple), Q, kind)
        assert got == vec
        assert list(map(type, got.entries)) == list(map(type, vec.entries))


def test_materialize_poly_at_lifts_small_case():
    # P^{0,0,1} of the lifts is the third slot lift itself
    from eqcube.exact_linalg import kron_lift, materialize
    got = materialize_poly_at_lifts(poly_recursive(0, 0, 1), Q_PAIR,
                                    TRIANGLE)
    assert got == materialize(kron_lift([[0, 3], [1, 2]], 3))


def _mat_power(M, e):
    out = mat_identity(len(M))
    for _ in range(e):
        out = mat_mul(out, M)
    return out


def _dense_poly_at_lifts(P, Q, mode):
    """Sum of c_ijk kron3(A^i, S^j, S^k) at n = Q.n, with A = S^T for
    interweight tables and S for triangle tables: the lifts as dense
    matrices."""
    S = Q.rows
    A = tuple(zip(*S)) if mode == INTERWEIGHT else S
    size = Q.m ** 3
    out = [[0] * size for _ in range(size)]
    for (i, j, k), c in P.specialize_n(Q.n).items():
        K = kron3(_mat_power(A, i), _mat_power(S, j), _mat_power(S, k))
        for r in range(size):
            for col in range(size):
                out[r][col] += c * K[r][col]
    return tuple(tuple(row) for row in out)


# the rows of a matrix, the triples to evaluate and n: every triple one
# level past the dimension, plus one inside it whose image is nonzero
DENSE_CASES = [
    (Q_PAIR.rows, [t for t in _triples_with_sum_at_most(4) if sum(t) == 4],
     3),
    (Q_SINGLE2.rows,
     [t for t in _triples_with_sum_at_most(3) if sum(t) == 3], 2),
    (Q_PAIR.rows, [(0, 1, 2)], 3),
]


@pytest.mark.parametrize("mode", [TRIANGLE, INTERWEIGHT])
@pytest.mark.parametrize("Q,triples,n", DENSE_CASES)
def test_lift_evaluators_match_dense_reference(Q, triples, n, mode):
    Q = validate_quotient(Q, n)
    initial = default_initial(Q, mode).entries
    images = []
    for t in triples:
        P = poly_recursive(*t)
        dense = _dense_poly_at_lifts(P, Q, mode)
        assert materialize_poly_at_lifts(P, Q, mode) == dense
        assert lift_image_is_zero(P, Q) == all(
            v == 0 for row in dense for v in row)
        got = eval_at_lifts(P, Q, mode)
        assert got.entries == vec_mat(initial, dense)
        images.append(got)
    # the evaluators read n from Q: past it every image vanishes, and at
    # (0, 1, 2) on the pair matrix it is the nonzero table entry
    assert all(v.is_zero() for v in images) == (sum(triples[0]) > n)


# (0,1,2),(1,1,1),(1,2,0) at n = 3 has minimal polynomial (t - 3)(t + 1)^2:
# not diagonalizable, so no test by eigenvalue points alone is exact here
Q_JORDAN = validate_quotient([[0, 1, 2], [1, 1, 1], [1, 2, 0]], 3)


def _is_zero_matrix(M):
    return all(v == 0 for row in M for v in row)


@pytest.mark.parametrize("mode", [TRIANGLE, INTERWEIGHT])
@pytest.mark.parametrize("var", [X, Z])
def test_zero_test_keeps_repeated_root_of_minimal_polynomial(mode, var):
    short = (var - TriPoly.const(3)) * (var + ONE)
    full = short * (var + ONE)
    for P, zero in ((short, False), (full, True)):
        assert lift_image_is_zero(P, Q_JORDAN) is zero
        assert _is_zero_matrix(
            materialize_poly_at_lifts(P, Q_JORDAN, mode)) is zero


def _random_quotient(rng):
    while True:
        m, n = rng.choice((2, 3)), rng.randint(1, 5)
        rows = []
        for _ in range(m):
            cuts = sorted(rng.randint(0, n) for _ in range(m - 1))
            rows.append([b - a for a, b in zip([0] + cuts, cuts + [n])])
        try:
            return validate_quotient(rows, n)
        except InvalidQuotient:
            continue


def _random_poly(rng):
    return TriPoly({(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
                     rng.randint(0, 1)): Fraction(rng.randint(-3, 3),
                                                  rng.randint(1, 3))
                    for _ in range(3)})


def test_zero_test_matches_dense_reference_on_random_matrices():
    rng = random.Random(20131)
    seen = {True: 0, False: 0}
    for _ in range(40):
        Q = _random_quotient(rng)
        chi_x, chi_z = (sum((c * var ** e for e, c in
                             enumerate(reversed(char_poly(Q.rows)))), ZERO)
                        for var in (X, Z))
        # chi(x) A + chi(z) B: Cayley-Hamilton kills it in every mode
        ideal = chi_x * _random_poly(rng) + chi_z * _random_poly(rng)
        r = [rng.randint(0, 2) for _ in range(3)]
        cases = [(poly_recursive(*r), None), (ideal, True),
                 (ideal + ONE, False),
                 (poly_recursive(*r[::-1]) * ideal, True)]
        mode = rng.choice((TRIANGLE, INTERWEIGHT))
        for P, expected in cases:
            got = lift_image_is_zero(P, Q)
            dense = materialize_poly_at_lifts(P, Q, mode)
            assert got == _is_zero_matrix(dense)
            assert expected is None or got is expected
            seen[got] += 1
    assert seen[True] and seen[False]


def test_lift_evaluators_reject_unknown_mode():
    with pytest.raises(ValueError):
        build_table(Q_PAIR, "bogus", initial=default_initial(Q_PAIR, TRIANGLE))


def test_render_of_zero_and_of_a_monomial_with_unit_coefficient():
    assert TriPoly().render() == "0"
    assert (N * X).render() == "n*x"


@pytest.mark.parametrize("call, message", [
    (lambda: X ** -1, "negative power"),
    (lambda: (X * Y).substitute_x(N), "in x alone"),
    (lambda: (X + Z).substitute_x(N), "in x alone"),
    (lambda: classical_krawtchouk(-1), "negative degree"),
])
def test_polynomial_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_zero_test_of_polynomials_with_no_term_at_n():
    # n - 3 is the zero polynomial at Q_PAIR's n = 3
    assert lift_image_is_zero(TriPoly(), Q_PAIR)
    assert lift_image_is_zero(N - TriPoly.const(3), Q_PAIR)


def test_lift_evaluators_reject_an_unknown_kind():
    P = poly_recursive(0, 0, 1)
    with pytest.raises(ValueError, match="unknown table kind 'bogus'"):
        eval_at_lifts(P, Q_PAIR, "bogus")
    with pytest.raises(ValueError, match="unknown table kind 'bogus'"):
        materialize_poly_at_lifts(P, Q_PAIR, "bogus")


@pytest.mark.parametrize("route", [poly_recursive, poly_direct, genfun_coeff])
@pytest.mark.parametrize("parts", [(2.0, 0, 0), (True, 0, 0), (0, 1.5, 0),
                                   (0, 0, "1")])
def test_routes_refuse_a_part_that_is_not_an_int(route, parts):
    # refused alike by all three routes, before any work
    with pytest.raises(ValueError, match="not an integer"):
        route(*parts)
