"""Structural lifts: index order, lazy application, commutation."""

from fractions import Fraction

import pytest

from eqcube.exact_linalg import (LiftedMatrix, TensorVector, apply_lift,
                                 commutes, diag_lift, exact_quotient,
                                 flat_index, iter_index_triples, kron3,
                                 kron_lift,
                                 mat_identity, mat_mul, materialize, vec_mat)

S_PAIR = [[0, 3], [1, 2]]

# hand-checkable 8x8 images of S=[[0,3],[1,2]] acting on one slot of a
# 2x2x2 tensor flattened i-major, k-minor; sizes (2, 6) for the diagonal
LIFT1_8x8 = (
    (0, 0, 0, 0, 3, 0, 0, 0),
    (0, 0, 0, 0, 0, 3, 0, 0),
    (0, 0, 0, 0, 0, 0, 3, 0),
    (0, 0, 0, 0, 0, 0, 0, 3),
    (1, 0, 0, 0, 2, 0, 0, 0),
    (0, 1, 0, 0, 0, 2, 0, 0),
    (0, 0, 1, 0, 0, 0, 2, 0),
    (0, 0, 0, 1, 0, 0, 0, 2),
)
LIFT2_8x8 = (
    (0, 0, 3, 0, 0, 0, 0, 0),
    (0, 0, 0, 3, 0, 0, 0, 0),
    (1, 0, 2, 0, 0, 0, 0, 0),
    (0, 1, 0, 2, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 3, 0),
    (0, 0, 0, 0, 0, 0, 0, 3),
    (0, 0, 0, 0, 1, 0, 2, 0),
    (0, 0, 0, 0, 0, 1, 0, 2),
)
LIFT3_8x8 = (
    (0, 3, 0, 0, 0, 0, 0, 0),
    (1, 2, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 3, 0, 0, 0, 0),
    (0, 0, 1, 2, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 3, 0, 0),
    (0, 0, 0, 0, 1, 2, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 3),
    (0, 0, 0, 0, 0, 0, 1, 2),
)
DIAG_8x8 = tuple(tuple((2 if r < 4 else 6) if r == c else 0
                       for c in range(8)) for r in range(8))


def test_flat_index_is_i_major_k_minor():
    assert flat_index(2, 1, 1, 1) == 0
    assert flat_index(2, 1, 1, 2) == 1
    assert flat_index(2, 1, 2, 1) == 2
    assert flat_index(2, 2, 1, 1) == 4
    assert flat_index(3, 2, 3, 1) == 15


def test_iter_index_triples_matches_flat_order():
    triples = list(iter_index_triples(3))
    assert len(triples) == 27
    assert [flat_index(3, *t) for t in triples] == list(range(27))
    assert triples[0] == (1, 1, 1)
    assert triples[-1] == (3, 3, 3)


def test_tensor_vector_arithmetic():
    u = TensorVector.unit(2, (1, 2, 1))
    v = TensorVector.unit(2, (2, 1, 1))
    w = u * 3 + v
    assert w.get(1, 2, 1) == 3
    assert w.get(2, 1, 1) == 1
    assert (w - v) / 3 == u
    assert (-u + u).is_zero()
    assert TensorVector.zero(2).is_zero()
    assert TensorVector.zero(2) is TensorVector.zero(2)
    with pytest.raises(ValueError):
        u + TensorVector.zero(3)


def test_materialized_lifts_match_hand_matrices():
    assert materialize(kron_lift(S_PAIR, 1)) == LIFT1_8x8
    assert materialize(kron_lift(S_PAIR, 2)) == LIFT2_8x8
    assert materialize(kron_lift(S_PAIR, 3)) == LIFT3_8x8
    assert materialize(diag_lift((2, 6))) == DIAG_8x8


def test_materialized_lifts_match_kron3():
    I = mat_identity(2)
    assert materialize(kron_lift(S_PAIR, 1)) == kron3(S_PAIR, I, I)
    assert materialize(kron_lift(S_PAIR, 2)) == kron3(I, S_PAIR, I)
    assert materialize(kron_lift(S_PAIR, 3)) == kron3(I, I, S_PAIR)


def test_transpose_marker_materializes_to_transpose():
    L = kron_lift(S_PAIR, 1)
    M = materialize(L)
    MT = materialize(L.T)
    assert MT == tuple(tuple(M[r][c] for r in range(8)) for c in range(8))
    assert L.T.T == L


@pytest.mark.parametrize("position", [1, 2, 3])
@pytest.mark.parametrize("transposed", [False, True])
def test_apply_lift_agrees_with_dense_product(position, transposed):
    S = [[0, 2, 1], [1, 1, 1], [2, 0, 1]]
    L = kron_lift(S, position)
    if transposed:
        L = L.T
    M = materialize(L)
    for t in iter_index_triples(3):
        u = TensorVector.unit(3, t)
        assert tuple(apply_lift(u, L).entries) == vec_mat(u.entries, M)


# bases with zero rows and columns and Fraction entries, at m = 1..4;
# the vectors mix ints, zeros and Fractions
DENSE_BASES = [
    [[0]],
    [[Fraction(3, 2)]],
    [[0, 3], [Fraction(1, 3), 0]],
    [[0, 0], [2, Fraction(-1, 2)]],
    [[0, 2, 1], [1, 0, 0], [Fraction(2, 7), 0, 1]],
    [[1, 0, 0, Fraction(1, 2)], [0, 0, 0, 0], [3, 0, 2, 0], [0, 4, 0, 1]],
]


@pytest.mark.parametrize("S", DENSE_BASES, ids=lambda S: f"m{len(S)}")
@pytest.mark.parametrize("position", [1, 2, 3])
def test_apply_lift_plan_agrees_with_kron3_product(S, position):
    m = len(S)
    I = mat_identity(m)
    U = TensorVector(m, (Fraction(p % 5 - 2, p % 3 + 1) if p % 2 else p % 4
                         for p in range(m ** 3)))
    L = kron_lift(S, position)
    for lift, base in ((L, S), (L.T, [list(col) for col in zip(*S)])):
        factors = [I, I, I]
        factors[position - 1] = base
        assert apply_lift(U, lift).entries == vec_mat(U.entries,
                                                      kron3(*factors))


def test_apply_lift_on_diag():
    D = diag_lift((2, 6))
    u = TensorVector(2, [1, 1, 1, 1, 1, 1, 1, 1])
    assert list(apply_lift(u, D).entries) == [2, 2, 2, 2, 6, 6, 6, 6]
    # diagonal lifts are symmetric
    assert apply_lift(u, D.T) == apply_lift(u, D)


def test_diag_lift_rejects_nonpositive():
    with pytest.raises(ValueError):
        diag_lift((2, 0))
    with pytest.raises(ValueError):
        diag_lift((2, -1))
    diag_lift((Fraction(16, 5), Fraction(24, 5)))  # rationals are fine


def test_commutation_pattern_of_the_four_lifts():
    L1 = kron_lift(S_PAIR, 1)
    L2 = kron_lift(S_PAIR, 2)
    L3 = kron_lift(S_PAIR, 3)
    D = diag_lift((2, 6))
    # the three slot lifts commute pairwise
    assert commutes(L1, L2)
    assert commutes(L1, L3)
    assert commutes(L2, L3)
    # the diagonal acts on slot 1, so it clears slots 2 and 3 only
    assert commutes(D, L2)
    assert commutes(D, L3)
    assert not commutes(D, L1)


def test_diag_conjugation_transposes_reversible_lift():
    # sizes satisfying p_i S_ij = p_j S_ji turn D'S' into S'^T D'
    D = materialize(diag_lift((2, 6)))
    L1 = materialize(kron_lift(S_PAIR, 1))
    L1T = materialize(kron_lift(S_PAIR, 1).T)
    assert mat_mul(D, L1) == mat_mul(L1T, D)
    assert mat_mul(D, L1) != mat_mul(L1, D)


def test_division_gives_ints_where_integral():
    whole = TensorVector(1, [6]) / 3
    assert whole.entries == (2,) and type(whole.entries[0]) is int
    v = TensorVector(2, [6, 7, Fraction(9, 2), Fraction(3), -4, 0,
                         Fraction(-6), 5])
    want = [2, Fraction(7, 3), Fraction(3, 2), 1, Fraction(-4, 3), 0, -2,
            Fraction(5, 3)]
    got = (v / 3).entries
    assert list(got) == want
    assert [type(e) for e in got] == [type(e) for e in want]
    halves = (v / Fraction(3, 2)).entries
    assert halves[0] == 4 and type(halves[0]) is int
    assert halves[1] == Fraction(14, 3)
    with pytest.raises(ZeroDivisionError):
        v / 0


def test_exact_quotient_number_rule():
    assert exact_quotient(12, 4) == 3 and type(exact_quotient(12, 4)) is int
    assert exact_quotient(-12, 8) == Fraction(-3, 2)
    assert type(exact_quotient(Fraction(8, 2), 2)) is int
    assert exact_quotient(Fraction(1, 3), 2) == Fraction(1, 6)


def test_zero_vector_is_shared():
    assert TensorVector.zero(3) is TensorVector.zero(3)
    assert TensorVector.zero(3).entries == (0,) * 27
