"""Structural lifts: index order, lazy application, commutation."""

import random
from fractions import Fraction

import pytest

from eqcube import exact_linalg
from eqcube.exact_linalg import (LiftedMatrix, TensorVector, apply_lift,
                                 commutes, diag_lift, exact_quotient,
                                 flat_index, iter_index_triples, kron3,
                                 kron_lift, lift_step,
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
    assert (u - u).is_zero()
    assert TensorVector.zero(2).is_zero()
    assert TensorVector.zero(2) is TensorVector.zero(2)
    with pytest.raises(ValueError):
        u + TensorVector.zero(3)
    # another type is never equal, and repr shows the entries
    half = TensorVector(1, [Fraction(-1, 2)])
    assert half != half.entries and half.entries != half
    assert repr(half) == "TensorVector(m=1, [Fraction(-1, 2)])"


@pytest.mark.parametrize("entries", [(0,) * 7, (0,) * 9, ()])
def test_tensor_vector_refuses_a_wrong_entry_count(entries):
    message = f"expected 8 entries for m=2, got {len(entries)}"
    with pytest.raises(ValueError, match=message):
        TensorVector(2, entries)


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


# lift_step against the plan: apply_lift, then each c * T subtracted in
# turn


def reference_step(U, L, terms):
    out = apply_lift(U, L).entries
    for c, T in terms:
        out = [x - c * y for x, y in zip(out, T.entries)]
    return out


def typed(entries):
    return [(type(e), e) for e in entries]


def random_number(rng, kind):
    """Zero a third of the time, else an int, a 2^200-sized int or a
    Fraction."""
    if rng.random() < 1 / 3:
        return Fraction(0) if kind == "fraction" else 0
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "big":
        return rng.randint(-2 ** 200, 2 ** 200)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_base(rng, m, kind, zero_lines=False):
    """A seeded m x m base with entries as `random_number` draws them,
    and with `zero_lines` one zero row and one zero column besides."""
    row, col = rng.randrange(m), rng.randrange(m)
    return [[0 if zero_lines and (t == row or i == col)
             else random_number(rng, kind) for i in range(m)]
            for t in range(m)]


def random_vector(rng, m, kind):
    if rng.random() < 0.2:
        return TensorVector.zero(m)  # an absent neighbour reads as zero
    return TensorVector(m, (random_number(rng, kind) for _ in range(m ** 3)))


def random_terms(rng, m, kind):
    """The three (c, T) pairs of one exchange step, zero coefficients and
    zero neighbours included."""
    return [(random_number(rng, kind), random_vector(rng, m, kind))
            for _ in range(3)]


@pytest.mark.parametrize("kind", ["int", "big", "fraction"])
def test_division_matches_exact_quotient_in_value_and_type(kind):
    # TensorVector / c applies the number rule entry by entry: signed
    # ints and Fractions, over signed int, big int and Fraction divisors
    rng = random.Random(f"division:{kind}")
    for m in (1, 2, 3):
        for _ in range(12):
            v = random_vector(rng, m, kind)
            divisors = [rng.choice((-1, 1)) * rng.randint(1, 12),
                        rng.randint(1, 2 ** 64),
                        Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 9))]
            for c in divisors:
                want = [exact_quotient(e, c) for e in v.entries]
                assert typed((v / c).entries) == typed(want), (v, c)
            for zero in (0, Fraction(0)):
                with pytest.raises(ZeroDivisionError):
                    v / zero


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["int", "big", "fraction"])
def test_lift_step_matches_the_plan_in_value_and_type(m, kind):
    rng = random.Random(f"lift_step:{m}:{kind}")
    for draw in range(6 if m < 4 else 1):
        S = random_base(rng, m, kind, zero_lines=draw % 2 == 1)
        for position in (1, 2, 3):
            for L in (kron_lift(S, position), kron_lift(S, position).T):
                for _ in range(4):
                    U = random_vector(rng, m, kind)
                    terms = random_terms(rng, m, kind)
                    assert typed(lift_step(U, L, terms).entries) == typed(
                        reference_step(U, L, terms)), (S, position)
                # only a compiled lift builds its step
                assert ("_step" in vars(L)) == (m < 4)


def test_lift_step_mixes_number_types_as_the_plan_does():
    # int vectors through a Fraction base, Fraction terms with int and
    # zero coefficients: every entry keeps the reference's type
    rng = random.Random(19)
    for m in (1, 2, 3, 4):
        S = random_base(rng, m, "fraction", zero_lines=True)
        U = random_vector(rng, m, "big")
        terms = [(0, random_vector(rng, m, "fraction")),
                 (Fraction(0), random_vector(rng, m, "int")),
                 (3, TensorVector.zero(m))]
        for position in (1, 2, 3):
            L = kron_lift(S, position)
            assert typed(lift_step(U, L, terms).entries) == typed(
                reference_step(U, L, terms))


def test_lift_step_refuses_vectors_of_another_size():
    for m in (2, 4):
        L = kron_lift(mat_identity(m), 2)
        zeros = [(1, TensorVector.zero(m))] * 3
        with pytest.raises(ValueError):
            lift_step(TensorVector.zero(m + 1), L, zeros)
        for q in range(3):
            terms = list(zeros)
            terms[q] = (1, TensorVector.zero(m + 1))
            with pytest.raises(ValueError):
                lift_step(TensorVector.zero(m), L, terms)


@pytest.mark.parametrize("m", [2, 4], ids=["compiled", "plan"])
@pytest.mark.parametrize("count", [2, 4])
def test_lift_step_takes_exactly_three_terms(m, count):
    U = TensorVector(m, range(m ** 3))
    L = kron_lift([[1] * m] * m, 3)
    with pytest.raises(ValueError, match="values to unpack"):
        lift_step(U, L, [(1, U)] * count)


def test_only_wide_lifts_walk_the_plan(monkeypatch):
    calls = []
    monkeypatch.setattr(exact_linalg, "apply_lift",
                        lambda U, L: calls.append(L.m) or apply_lift(U, L))
    for m in (1, 2, 3, 4):
        U = TensorVector(m, range(m ** 3))
        L = kron_lift([[2] * m] * m, 1)
        terms = [(2, U), (-1, TensorVector(m, range(m ** 3, 0, -1))),
                 (0, TensorVector.zero(m))]
        assert lift_step(U, L, terms).entries == tuple(
            reference_step(U, L, terms))
    assert calls == [4]


def test_lifts_of_one_support_share_one_compiled_step():
    U = TensorVector(2, range(8))
    terms = [(1, TensorVector.zero(2))] * 3
    steps = []
    for n in (4, 5, 6):
        L = kron_lift([[0, n], [n, 0]], 2)
        assert lift_step(U, L, terms).entries == apply_lift(U, L).entries
        assert L._step.args == ((n, n),)
        steps.append(L._step.func)
    assert steps[0] is steps[1] is steps[2]


def test_compiled_step_source_holds_no_coefficient(monkeypatch):
    # 987654321 is a base entry and a term coefficient: it must reach the
    # generated code as an argument, never as text of its source or a
    # constant of its code
    sources, constants = [], []

    def spy(source, *args):
        module = compile(source, *args)
        sources.append(source)
        codes = [module]
        while codes:
            code = codes.pop()
            constants.extend(code.co_consts)
            codes += [c for c in code.co_consts if hasattr(c, "co_consts")]
        return module

    monkeypatch.setattr(exact_linalg, "compile", spy, raising=False)
    for cache in (exact_linalg._compiled_step,
                  exact_linalg._compiled_combination):
        cache.cache_clear()
    value = 987654321
    compiled = {}
    for m in (1, 2, 3, 4):
        S = [[value if (t + i) % 2 else 0 for i in range(m)]
             for t in range(m)]
        for position in (1, 2, 3):
            L = kron_lift(S, position)
            U = TensorVector(m, range(m ** 3))
            terms = [(value, U), (value, U), (value, U)]
            assert lift_step(U, L, terms).entries == tuple(
                reference_step(U, L, terms))
        compiled[m] = len(sources)
    # a step per slot and a combination per m up to 3; m = 4 compiles
    # nothing
    assert compiled[3] == compiled[4] == 3 * 3 + 3
    assert not any(str(value) in source for source in sources)
    assert value not in constants


@pytest.mark.parametrize("call, message", [
    (lambda: kron_lift([[0, 3], [1]], 1), "lift base is not square"),
    (lambda: kron_lift(S_PAIR, 4), "position must be 1, 2 or 3, got 4"),
    (lambda: apply_lift(TensorVector.zero(1), kron_lift(S_PAIR, 1)),
     "vector m=1, lift m=2"),
    (lambda: commutes(kron_lift([[1]], 1), kron_lift(S_PAIR, 2)),
     "m=1 vs m=2"),
    (lambda: mat_mul([[1, 2]], [[1, 2]]), "inner dimensions do not match"),
    (lambda: vec_mat([1, 2], [[1]]), "inner dimensions do not match"),
])
def test_linear_algebra_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
