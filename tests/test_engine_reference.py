"""The fraction-free table engine against a Fraction reference.

`reference_levels` is the division form of the exchange identities,
climbing unscaled T vectors over Fractions:

  a T^{a,b,c} = T^{a-1,b,c} L1 - (b+1) T^{a-1,b+1,c-1}
                - (c+1) T^{a-1,b-1,c+1} - (n-a-b-c+2) T^{a-2,b,c}

and cyclically for parts 2 and 3, at every triple.  It shares only the
lifts and the route choice with the engine, so `build_table` and
`hunt_witness`, which climb scaled integer vectors (and `build_table`
divides one triple per symmetry orbit and permutes the quotient), must
agree with it exactly.
"""

import random
from fractions import Fraction

import pytest

from eqcube.exact_linalg import TensorVector, apply_lift, iter_index_triples
from eqcube.krawtchouk import eval_at_lifts, poly_recursive
from eqcube.oracle import PerfectStructure, ps_initial_triangle
from eqcube.quotient import QuotientError, cell_sizes, validate_quotient
from eqcube.recursion import (INTERWEIGHT, TRIANGLE, build_table,
                              canonical_via, common_denominator,
                              initial_interweight, initial_triangle,
                              iter_triples_of_level, lifts_for)
from eqcube.screen import enumerate_ci_candidates, hunt_witness

Q_PAIR = validate_quotient([[0, 3], [1, 2]], 3)
Q22 = validate_quotient([[0, 22, 0], [5, 6, 11], [0, 10, 12]], 22)
Q_FIFTHS = validate_quotient([[0, 3], [2, 1]], 3)  # sizes 16/5, 24/5
Q_ALL1 = validate_quotient([[1, 1], [1, 1]], 2)


def reference_levels(Q, kind, initial, max_level):
    """Yield {triple: T} level by level, dividing at every step."""
    n = Q.n
    L1, L2, L3 = lifts_for(Q, kind)
    zero = TensorVector.zero(Q.m)
    table = {(0, 0, 0): initial}

    def T(t):
        return zero if min(t) < 0 else table[t]

    yield dict(table)
    for level in range(1, max_level + 1):
        k = n - level + 2
        for (a, b, c) in iter_triples_of_level(level):
            via = canonical_via((a, b, c))
            if via == 1:
                vec = (apply_lift(T((a - 1, b, c)), L1)
                       - T((a - 1, b + 1, c - 1)) * (b + 1)
                       - T((a - 1, b - 1, c + 1)) * (c + 1)
                       - T((a - 2, b, c)) * k) / a
            elif via == 2:
                vec = (apply_lift(T((a, b - 1, c)), L2)
                       - T((a + 1, b - 1, c - 1)) * (a + 1)
                       - T((a - 1, b - 1, c + 1)) * (c + 1)
                       - T((a, b - 2, c)) * k) / b
            else:
                vec = (apply_lift(T((a, b, c - 1)), L3)
                       - T((a + 1, b - 1, c - 1)) * (a + 1)
                       - T((a - 1, b + 1, c - 1)) * (b + 1)
                       - T((a, b, c - 2)) * k) / c
            table[(a, b, c)] = vec
        yield {t: table[t] for t in iter_triples_of_level(level)}


def reference_table(Q, kind, initial, max_level=None):
    if max_level is None:
        max_level = Q.n
    out = {}
    for level in reference_levels(Q, kind, initial, max_level):
        out.update(level)
    return out


def assert_same_entries(table, reference):
    assert list(table.entries) == list(reference)
    for triple, vec in reference.items():
        got = table.entries[triple]
        assert got.m == vec.m
        # exact equality of every entry, and of its value type's meaning:
        # an int where the reference is integral, else the same fraction
        for g, r in zip(got.entries, vec.entries):
            assert Fraction(g) == Fraction(r), triple
            assert isinstance(g, int) == (Fraction(r).denominator == 1)


def _standard_initial(Q, kind):
    if kind == TRIANGLE:
        return initial_triangle(cell_sizes(Q))
    return initial_interweight(Q.m)


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_22_cube_table_matches_fraction_reference(kind):
    table = build_table(Q22, kind)
    assert_same_entries(
        table, reference_table(Q22, kind, _standard_initial(Q22, kind)))


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_pair_table_matches_fraction_reference(kind):
    table = build_table(Q_PAIR, kind)
    assert_same_entries(
        table, reference_table(Q_PAIR, kind, _standard_initial(Q_PAIR, kind)))


def test_non_integral_cell_sizes_match_fraction_reference():
    initial = _standard_initial(Q_FIFTHS, TRIANGLE)
    assert common_denominator(initial) == 5
    table = build_table(Q_FIFTHS, TRIANGLE)
    reference = reference_table(Q_FIFTHS, TRIANGLE, initial)
    assert_same_entries(table, reference)
    # the table does hold fractions beyond level 0
    assert any(Fraction(e).denominator > 1
               for t, vec in reference.items() if sum(t) > 0
               for e in vec.entries)


@pytest.mark.parametrize("Q, rows", [
    # pair partition of the 3-cube weighted 1/2 on {000, 111}, 1/3 elsewhere
    (Q_PAIR, [(Fraction(1, 2), 0) if v in (0, 7) else (0, Fraction(1, 3))
              for v in range(8)]),
    # a perfect structure for [[1, 1], [1, 1]] scaled by 1/3
    (Q_ALL1, [(Fraction(2, 3), 0), (Fraction(1, 3), Fraction(1, 3)),
              (Fraction(1, 3), Fraction(1, 3)), (0, Fraction(2, 3))]),
])
def test_rational_structure_table_matches_fraction_reference(Q, rows):
    initial = ps_initial_triangle(PerfectStructure.from_rows(Q.n, rows))
    assert common_denominator(initial) > 1
    table = build_table(Q, TRIANGLE, initial=initial)
    assert_same_entries(table, reference_table(Q, TRIANGLE, initial))


def test_hunt_witness_matches_fraction_reference():
    for params in enumerate_ci_candidates(11):
        n, a, b, c, d = params
        Q = validate_quotient([[a, b], [c, d]], n)
        initial = initial_triangle(cell_sizes(Q))
        expected = None
        for level in reference_levels(Q, TRIANGLE, initial, n):
            plane = sorted(t for t in level if t[0] == 0)
            hits = [t for t in plane if level[t].get(1, 1, 1) < 0]
            if hits:
                expected = (hits[0][1:], level[hits[0]].get(1, 1, 1))
                break
        got = hunt_witness(params)
        assert expected is not None, params
        assert (got.witness, got.witness_value) == expected, params


def random_candidates(rng, m, count):
    """`count` distinct validated m-cell matrices with n <= 6 whose rows
    are random compositions of n, alternately with integral and
    non-integral cell sizes."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 6)
        rows = []
        for _ in range(m):
            cuts = sorted(rng.randint(0, n) for _ in range(m - 1))
            rows.append([b - a for a, b in zip([0] + cuts, cuts + [n])])
        try:
            Q = validate_quotient(rows, n)
            integral = all(Fraction(s).denominator == 1 for s in cell_sizes(Q))
        except QuotientError:
            continue
        if integral == (len(out) % 2 == 0) and Q not in out:
            out.append(Q)
    return out


def test_seeded_candidates_agree_on_value_and_type():
    # build_table, the Fraction reference climb and the lift image of the
    # reference polynomial give the same number at every entry, as an int
    # exactly where it is integral
    rng = random.Random(20131)
    candidates = random_candidates(rng, 2, 4) + random_candidates(rng, 3, 4)
    for Q in candidates:
        for kind in (TRIANGLE, INTERWEIGHT):
            table = build_table(Q, kind)
            assert_same_entries(
                table, reference_table(Q, kind, _standard_initial(Q, kind)))
            for t, vec in table.entries.items():
                image = eval_at_lifts(poly_recursive(*t), Q, kind).entries
                assert image == vec.entries, (Q, kind, t)
                assert list(map(type, image)) == list(map(type, vec.entries))


def random_symmetric_initial(rng, m, kind):
    """A seeded rational level-0 vector with the symmetries of the kind:
    a sum of u (x) v (x) v over random rational rows, with u = v (tensor
    cubes, symmetric in all three slots) for a triangle table and u free
    (symmetric in the two legs only) for an interweight table."""
    def row():
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                for _ in range(m)]
    entries = [0] * m ** 3
    for _ in range(rng.randint(1, 3)):
        v = row()
        u = v if kind == TRIANGLE else row()
        for p, (i, j, k) in enumerate(iter_index_triples(m)):
            entries[p] += u[i - 1] * v[j - 1] * v[k - 1]
    return TensorVector(m, entries)


def test_seeded_symmetric_initials_match_fraction_reference():
    # build_table divides one triple per symmetry orbit and permutes the
    # quotient; the reference climbs every triple, so any slip in an
    # orbit's permutation shows as a differing entry
    rng = random.Random(20132)
    candidates = random_candidates(rng, 2, 3) + random_candidates(rng, 3, 3)
    for Q in candidates:
        for kind in (TRIANGLE, INTERWEIGHT):
            initial = random_symmetric_initial(rng, Q.m, kind)
            table = build_table(Q, kind, initial=initial)
            assert_same_entries(table, reference_table(Q, kind, initial))
