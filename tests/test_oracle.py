"""Ground truth by enumeration: partitions, spectra, anchored tables."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from eqcube import oracle
from eqcube.cli import main
from eqcube.exact_linalg import (TensorVector, flat_index,
                                 iter_index_triples)
from eqcube.oracle import (InvarianceResult, NotEquitable, PartitionInstance,
                           PerfectStructure, _triple_index, brute_interweight,
                           brute_triangle, distance_distribution, hamming,
                           multi_neighborhood, neighbors, parity_partition,
                           ps_brute_interweight, ps_initial_triangle,
                           search_partitions,
                           set_triangle_multiset, singleton_partition,
                           spectrum_of_multiset, strong_invariance_check,
                           verify_equitable, verify_perfect_structure)
from eqcube.quotient import (InvalidQuotient, QuotientMatrix,
                             feasibility_conditions, validate_quotient)
from eqcube.recursion import INTERWEIGHT, TRIANGLE, build_table, cross_check
from eqcube.screen import certify

PAIR = PartitionInstance.from_cells(3, [[0, 7], [1, 2, 3, 4, 5, 6]])

# the two 4-sets of words 0000/0001/0010/1111 and 0000/0001/0111/1111,
# as integers with bit i holding coordinate i
SET_A = [0b0000, 0b1000, 0b0100, 0b1111]
SET_B = [0b0000, 0b1000, 0b1110, 0b1111]


def test_hamming_and_neighbors():
    assert hamming(0b1010, 0b0110) == 2
    assert sorted(neighbors(0, 3)) == [1, 2, 4]
    assert sorted(neighbors(5, 3)) == [1, 4, 7]


def test_triple_index_solves_the_distance_system_on_the_4_cube():
    # all 16^3 ordered triples: d(x,y) = r2 + r3, d(v,y) = r1 + r3,
    # d(v,x) = r1 + r2 with every part nonnegative
    for v in range(16):
        for x in range(16):
            for y in range(16):
                r1, r2, r3 = _triple_index(v, x, y)
                assert min(r1, r2, r3) >= 0
                assert (hamming(x, y), hamming(v, y), hamming(v, x)) == (
                    r2 + r3, r1 + r3, r1 + r2), (v, x, y)


def test_triple_index_reads_only_differences_on_the_4_cube():
    # the counting kernel's premise: translating a triple by its first
    # vertex keeps the index, for all 16^3 ordered triples
    for v in range(16):
        for x in range(16):
            for y in range(16):
                assert _triple_index(v, x, y) == _triple_index(
                    0, v ^ x, v ^ y), (v, x, y)


def test_partition_instance_validation():
    with pytest.raises(ValueError):
        PartitionInstance.from_cells(2, [[0, 1], [1, 2, 3]])  # overlap
    with pytest.raises(ValueError):
        PartitionInstance.from_cells(2, [[0, 1], [2]])        # missing 3
    with pytest.raises(ValueError):
        PartitionInstance.from_cells(2, [[0, 1, 2, 3], []])   # empty cell
    with pytest.raises(ValueError):
        PartitionInstance.from_cells(15, [list(range(2 ** 15))])  # too big


def test_cells_round_trip():
    assert PAIR.cells() == [[0, 7], [1, 2, 3, 4, 5, 6]]
    assert PAIR.cell_sizes() == (2, 6)
    assert parity_partition(4).cell_sizes() == (8, 8)
    assert singleton_partition(2).m == 4


def test_verify_equitable_known_quotients():
    assert verify_equitable(PAIR).rows == ((0, 3), (1, 2))
    assert verify_equitable(parity_partition(4)).rows == ((0, 4), (4, 0))
    halves = PartitionInstance.from_cells(2, [[0, 1], [2, 3]])
    assert verify_equitable(halves).rows == ((1, 1), (1, 1))
    single = verify_equitable(singleton_partition(2))
    assert single.rows == ((0, 1, 1, 0), (1, 0, 0, 1),
                           (1, 0, 0, 1), (0, 1, 1, 0))


def test_verify_equitable_reports_witness():
    P = PartitionInstance.from_cells(2, [[0], [1, 2, 3]])
    with pytest.raises(NotEquitable) as exc:
        verify_equitable(P)
    assert exc.value.vertex in (1, 2, 3)


def test_multi_neighborhood():
    assert multi_neighborhood([0], 3) == {1: 1, 2: 1, 4: 1}
    assert multi_neighborhood([0, 0b110], 3) == {
        0b001: 1, 0b010: 2, 0b100: 2, 0b111: 1}
    assert multi_neighborhood([], 3) == {}
    # multiplicities pass through, signed ones too
    assert multi_neighborhood({0: 2}, 2) == {1: 2, 2: 2}
    assert multi_neighborhood({0: -2, 3: 1}, 2) == {1: -1, 2: -1}


def test_spectrum_of_multiset():
    assert spectrum_of_multiset([0], PAIR) == (1, 0)
    assert spectrum_of_multiset(range(8), PAIR) == (2, 6)
    assert spectrum_of_multiset({0: -1, 1: 3}, PAIR) == (-1, 3)


@pytest.mark.parametrize("P,S", [
    (PAIR, ((0, 3), (1, 2))),
    (parity_partition(4), ((0, 4), (4, 0))),
])
def test_neighborhood_spectrum_law_on_random_multisets(P, S):
    # Sp([X]) = Sp(X) S for two hundred seeded random multisets
    rng = random.Random(20240817)
    size = 2 ** P.n
    for _ in range(200):
        X = {v: rng.randrange(3) for v in rng.sample(range(size),
                                                     rng.randrange(1, size))}
        lhs = spectrum_of_multiset(multi_neighborhood(X, P.n), P)
        sp = spectrum_of_multiset(X, P)
        rhs = tuple(sum(sp[i] * S[i][j] for i in range(P.m))
                    for j in range(P.m))
        assert lhs == rhs


def test_brute_triangle_pair_partition():
    t = brute_triangle(PAIR)
    assert list(t.entries[(0, 0, 0)].entries) == [2, 0, 0, 0, 0, 0, 0, 6]
    assert list(t.entries[(0, 0, 1)].entries) == [0, 6, 0, 0, 0, 0, 6, 12]
    assert sum(v for tr in t.entries for v in t.entries[tr].entries) == 512


def test_brute_triangle_respects_cap():
    big = parity_partition(7)
    with pytest.raises(ValueError):
        brute_triangle(big)


def test_brute_matches_recursion_on_fixtures():
    for P in (PAIR, parity_partition(4), singleton_partition(2),
              singleton_partition(3)):
        Q = verify_equitable(P)
        assert brute_triangle(P).entries == build_table(Q, TRIANGLE).entries


def test_brute_interweight_anchored_slices():
    t0 = brute_interweight(PAIR, 0)
    assert list(t0.entries[(0, 0, 0)].entries) == [1, 0, 0, 0, 0, 0, 0, 0]
    # level (0,0,1): x = anchor, y a neighbor; all neighbors in cell 2
    assert list(t0.entries[(0, 0, 1)].entries) == [0, 3, 0, 0, 0, 0, 0, 0]
    # same table from the antipodal anchor in the same cell
    assert brute_interweight(PAIR, 7).entries == t0.entries
    t1 = brute_interweight(PAIR, 1)
    assert t1.entries[(0, 0, 0)].get(2, 2, 2) == 1


def _naive_counts(P, anchors):
    """Per-triple flat counts of every pair (x, y) at the given anchors,
    one `_triple_index` call per ordered triple."""
    size = 1 << P.n
    counts = {}
    for v in anchors:
        for x in range(size):
            for y in range(size):
                vec = counts.setdefault(_triple_index(v, x, y),
                                        [0] * P.m ** 3)
                vec[flat_index(P.m, P.color[v], P.color[x],
                               P.color[y])] += 1
    return counts


def _uneven_partition(rng, n, m):
    """Every vertex a seeded random cell, each of the m cells used, redrawn
    until the colouring is not equitable (m >= 2 and 2^n > m)."""
    while True:
        color = [rng.randint(1, m) for _ in range(1 << n)]
        if len(set(color)) < m:
            continue
        P = PartitionInstance(n=n, m=m, color=tuple(color))
        try:
            verify_equitable(P)
        except NotEquitable:
            return P


def _assert_counts(table, counts):
    zero = [0] * table.m ** 3
    assert set(counts) <= set(table.entries)
    for t, vec in table.entries.items():
        assert list(vec.entries) == counts.get(t, zero), t


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_brute_tables_match_a_naive_count_on_random_colourings(m):
    # seeded colourings that are not equitable (the one-cell colouring
    # for m = 1), so no symmetry of an equitable partition can hide a
    # miscount: brute_triangle, and the anchored table at every vertex,
    # against a plain loop over every ordered triple
    rng = random.Random(20261019 + m)
    for n in range(m.bit_length(), 5):
        P = (PartitionInstance(n=n, m=1, color=(1,) * (1 << n)) if m == 1
             else _uneven_partition(rng, n, m))
        _assert_counts(brute_triangle(P), _naive_counts(P, range(1 << n)))
        for v in range(1 << n):
            _assert_counts(brute_interweight(P, v), _naive_counts(P, [v]))


def test_strong_invariance_holds_on_equitable_fixtures():
    for P in (PAIR, parity_partition(4), singleton_partition(3)):
        res = strong_invariance_check(P)
        assert res.status == "holds"
        assert res.witness is None


def test_strong_invariance_inapplicable_without_equitability():
    # a 4-set that is no cell of any equitable partition with its complement
    P = PartitionInstance.from_cells(4, [SET_A,
                                         [v for v in range(16)
                                          if v not in SET_A]])
    res = strong_invariance_check(P)
    assert res.status == "inapplicable"


def test_overlapping_sets_are_not_a_partition():
    rest = [v for v in range(16) if v not in set(SET_A) | set(SET_B)]
    with pytest.raises(ValueError):
        PartitionInstance.from_cells(4, [SET_A, SET_B, rest])


def test_distance_distribution():
    assert distance_distribution(SET_A) == [1, 1, 2, 3, 3, 4]
    assert distance_distribution(SET_B) == [1, 1, 2, 3, 3, 4]
    assert distance_distribution([0b000, 0b111]) == [3]


def test_set_triangle_multisets_differ_despite_equal_distances():
    # hand count for SET_A: triangles on {0000,0001,0010} have sides
    # (1,1,2), twice sides (1,3,4), and {0001,0010,1111} has (2,3,3);
    # in r-coordinates (half the slack per side) that is (0,1,1),
    # (0,1,3) twice and (1,1,2).  SET_B: sides (1,2,3) twice and
    # (1,3,4) twice, so (0,1,2) twice and (0,1,3) twice.
    tm_a = set_triangle_multiset(SET_A, 4)
    tm_b = set_triangle_multiset(SET_B, 4)
    assert tm_a == [(0, 1, 1), (0, 1, 3), (0, 1, 3), (1, 1, 2)]
    assert tm_b == [(0, 1, 2), (0, 1, 2), (0, 1, 3), (0, 1, 3)]
    assert distance_distribution(SET_A) == distance_distribution(SET_B)
    assert tm_a != tm_b


def test_set_triangle_multiset_small_cases():
    assert set_triangle_multiset([0b000, 0b001, 0b011], 3) == [(0, 1, 1)]
    with pytest.raises(ValueError):
        set_triangle_multiset([0, 1], 3)


@pytest.mark.parametrize("X, vertex", [([0, 1, 99], 99), ([0, 1, -2], -2)])
def test_set_triangle_multiset_rejects_vertex_outside_cube(X, vertex):
    with pytest.raises(ValueError, match=f"vertex {vertex} outside the 3-cube"):
        set_triangle_multiset(X, 3)


# -- rational vertex structures ---------------------------------------------

C_PLAIN = PerfectStructure.from_rows(2, [(2, 0), (0, 2), (2, 0), (0, 2)])
C_MIXED = PerfectStructure.from_rows(2, [(2, 0), (1, 1), (1, 1), (0, 2)])
Q_ALL1 = validate_quotient([[1, 1], [1, 1]], 2)


def test_verify_perfect_structure():
    assert verify_perfect_structure(C_PLAIN, Q_ALL1) == (True, None)
    assert verify_perfect_structure(C_MIXED, Q_ALL1) == (True, None)
    bad = validate_quotient([[2, 0], [0, 2]], 2)
    ok, witness = verify_perfect_structure(C_PLAIN, bad)
    assert not ok and witness is not None


@pytest.mark.parametrize("n", [0, 15])
def test_perfect_structure_n_outside_bound_is_refused(n):
    with pytest.raises(ValueError, match="n <= 14"):
        PerfectStructure.from_rows(n, [(2, 0), (0, 2), (2, 0), (0, 2)])


@pytest.mark.parametrize("value", [0.5, True, None, "half", "1/0"])
def test_perfect_structure_refuses_an_inexact_value(value):
    with pytest.raises(ValueError, match="not an exact value"):
        PerfectStructure.from_rows(2, [(2, 0), (0, 2), (2, value), (0, 2)])


def test_perfect_structure_reads_ints_fractions_and_strings():
    PS = PerfectStructure.from_rows(
        2, [(2, "0"), ("-3/4", 2), (Fraction(1, 2), "0.25"), (0, 2)])
    assert PS.values == ((2, 0), (Fraction(-3, 4), 2),
                         (Fraction(1, 2), Fraction(1, 4)), (0, 2))
    assert all(type(v) is Fraction for row in PS.values for v in row)


def test_ps_initial_triangle_values():
    assert list(ps_initial_triangle(C_PLAIN).entries) == [16, 0, 0, 0,
                                                          0, 0, 0, 16]
    assert list(ps_initial_triangle(C_MIXED).entries) == [10, 2, 2, 2,
                                                          2, 2, 2, 10]


def test_ps_initial_of_indicator_structure_is_size_diagonal():
    rows = [(1, 0) if v in (0, 7) else (0, 1) for v in range(8)]
    PS = PerfectStructure.from_rows(3, rows)
    assert list(ps_initial_triangle(PS).entries) == [2, 0, 0, 0, 0, 0, 0, 6]


def test_ps_structures_share_matrix_but_not_anchored_tables():
    # same parameter matrix and the same value at vertex 00, yet the
    # anchored tables at 00 differ one level up
    w_plain = ps_brute_interweight(C_PLAIN, 0)
    w_mixed = ps_brute_interweight(C_MIXED, 0)
    assert w_plain[(0, 0, 0)] == w_mixed[(0, 0, 0)]
    assert list(w_plain[(1, 0, 0)].entries) == [8, 0, 0, 8, 0, 0, 0, 0]
    assert list(w_mixed[(1, 0, 0)].entries) == [4, 4, 4, 4, 0, 0, 0, 0]


def _assert_propagates(PS, Q):
    """The triangle recursion seeded with PS's level-0 tensor gives the
    sum of PS's anchored brute tables over all anchors, at every triple."""
    table = build_table(Q, TRIANGLE, initial=ps_initial_triangle(PS))
    sums = {}
    for v in range(1 << PS.n):
        for triple, vec in ps_brute_interweight(PS, v).items():
            sums[triple] = sums.get(triple, TensorVector.zero(PS.m)) + vec
    assert set(sums) == set(table.entries)
    for triple, vec in sums.items():
        assert table.entries[triple] == vec, triple


def test_ps_propagation_matches_anchored_sums():
    for PS in (C_PLAIN, C_MIXED):
        _assert_propagates(PS, Q_ALL1)


def _rational_structures(rng, P, count):
    """`count` structures v -> e_{color(v)} p(S) on P, for seeded random
    polynomials p of degree at most 2 with rational coefficients; each
    is perfect for P's quotient S, since p(S) commutes with S."""
    Q = verify_equitable(P)
    S = [[Fraction(x) for x in row] for row in Q.rows]
    eye = [[Fraction(int(i == j)) for j in range(Q.m)] for i in range(Q.m)]
    S2 = [[sum(S[i][t] * S[t][j] for t in range(Q.m)) for j in range(Q.m)]
          for i in range(Q.m)]
    out = []
    for _ in range(count):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in "012"]
        pS = [[c[0] * eye[i][j] + c[1] * S[i][j] + c[2] * S2[i][j]
               for j in range(Q.m)] for i in range(Q.m)]
        values = tuple(tuple(pS[label - 1]) for label in P.color)
        out.append(PerfectStructure(n=P.n, m=P.m, values=values))
    return Q, out


@pytest.mark.parametrize("P", [parity_partition(3), parity_partition(4),
                               PAIR], ids=["parity3", "parity4", "pair3"])
def test_seeded_rational_structures_are_perfect_and_propagate(P):
    rng = random.Random(20261020 + P.n)
    Q, structures = _rational_structures(rng, P, 3)
    for PS in structures:
        assert verify_perfect_structure(PS, Q) == (True, None)
        _assert_propagates(PS, Q)


def test_search_finds_all_antipodal_pairs():
    res = search_partitions(3, [[0, 3], [1, 2]], limit=10)
    assert res.complete
    assert [p.cells()[0] for p in res.partitions] == [[0, 7], [1, 6],
                                                      [2, 5], [3, 4]]
    for p in res.partitions:
        assert verify_equitable(p).rows == ((0, 3), (1, 2))


def test_search_finds_parity_bipartition():
    res = search_partitions(4, [[0, 4], [4, 0]], limit=10)
    assert res.complete
    assert parity_partition(4) in res.partitions


def test_search_respects_limit():
    res = search_partitions(3, [[0, 3], [1, 2]], limit=2)
    assert len(res.partitions) == 2


@pytest.mark.parametrize("limit", [0, -1])
def test_search_rejects_limit_below_one(limit):
    with pytest.raises(ValueError, match="limit"):
        search_partitions(3, [[0, 3], [1, 2]], limit=limit)


@pytest.mark.parametrize("n", [0, 15])
def test_search_refuses_n_outside_bound_up_front(n):
    # the stored-dimension rule: n = 15 is refused before any list of
    # 2^n entries is made
    with pytest.raises(ValueError,
                       match="explicit partitions are stored for n <= 14"):
        search_partitions(n, [[n]])


def test_search_with_contradictory_pins_is_empty():
    res = search_partitions(3, [[0, 3], [3, 0]], limit=10, pins={0: 1, 1: 1})
    assert res.complete and res.partitions == []


def test_search_node_cap_flags_incomplete():
    res = search_partitions(3, [[0, 3], [1, 2]], limit=10, max_nodes=3)
    assert not res.complete


def _valid_matrices(n, m):
    """Every m x m matrix that `validate_quotient` accepts for n."""
    rows = [r for r in itertools.product(range(n + 1), repeat=m)
            if sum(r) == n]
    out = []
    for S in itertools.product(rows, repeat=m):
        try:
            out.append(validate_quotient(S, n))
        except InvalidQuotient:
            pass
    return out


def _reference_search(Q, pins):
    """Every colouring of the cube in lexicographic order that uses all
    m cells, honours the pins and is equitable with quotient Q."""
    out = []
    for color in itertools.product(range(1, Q.m + 1), repeat=1 << Q.n):
        if (len(set(color)) < Q.m
                or any(color[v] != label for v, label in pins.items())):
            continue
        P = PartitionInstance(n=Q.n, m=Q.m, color=color)
        try:
            if verify_equitable(P) == Q:
                out.append(P)
        except NotEquitable:
            pass
    return out


def test_search_lists_what_a_lexicographic_enumeration_lists():
    # every valid matrix with n <= 3 and m <= 2 or n <= 2 and m = 3,
    # unpinned and under a seeded pin: the search records a complete
    # colouring without checking it, so the enumeration checks each one
    rng = random.Random("search-reference")
    matrices = [Q for n, m in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2),
                               (3, 2), (1, 3), (2, 3)]
                for Q in _valid_matrices(n, m)]
    assert len(matrices) == 50
    unpinned = 0
    for Q in matrices:
        for pins in ({}, {rng.randrange(1 << Q.n): rng.randint(1, Q.m)}):
            want = _reference_search(Q, pins)
            got = search_partitions(Q.n, Q, limit=10 ** 6, pins=pins)
            assert got.complete and got.partitions == want, (Q, pins)
            unpinned += 0 if pins else len(want)
    assert unpinned == 45
    # and, unpinned, the 6 of the 136 with n = 3 and m = 3 that pass
    # every screen: 12 partitions each
    screened = []
    for Q in _valid_matrices(3, 3):
        try:
            if feasibility_conditions(Q).failures:
                continue
        except InvalidQuotient:
            continue
        want = _reference_search(Q, {})
        assert search_partitions(3, Q, limit=10 ** 6).partitions == want, Q
        screened.append(len(want))
    assert screened == [12] * 6


# (n, S, keyword arguments, complete, cell 1 of each partition found)
SEARCH_RUNS = [
    (4, [[1, 3], [1, 3]], {"limit": 10 ** 6}, True,
     [[0, 1, 14, 15], [0, 2, 13, 15], [0, 4, 11, 15], [0, 7, 8, 15],
      [1, 3, 12, 14], [1, 5, 10, 14], [1, 6, 9, 14], [2, 3, 12, 13],
      [2, 5, 10, 13], [2, 6, 9, 13], [3, 4, 11, 12], [3, 7, 8, 12],
      [4, 5, 10, 11], [4, 6, 9, 11], [5, 7, 8, 10], [6, 7, 8, 9]]),
    (5, [[1, 4], [4, 1]], {"limit": 10 ** 6, "pins": {0: 2, 3: 1}}, True,
     [[1, 3, 4, 6, 8, 10, 13, 15, 16, 18, 21, 23, 25, 27, 28, 30],
      [2, 3, 4, 5, 8, 9, 14, 15, 16, 17, 22, 23, 26, 27, 28, 29]]),
    (6, [[2, 4], [4, 2]], {"limit": 2, "pins": {0: 2, 63: 2}}, True,
     [[1, 2, 3, 4, 8, 13, 14, 15, 17, 20, 22, 23, 24, 26, 27, 29, 34, 36,
       37, 39, 40, 41, 43, 46, 48, 49, 50, 55, 59, 60, 61, 62],
      [1, 2, 3, 4, 8, 13, 14, 15, 18, 20, 21, 23, 24, 25, 27, 30, 33, 36,
       38, 39, 40, 42, 43, 45, 48, 49, 50, 55, 59, 60, 61, 62]]),
    (5, [[1, 4], [4, 1]], {"limit": 10 ** 6, "max_nodes": 200}, False,
     [[0, 1, 6, 7, 10, 11, 12, 13, 18, 19, 20, 21, 24, 25, 30, 31],
      [0, 2, 5, 7, 9, 11, 12, 14, 17, 19, 20, 22, 24, 26, 29, 31],
      [0, 3, 4, 7, 9, 10, 13, 14, 17, 18, 21, 22, 24, 27, 28, 31]]),
]


@pytest.mark.parametrize("n, S, kwargs, complete, cells", SEARCH_RUNS,
                         ids=["all", "pinned", "pinned-limit", "budget"])
def test_search_runs_keep_their_partitions_and_flag(n, S, kwargs, complete, cells):
    # the partitions, their order and the complete flag of a full run, a
    # pinned run, a pinned run cut by its limit and one cut by its budget
    result = search_partitions(n, S, **kwargs)
    assert result.complete is complete
    assert [P.cells()[0] for P in result.partitions] == cells


@pytest.mark.parametrize("n, S, kwargs, nodes", [
    (3, [[0, 3], [1, 2]], {"limit": 10}, 56),
    (4, [[1, 3], [1, 3]], {"limit": 3}, 82),
    (5, [[1, 4], [4, 1]], {"limit": 10 ** 6, "pins": {0: 2, 3: 1}}, 122),
])
def test_search_counts_one_node_per_label_tried(n, S, kwargs, nodes):
    # a run that tries `nodes` labels in all, to its end or to its
    # limit, completes on that budget and is cut one node short of it
    assert search_partitions(n, S, max_nodes=nodes, **kwargs).complete
    assert not search_partitions(n, S, max_nodes=nodes - 1,
                                 **kwargs).complete


def test_search_reaches_the_stored_dimension_bound():
    # no recursion: at n = 14 (16384 vertices) the first partition of
    # the bipartite matrix is the parity partition, and it is equitable
    result = search_partitions(14, [[0, 14], [14, 0]])
    assert result.complete
    assert result.partitions == [parity_partition(14)]
    assert verify_equitable(result.partitions[0]).rows == ((0, 14), (14, 0))


def test_brute_interweight_is_a_nonstandard_slice_of_the_engine_row():
    Q = verify_equitable(PAIR)
    slice0 = brute_interweight(PAIR, 0)
    # the counts are the engine's row i = color(0) = 1 and zero elsewhere
    engine = build_table(Q, INTERWEIGHT)
    for t, vec in slice0.entries.items():
        for index, got in zip(iter_index_triples(2), vec.entries):
            assert got == (engine.entries[t].get(*index)
                           if index[0] == 1 else 0), (t, index)
    report = cross_check(slice0, Q, brute_triangle(PAIR))
    # no pairing or marginal audit: they need the all-cells level 0
    assert report.checks_run == ("derivations", "symmetry")
    assert report.pairing_mismatches == report.marginal_mismatches == []
    assert report.symmetry_mismatches == []
    # the slot-1 lift reads the empty rows of the other cell, so every
    # via-1 route disagrees, and only those
    assert len(report.derivation_mismatches) == 10
    assert {via for _, via in report.derivation_mismatches} == {1}


def test_strong_invariance_refuses_n_above_bound_up_front():
    # 8^n triples: n = 10 would take months, so it is refused before any
    # anchor is counted
    with pytest.raises(ValueError, match="n <= 9"):
        strong_invariance_check(parity_partition(10))


PS_PLAIN = PerfectStructure.from_rows(2, [[2, 0], [0, 2], [2, 0], [0, 2]])


@pytest.mark.parametrize("call, message", [
    (lambda: PartitionInstance.from_cells(3, [[0, 8], [1, 2, 3, 4, 5, 6, 7]]),
     "vertex 8 outside the 3-cube"),
    (lambda: distance_distribution([5]), "at least two vertices"),
    (lambda: PerfectStructure.from_rows(2, [[1], [1], [1]]),
     "expected 4 value rows, got 3"),
    (lambda: PerfectStructure.from_rows(2, [[1], [1, 0], [1], [1]]),
     "inconsistent lengths"),
    (lambda: verify_perfect_structure(
        PS_PLAIN, validate_quotient([[0, 3], [1, 2]], 3)),
     "dimensions disagree"),
    (lambda: ps_brute_interweight(PS_PLAIN, 4), "vertex 4 outside the 2-cube"),
    (lambda: search_partitions(2, validate_quotient([[0, 3], [1, 2]], 3)),
     "matrix is for n = 3, search asked for n = 2"),
])
def test_oracle_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_search_skips_colourings_that_leave_a_cell_empty():
    # a disconnected support: only one-colour cubes keep every row, and
    # each leaves a cell empty
    result = search_partitions(3, [[3, 0], [0, 3]], limit=10)
    assert result.partitions == []
    assert result.complete


@pytest.mark.parametrize("n, limit", [(3, 1.5), (3, True), (3.0, 1),
                                      (True, 1)])
def test_search_refuses_an_n_or_limit_that_is_not_an_int(n, limit):
    with pytest.raises(ValueError, match="not an integer"):
        search_partitions(n, validate_quotient([[0, 3], [1, 2]], 3),
                          limit=limit)


def test_strong_invariance_names_the_anchors_that_disagree(monkeypatch,
                                                           tmp_path, capsys):
    # the anchored table of vertex 7, the second anchor of cell 1 of the
    # pair partition, gains a unit at index (1, 2, 2) of triple (1, 0, 1)
    honest = oracle.brute_interweight

    def tampered(P, v, force=False):
        table = honest(P, v, force)
        if v == 7:
            table.entries[(1, 0, 1)] += TensorVector.unit(P.m, (1, 2, 2))
        return table
    monkeypatch.setattr(oracle, "brute_interweight", tampered)
    detail = "cell 1: anchors 0 and 7 disagree at (1, 0, 1)"
    assert strong_invariance_check(PAIR) == InvarianceResult(
        status="fails", witness=(1, 0, 7, (1, 0, 1)), detail=detail)
    path = tmp_path / "pair-partition.json"
    path.write_text(json.dumps({"n": 3, "m": 2, "cells": PAIR.cells()}),
                    encoding="utf-8")
    assert main(["oracle", "invariance", "--partition", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "fails", "witness": [1, 0, 7, [1, 0, 1]], "detail": detail}


Q_PAIR = validate_quotient([[0, 3], [1, 2]], 3)


@pytest.mark.parametrize("call, message", [
    # a pin the search used to ignore or fail on with a TypeError
    (lambda: search_partitions(3, Q_PAIR, limit=10, pins={1.5: 2}),
     "not an integer: 1.5"),
    (lambda: search_partitions(3, Q_PAIR, pins={0: 1.5}),
     "not an integer: 1.5"),
    (lambda: search_partitions(3, Q_PAIR, pins={0: True}),
     "not an integer: True"),
    # vertices that used to wrap around or land outside the cube
    (lambda: spectrum_of_multiset({-1: 2}, parity_partition(3)),
     "vertex -1 outside the 3-cube"),
    (lambda: spectrum_of_multiset([8], parity_partition(3)),
     "vertex 8 outside the 3-cube"),
    (lambda: spectrum_of_multiset([1.0], parity_partition(3)),
     "not an integer: 1.0"),
    (lambda: multi_neighborhood([99], 3), "vertex 99 outside the 3-cube"),
    (lambda: multi_neighborhood({-1: 1}, 3), "vertex -1 outside the 3-cube"),
    (lambda: multi_neighborhood([1.0], 3), "not an integer: 1.0"),
    (lambda: multi_neighborhood([0], 3.0), "not an integer: 3.0"),
    (lambda: multi_neighborhood([0], -1), "negative dimension n = -1"),
    # stored dimensions that used to build an object or raise TypeError
    (lambda: PartitionInstance.from_cells(True, [[0], [1]]),
     "not an integer: True"),
    (lambda: PartitionInstance.from_cells(1.0, [[0], [1]]),
     "not an integer: 1.0"),
    (lambda: PerfectStructure.from_rows(True, [[1], [1]]),
     "not an integer: True"),
    (lambda: PerfectStructure.from_rows(1.0, [[1], [1]]),
     "not an integer: 1.0"),
    (lambda: parity_partition(True), "not an integer: True"),
    (lambda: parity_partition(15), "n <= 14; got 15"),
    (lambda: singleton_partition(True), "not an integer: True"),
    (lambda: singleton_partition(0), "n <= 14; got 0"),
    # float vertices that used to raise TypeError
    (lambda: PartitionInstance.from_cells(1, [[0], [1.0]]),
     "not an integer: 1.0"),
    (lambda: PartitionInstance.from_cells(1, [[0], [True]]),
     "not an integer: True"),
    (lambda: brute_interweight(PAIR, 1.0), "not an integer: 1.0"),
    (lambda: set_triangle_multiset([0, 1, 2.0], 3), "not an integer: 2.0"),
    (lambda: set_triangle_multiset([0, 1, 3], 3.0), "not an integer: 3.0"),
    (lambda: ps_brute_interweight(PS_PLAIN, 1.0), "not an integer: 1.0"),
])
def test_oracle_refuses_bad_vertices_and_dimensions(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    # multiplicities that used to come back out as floats or bools
    (lambda: multi_neighborhood({0: 1.5}, 2), "not an integer: 1.5"),
    (lambda: multi_neighborhood({0: True}, 2), "not an integer: True"),
    (lambda: spectrum_of_multiset({0: 0.5}, parity_partition(2)),
     "not an integer: 0.5"),
    (lambda: spectrum_of_multiset({0: False}, parity_partition(2)),
     "not an integer: False"),
    # a node budget that used to run as 1 or fail inside the search
    (lambda: search_partitions(3, Q_PAIR, max_nodes=True),
     "not an integer: True"),
    (lambda: search_partitions(3, Q_PAIR, max_nodes="9"),
     "not an integer: '9'"),
    (lambda: search_partitions(3, Q_PAIR, max_nodes=0),
     "max_nodes must be at least 1, got 0"),
    (lambda: search_partitions(3, Q_PAIR, max_nodes=-5),
     "max_nodes must be at least 1, got -5"),
    # shapes that used to build m = 0 or raise TypeError
    (lambda: PerfectStructure.from_rows(1, [[], []]),
     "value rows have no entries"),
    (lambda: PartitionInstance.from_cells(2, [[0, 3], 5]),
     "cell 2 is no list of vertices: 5"),
    (lambda: PartitionInstance.from_cells(2, [None, [0, 1, 2, 3]]),
     "cell 1 is no list of vertices: None"),
    # records built by hand, which used to be stored unchecked and given
    # verdicts: an equitable colouring with unlabelled vertices, a
    # perfect structure computed in floats, partitions of another S
    (lambda: verify_equitable(PartitionInstance(n=2, m=1,
                                                color=(1, 0, 0, 1))),
     r"vertices not covered: \[1, 2\]"),
    (lambda: verify_perfect_structure(
        PerfectStructure(n=1, m=1, values=((0.5,), (0.5,))),
        validate_quotient([[1]], 1)),
     "not an exact value: 0.5"),
    (lambda: search_partitions(2, QuotientMatrix(n=2, rows=((1, 2), (2, 1))),
                               limit=10 ** 6),
     "row 1 sums to 3, expected n = 2"),
    (lambda: PartitionInstance(n=15, m=1, color=()), "n <= 14; got 15"),
    (lambda: PartitionInstance(n=2, m=2.0, color=(1, 2, 1, 2)),
     "not an integer: 2.0"),
    (lambda: PartitionInstance(n=2, m=2, color=(1, 2, 1)),
     "expected 4 labels, got 3"),
    (lambda: PartitionInstance(n=2, m=2, color=(1, 2, 1, 2.0)),
     "not an integer: 2.0"),
    (lambda: PartitionInstance(n=2, m=2, color=(1, 2, True, 2)),
     "not an integer: True"),
    (lambda: PartitionInstance(n=2, m=3, color=(1, 2, 1, 2)),
     "cell 3 is empty"),
    (lambda: PartitionInstance(n=2, m=2, color=(1, 2, 3, 2)),
     r"vertices not covered: \[2\]"),
    (lambda: PerfectStructure(n=2, m=1, values=((1,),) * 3),
     "expected 4 value rows, got 3"),
    (lambda: PerfectStructure(n=1, m=True, values=((1,), (1,))),
     "not an integer: True"),
    (lambda: PerfectStructure(n=1, m=0, values=((), ())),
     "value rows have no entries"),
    (lambda: PerfectStructure(n=1, m=2, values=((1, 0), (1,))),
     "value rows have inconsistent lengths"),
    (lambda: PerfectStructure(n=1, m=1, values=(("1/2",), (1,))),
     "not an exact value: '1/2'"),
    (lambda: PerfectStructure(n=1, m=1, values=((False,), (1,))),
     "not an exact value: False"),
])
def test_oracle_refuses_bad_multiplicities_budgets_and_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _compositions(n, m):
    """Every m-tuple of nonnegative ints that sums to n."""
    if m == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n + 1)
            for rest in _compositions(n - a, m - 1)]


def _screened(n):
    """Every 2- and 3-cell S for the n-cube that `validate_quotient` and
    `feasibility_conditions` pass."""
    found = []
    for m in (2, 3):
        for rows in itertools.product(_compositions(n, m), repeat=m):
            try:
                Q = validate_quotient(rows, n)
                report = feasibility_conditions(Q)
            except InvalidQuotient:
                continue
            if report.verdict == "candidate":
                found.append(Q)
    return found


def _relabelled(P, perm, shift):
    """P's image under the cube automorphism v -> perm(v) XOR shift, where
    perm moves coordinate i to coordinate perm[i]."""
    def image(v):
        return sum(1 << perm[i] for i in range(P.n) if v >> i & 1) ^ shift
    return PartitionInstance.from_cells(
        P.n, [[image(v) for v in cell] for cell in P.cells()])


def test_every_screened_small_matrix_is_realized_and_agrees_with_the_oracle():
    # every S with two or three cells and n <= 5 that the screens pass
    # has a partition; under a seeded cube automorphism it still has
    # quotient S, its brute-force tables equal the engine's, and
    # certify never calls it nonexistent
    rng = random.Random("screened-small-matrices")
    screened = {n: _screened(n) for n in range(1, 6)}
    assert [len(screened[n]) for n in range(1, 6)] == [1, 5, 11, 24, 37]
    for n, matrices in screened.items():
        for Q in matrices:
            found = search_partitions(n, Q).partitions
            assert found, Q
            P = _relabelled(found[0], rng.sample(range(n), n),
                            rng.randrange(1 << n))
            assert verify_equitable(P) == Q
            assert (brute_triangle(P).entries
                    == build_table(Q, TRIANGLE).entries), Q
            v = rng.randrange(1 << n)
            engine = build_table(Q, INTERWEIGHT)
            for t, vec in brute_interweight(P, v).entries.items():
                assert list(vec.entries) == [
                    engine.entries[t].get(*index)
                    if index[0] == P.color[v] else 0
                    for index in iter_index_triples(Q.m)], (Q, v, t)
            cert = certify(Q.rows, n)
            assert (cert.verdict, cert.violations_found) == ("candidate", 0), Q
