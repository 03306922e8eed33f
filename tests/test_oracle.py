"""Ground truth by enumeration: partitions, spectra, anchored tables."""

import random
from fractions import Fraction

import pytest

from eqcube.exact_linalg import (TensorVector, flat_index,
                                 iter_index_triples)
from eqcube.oracle import (NotEquitable, PartitionInstance, PerfectStructure,
                           _triple_index, brute_interweight, brute_triangle,
                           distance_distribution, hamming, multi_neighborhood,
                           neighbors, parity_partition, ps_brute_interweight,
                           ps_initial_triangle, search_partitions,
                           set_triangle_multiset, singleton_partition,
                           spectrum_of_multiset, strong_invariance_check,
                           verify_equitable, verify_perfect_structure)
from eqcube.quotient import validate_quotient
from eqcube.recursion import INTERWEIGHT, TRIANGLE, build_table, cross_check

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
    # multiplicities pass through
    assert multi_neighborhood({0: 2}, 2) == {1: 2, 2: 2}


def test_spectrum_of_multiset():
    assert spectrum_of_multiset([0], PAIR) == (1, 0)
    assert spectrum_of_multiset(range(8), PAIR) == (2, 6)


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


def test_ps_propagation_matches_anchored_sums():
    # triangle recursion seeded with the structure's level-0 tensor must
    # reproduce the anchor-weighted brute sums at every level
    for PS in (C_PLAIN, C_MIXED):
        table = build_table(Q_ALL1, TRIANGLE, initial=ps_initial_triangle(PS))
        sums = {}
        for v in range(4):
            for triple, vec in ps_brute_interweight(PS, v).items():
                sums[triple] = sums.get(triple, TensorVector.zero(2)) + vec
        for triple, vec in sums.items():
            assert table.entries[triple] == vec, triple


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


@pytest.mark.parametrize("n", [0, 10])
def test_search_refuses_n_outside_bound_up_front(n):
    # one recursion frame per vertex: 2^10 frames pass Python's default
    # limit, so n = 10 is refused before any list of 2^n entries is made
    with pytest.raises(ValueError, match="n <= 9"):
        search_partitions(n, [[n]])


def test_search_with_contradictory_pins_is_empty():
    res = search_partitions(3, [[0, 3], [3, 0]], limit=10, pins={0: 1, 1: 1})
    assert res.complete and res.partitions == []


def test_search_node_cap_flags_incomplete():
    res = search_partitions(3, [[0, 3], [1, 2]], limit=10, max_nodes=3)
    assert not res.complete


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
