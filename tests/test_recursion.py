"""Distribution tables: recursion, scanning, internal consistency."""

import copy
import itertools
import math
import pickle
import random
import re
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from eqcube.exact_linalg import TensorVector, flat_index, iter_index_triples
from eqcube.oracle import singleton_partition, verify_equitable
from eqcube import recursion
from eqcube.quotient import cell_sizes, validate_quotient
from eqcube.recursion import (INTERWEIGHT, TRIANGLE, DistributionTable,
                              Violation, build_table, canonical_via,
                              common_denominator, cross_check,
                              default_initial, derive_entry, entry_scale,
                              initial_interweight, initial_triangle,
                              iter_table_levels, iter_triples_of_level,
                              lifts_for, scan_violations, weight_distribution)

Q_PAIR = validate_quotient([[0, 3], [1, 2]], 3)
Q22 = validate_quotient([[0, 22, 0], [5, 6, 11], [0, 10, 12]], 22)
Q_FIFTHS = validate_quotient([[0, 3], [2, 1]], 3)  # sizes 16/5, 24/5


def test_initial_vectors():
    assert list(initial_triangle((2, 6)).entries) == [2, 0, 0, 0, 0, 0, 0, 6]
    assert list(initial_triangle((12, 20)).entries) == [12, 0, 0, 0, 0, 0, 0, 20]
    assert list(initial_triangle((1,)).entries) == [1]
    assert list(initial_interweight(2).entries) == [1, 0, 0, 0, 0, 0, 0, 1]
    assert list(initial_interweight(1).entries) == [1]
    w3 = initial_interweight(3)
    assert w3.get(1, 1, 1) == w3.get(2, 2, 2) == w3.get(3, 3, 3) == 1
    assert sum(w3.entries) == 3


def test_iter_triples_of_level_is_lexicographic():
    assert list(iter_triples_of_level(0)) == [(0, 0, 0)]
    assert list(iter_triples_of_level(2)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]


def test_canonical_via_takes_first_positive_part():
    assert canonical_via((2, 0, 1)) == 1
    assert canonical_via((0, 3, 1)) == 2
    assert canonical_via((0, 0, 4)) == 3
    with pytest.raises(ValueError):
        canonical_via((0, 0, 0))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_permuted_is_the_map_over_slot_positions(m):
    # the reference reads, at each flat position, the flat position of
    # its index permuted by the order, one entry at a time; every order
    # of the kinds' symmetries and the rest of the six, ints and
    # Fractions
    rng = random.Random(f"permuted:{m}")
    vec = TensorVector(m, [rng.choice((rng.randint(-99, 99),
                                       Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 9))))
                           for _ in range(m ** 3)])
    orders = [order for symmetries in recursion._SYMMETRIES.values()
              for _, order in symmetries]
    orders += [o for o in itertools.permutations(range(3)) if o not in orders]
    for order in orders:
        positions = [flat_index(m, *(index[o] for o in order))
                     for index in iter_index_triples(m)]
        got = vec.permuted(order)
        assert type(got) is TensorVector and got.m == m
        assert got.entries == tuple(map(vec.entries.__getitem__, positions))
        assert list(map(type, got.entries)) == [
            type(vec.entries[p]) for p in positions]


def test_table_size_cap_boundary(monkeypatch):
    # a table to level L holds C(L + 3, 3) m^3 entries: a table at the
    # cap builds, one entry over it is refused unless forced
    assert recursion.table_depth(None, 179, 1) == 179  # 988260 entries
    with pytest.raises(ValueError, match="1004731 entries, more than the "
                       "cap of 1000000; pass --force"):
        recursion.table_depth(None, 180, 1)
    assert recursion.table_depth(None, 180, 1, force=True) == 180
    assert recursion.table_depth(90, 400, 1) == 90
    assert math.comb(22 + 3, 3) * 3 ** 3 == 62100  # the 22-cube's
    # the pair partition's table to level 3 holds C(6, 3) * 8 = 160
    monkeypatch.setattr(recursion, "MAX_TABLE_ENTRIES", 160)
    whole = build_table(Q_PAIR)
    monkeypatch.setattr(recursion, "MAX_TABLE_ENTRIES", 159)
    for kind in (TRIANGLE, INTERWEIGHT):
        with pytest.raises(ValueError, match="a 2-cell table to level 3 "
                           "holds 160 entries, more than the cap of 159"):
            build_table(Q_PAIR, kind)
    assert build_table(Q_PAIR, force=True) == whole
    assert list(build_table(Q_PAIR, max_level=2).entries)[-1] == (2, 0, 0)


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_a_table_over_the_cap_is_refused_before_any_step(monkeypatch, kind):
    steps = []
    monkeypatch.setattr(recursion, "derive_entry",
                        lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="10827401 entries"):
        build_table(validate_quotient([[400]], 400), kind)
    assert steps == []


@pytest.mark.parametrize("n, max_level, message", [
    (3, 2.5, "not an integer: 2.5"),
    (3, True, "not an integer: True"),
    (3, 4.5, "max_level must lie in"),
    (3.0, None, "not an integer: 3.0"),
    (True, 1, "not an integer: True"),
    (3, "2", "not an integer: '2'"),
])
@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_a_level_or_dimension_that_is_not_an_int_is_refused_before_any_step(
        monkeypatch, kind, n, max_level, message):
    steps = []
    monkeypatch.setattr(recursion, "derive_entry",
                        lambda *args: steps.append(args))
    if type(n) is int:
        Q = replace(Q_PAIR, n=n)
        with pytest.raises(ValueError, match=message):
            build_table(Q, kind, max_level=max_level)
    else:
        # a float or bool n is refused when the matrix is built, by hand
        # too, so no table can be asked for
        with pytest.raises(ValueError, match=message):
            replace(Q_PAIR, n=n)
    assert steps == []


def test_build_table_level_zero_only():
    t = build_table(Q_PAIR, TRIANGLE, max_level=0)
    assert list(t.entries) == [(0, 0, 0)]
    assert list(t.entries[(0, 0, 0)].entries) == [2, 0, 0, 0, 0, 0, 0, 6]


def test_build_table_rejects_level_beyond_dimension():
    with pytest.raises(ValueError):
        build_table(Q_PAIR, TRIANGLE, max_level=4)
    with pytest.raises(ValueError):
        build_table(Q_PAIR, "weights")


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_build_table_refuses_an_initial_vector_of_another_m(monkeypatch,
                                                            kind):
    steps = []
    monkeypatch.setattr(recursion, "derive_entry",
                        lambda *args: steps.append(args))
    with pytest.raises(ValueError,
                       match="initial vector has m=3, matrix m=2"):
        build_table(Q_PAIR, kind, initial=initial_interweight(3))
    assert steps == []


def test_pair_partition_triangle_values():
    # enumeration over the realizing partition (cell 1 = {000, 111})
    # fixes every count; two levels spot-checked here, the rest in the
    # oracle equivalence tests
    t = build_table(Q_PAIR, TRIANGLE)
    assert list(t.entries[(0, 0, 1)].entries) == [0, 6, 0, 0, 0, 0, 6, 12]
    assert t.entries[(1, 0, 0)].get(1, 2, 2) == 6
    assert t.entries[(0, 3, 0)].get(1, 2, 2) == 0
    assert t.entries[(0, 3, 0)].get(1, 1, 2) == 0
    assert sum(v for tr in t.entries for v in t.entries[tr].entries) == 8 ** 3


def test_table_triples_scan_order():
    t = build_table(Q_PAIR, TRIANGLE, max_level=2)
    assert list(t.entries) == [(0, 0, 0),
                               (0, 0, 1), (0, 1, 0), (1, 0, 0),
                               (0, 0, 2), (0, 1, 1), (0, 2, 0),
                               (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    # one cached tuple per depth is the order of every table
    assert tuple(t.entries) == recursion.table_triples(2)
    assert recursion.table_triples(22) is recursion.table_triples(22)


def test_iter_table_levels_streams_the_same_table():
    # the stream holds the scaled U^t = t1! t2! t3! D T^t; divided back
    # it is exactly the table
    whole = build_table(Q_PAIR, INTERWEIGHT)
    initial = initial_interweight(2)
    D = common_denominator(initial)
    seen = {}
    for level in iter_table_levels(Q_PAIR, INTERWEIGHT, initial, 3):
        seen.update(level)
    unscaled = {t: TensorVector(2, (Fraction(u, entry_scale(t, D))
                                    for u in U.entries))
                for t, U in seen.items()}
    assert unscaled == whole.entries


def test_weight_distribution_pair_partition():
    # anchored counts for cell 1 = {000, 111}: from 000 the three
    # distance-1 and the three distance-2 words all lie in cell 2, the
    # single distance-3 word is 111
    W = weight_distribution(Q_PAIR)
    assert [w[0] for w in W] == [(1, 0), (0, 3), (0, 3), (1, 0)]
    assert [w[1] for w in W] == [(0, 1), (1, 2), (1, 2), (0, 1)]


def test_weight_distribution_single_cell_is_binomial():
    W = weight_distribution(validate_quotient([[4]], 4))
    assert [w[0][0] for w in W] == [math.comb(4, r) for r in range(5)]


def test_weight_distribution_22_cube_shows_no_contradiction():
    W = weight_distribution(Q22)
    for mat in W:
        for row in mat:
            for v in row:
                assert type(v) is int and v >= 0


@pytest.mark.parametrize("Q", [Q_PAIR, Q22,
                               verify_equitable(singleton_partition(3))],
                         ids=["pair", "22-cube", "singleton-3-cube"])
def test_weight_distribution_is_the_interweight_line(Q):
    W = weight_distribution(Q)
    table = build_table(Q, INTERWEIGHT)
    assert len(W) == Q.n + 1
    for w, mat in enumerate(W):
        vec = table.entries[(w, 0, 0)]
        assert len(mat) == Q.m and all(len(row) == Q.m for row in mat)
        for i in range(1, Q.m + 1):
            for j in range(1, Q.m + 1):
                assert mat[i - 1][j - 1] == vec.get(i, j, j), (w, i, j)


def test_scan_violations_empty_for_realizable_matrix():
    t = build_table(Q_PAIR, TRIANGLE)
    assert scan_violations(t, sizes=cell_sizes(Q_PAIR)) == []


def test_scan_violations_negative_entries():
    Q = validate_quotient([[0, 5], [3, 2]], 5)
    v = scan_violations(build_table(Q, TRIANGLE), sizes=cell_sizes(Q))
    assert v, "negative entries expected"
    first = v[0]
    assert first.triple == (0, 2, 2)
    assert first.index == (2, 1, 1)
    assert first.value == -120
    assert first.reason == "negative"
    assert all(x.reason == "negative" for x in v)


def test_scan_violations_non_integer_entries():
    Q = validate_quotient([[0, 3], [2, 1]], 3)
    v = scan_violations(build_table(Q, TRIANGLE), sizes=cell_sizes(Q))
    ni = [x for x in v if x.reason == "non-integer"]
    assert ni
    assert ni[0].triple == (0, 0, 2)
    assert ni[0].index == (1, 1, 1)
    assert ni[0].value == Fraction(24, 5)


def test_scan_violations_interweight_tests_the_entry_itself():
    t = build_table(Q_FIFTHS, INTERWEIGHT)
    v = scan_violations(t, sizes=cell_sizes(Q_FIFTHS))
    ni = [x for x in v if x.reason == "non-integer"]
    assert ni
    assert (ni[0].triple, ni[0].index, ni[0].value) == ((0, 0, 2), (1, 1, 1),
                                                        Fraction(3, 2))
    assert all(x.value.denominator != 1 for x in ni)
    # cell sizes only scale triangle entries: an interweight scan ignores them
    assert scan_violations(t, sizes=(7, Fraction(1, 3))) == v


@pytest.mark.parametrize("sizes", [(2,), (2, 6, 1)], ids=["fewer", "more"])
@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_scan_violations_refuses_sizes_of_another_length(kind, sizes):
    with pytest.raises(ValueError, match=f"{len(sizes)} cell sizes for a "
                       f"table with m=2"):
        scan_violations(build_table(Q_PAIR, kind), sizes=sizes)


def test_scan_divisibility_matches_fraction_division():
    # v % size == 0 against the reduced denominator of Fraction(v) / size,
    # on tables with fractional cell sizes (32/5, 48/5 and 16/5, 24/5) and
    # fractional entries, under those sizes and seeded rational ones
    rng = random.Random(20134)
    draws = [tuple(Fraction(rng.randint(1, 60), rng.randint(1, 12))
                   for _ in range(2)) for _ in range(20)]
    for Q in (validate_quotient([[1, 3], [2, 2]], 4), Q_FIFTHS):
        for kind in (TRIANGLE, INTERWEIGHT):
            table = build_table(Q, kind)
            assert any(type(e) is Fraction for vec in table.entries.values()
                       for e in vec.entries)
            for sizes in [cell_sizes(Q)] + draws:
                anchor = sizes if kind == TRIANGLE else (1, 1)
                expected = [
                    Violation(t, index, Fraction(v),
                              "negative" if v < 0 else "non-integer")
                    for t, vec in table.entries.items()
                    for index, v in zip(iter_index_triples(2), vec.entries)
                    if v < 0
                    or (Fraction(v) / anchor[index[0] - 1]).denominator != 1]
                assert scan_violations(table, sizes) == expected, (Q, kind)
                assert any(x.reason == "non-integer" for x in expected)


def naive_sites(table, sizes):
    """scan_violations' findings by one test per entry, in scan order."""
    anchor = sizes if table.kind == TRIANGLE else (1,) * table.m
    sites = []
    for t, vec in table.entries.items():
        for index, v in zip(iter_index_triples(table.m), vec.entries):
            if v < 0:
                sites.append((t, index, v, "negative"))
            elif (Fraction(v) / anchor[index[0] - 1]).denominator != 1:
                sites.append((t, index, v, "non-integer"))
    return sites


def planted(rng, table):
    """A copy of the table with negatives, non-integers and harmless
    multiples planted at seeded entries of about a third of its vectors."""
    entries = {}
    for t, vec in table.entries.items():
        values = list(vec.entries)
        if rng.random() < 1 / 3:
            for _ in range(rng.randint(1, 3)):
                values[rng.randrange(len(values))] = rng.choice([
                    -rng.randint(1, 50),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                    rng.randint(0, 40),
                    12 * rng.randint(0, 9)])
        entries[t] = TensorVector(table.m, values)
    return replace(table, entries=entries)


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_violation_sites_match_a_naive_scan(kind):
    # seeded plants on tables with integral cell sizes (the pair
    # partition, the 22-cube to level 6) and fractional ones (32/5 and
    # 48/5 for [[1, 3], [2, 2]])
    rng = random.Random(f"violation_sites:{kind}")
    tables = [(Q_PAIR, None), (Q22, 6),
              (validate_quotient([[1, 3], [2, 2]], 4), None)]
    for Q, level in tables:
        table = build_table(Q, kind, max_level=level)
        reasons = set()
        for _ in range(4):
            tampered = planted(rng, table)
            want = naive_sites(tampered, cell_sizes(Q))
            got = scan_violations(tampered, cell_sizes(Q))
            assert [(x.triple, x.index, x.value, x.reason)
                    for x in got] == want, Q
            reasons |= {reason for *_, reason in want}
            # the orbit scan's count of each vector agrees with the walk
            anchor = (cell_sizes(Q) if kind == TRIANGLE
                      else (1,) * table.m)
            size_at = recursion._anchor_sizes(tuple(anchor))[0]
            assert [recursion._count_violations(vec.entries, size_at)
                    for vec in tampered.entries.values()] == [
                sum(site[0] == t for site in want)
                for t in tampered.entries], Q
        assert reasons == {"negative", "non-integer"}, Q


def test_scan_violations_order_is_level_triple_index():
    Q = validate_quotient([[0, 5], [3, 2]], 5)
    v = scan_violations(build_table(Q, TRIANGLE), sizes=cell_sizes(Q))
    keys = [(sum(x.triple), x.triple, x.index) for x in v]
    assert keys == sorted(keys)


def test_scan_violations_finds_the_22_cube_witness():
    t = build_table(Q22, TRIANGLE, max_level=17)
    v = scan_violations(t, sizes=cell_sizes(Q22))
    assert any(x.triple == (0, 8, 9) and x.index == (1, 1, 1)
               and x.reason == "negative" for x in v)


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_cross_check_clean_on_pair_partition(kind):
    other = INTERWEIGHT if kind == TRIANGLE else TRIANGLE
    table = build_table(Q_PAIR, kind)
    companion = build_table(Q_PAIR, other)
    rep = cross_check(table, Q_PAIR, companion=companion)
    assert rep.ok
    assert rep.checks_run == ("derivations", "symmetry", "pairing",
                              "marginals")


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_cross_check_reads_standardness_from_level_0(kind):
    # a standard level 0 passed explicitly is still standard: the audit
    # compares level 0 with default_initial, not with how it was given
    other = INTERWEIGHT if kind == TRIANGLE else TRIANGLE
    table = build_table(Q_PAIR, kind, initial=default_initial(Q_PAIR, kind))
    companion = build_table(Q_PAIR, other,
                            initial=default_initial(Q_PAIR, other))
    rep = cross_check(table, Q_PAIR, companion=companion)
    assert rep.ok
    assert rep.checks_run == ("derivations", "symmetry", "pairing",
                              "marginals")


def test_cross_check_consistent_even_for_nonexistent_matrix():
    # recursion consistency does not depend on a partition existing
    Q = validate_quotient([[0, 5], [3, 2]], 5)
    rep = cross_check(build_table(Q, TRIANGLE), Q)
    assert rep.ok
    assert "pairing" not in rep.checks_run


def test_cross_check_refuses_a_mismatched_companion_before_any_work(
        monkeypatch):
    T = build_table(Q_PAIR, TRIANGLE)
    W = build_table(Q_PAIR, INTERWEIGHT)
    W22 = build_table(Q22, INTERWEIGHT, max_level=1)
    calls = []
    monkeypatch.setattr(recursion, "derive_entry",
                        lambda *args: calls.append(args) or derive_entry(*args))
    for companion, message in [
            (T, "other kind"),
            (replace(W, n=4), "n=4, m=2; the table has n=3, m=2"),
            (replace(W22, n=3), "n=3, m=3; the table has n=3, m=2")]:
        with pytest.raises(ValueError, match=message):
            cross_check(T, Q_PAIR, companion)
    assert calls == []
    assert cross_check(T, Q_PAIR, W).ok and calls


def test_cross_check_refuses_a_matrix_of_another_n_or_m_before_any_work(
        monkeypatch):
    T = build_table(Q_PAIR, TRIANGLE)
    calls = []
    monkeypatch.setattr(recursion, "derive_entry",
                        lambda *args: calls.append(args) or derive_entry(*args))
    for Q, message in [
            (validate_quotient([[0, 4], [1, 3]], 4),
             "matrix has n=4, m=2; the table has n=3, m=2"),
            (validate_quotient([[0, 1, 2], [1, 1, 1], [1, 2, 0]], 3),
             "matrix has n=3, m=3; the table has n=3, m=2")]:
        with pytest.raises(ValueError, match=message):
            cross_check(T, Q)
    assert calls == []


def test_cross_check_audits_an_interweight_table_without_cell_sizes():
    # a disconnected support fixes no cell sizes, so no triangle level 0
    # is standard; the interweight one still is, and gets its marginals
    Q = validate_quotient([[2, 0], [0, 2]], 2)
    rep = cross_check(build_table(Q, INTERWEIGHT), Q)
    assert rep.ok
    assert rep.checks_run == ("derivations", "symmetry", "marginals")


def test_cross_check_single_cell_marginals():
    Q = validate_quotient([[4]], 4)
    rep = cross_check(build_table(Q, TRIANGLE), Q)
    assert rep.ok and "marginals" in rep.checks_run


def test_cross_check_skips_marginals_for_external_initial():
    # sum of tensor cubes (2,0) and (1,1): symmetric, but not the
    # size-diagonal, so the marginal identity cannot be expected
    ext = TensorVector(2, [9, 1, 1, 1, 1, 1, 1, 1])
    t = build_table(Q_PAIR, TRIANGLE, initial=ext)
    rep = cross_check(t, Q_PAIR)
    assert rep.checks_run == ("derivations", "symmetry")
    assert rep.ok


# (1, 1, 2) alone has no symmetry; (1, 2, 2) alone has the leg exchange
# but not the swap of slots 1 and 2
ASYMMETRIC = TensorVector.unit(2, (1, 1, 2))
LEGS_ONLY = TensorVector.unit(2, (1, 2, 2))


@pytest.mark.parametrize("kind, initial", [
    (TRIANGLE, ASYMMETRIC), (INTERWEIGHT, ASYMMETRIC), (TRIANGLE, LEGS_ONLY),
], ids=["triangle", "interweight", "triangle-legs-only"])
def test_initial_vector_without_the_kinds_symmetry_is_refused(
        monkeypatch, kind, initial):
    derived = []
    monkeypatch.setattr(recursion, "derive_entry",
                        lambda *args: derived.append(args))
    with pytest.raises(ValueError, match="symmetry"):
        build_table(Q_PAIR, kind, initial=initial)
    with pytest.raises(ValueError, match="symmetry"):
        next(iter_table_levels(Q_PAIR, kind, initial, 3))
    assert derived == []
    # climbing every triple needs no symmetry
    levels = iter_table_levels(Q_PAIR, kind, initial, 3, every_triple=True)
    assert len(list(levels)) == 4


def _representatives(kind, level):
    """Triples of a level with r1 >= r2 >= r3 (triangle) or r2 >= r3
    (interweight), in lexicographic order."""
    return [t for t in iter_triples_of_level(level)
            if t[1] >= t[2] and (kind == INTERWEIGHT or t[0] >= t[1])]


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_build_table_steps_once_per_orbit_representative(monkeypatch, kind):
    steps, plans = [], []
    derive, orbits = recursion.derive_entry, recursion._orbits

    def counted_derive(levels, lifts, n, triple, via):
        steps.append(triple)
        return derive(levels, lifts, n, triple, via)

    def counted_orbits(kind, triples):
        plans.append(kind)
        return orbits(kind, triples)

    monkeypatch.setattr(recursion, "derive_entry", counted_derive)
    monkeypatch.setattr(recursion, "_orbits", counted_orbits)
    build_table(Q22, kind)
    assert steps == [t for level in range(1, 23)
                     for t in _representatives(kind, level)]
    # the climb and the division share one orbit plan per level
    assert plans == [kind] * 23


PAIR_ENTRIES = build_table(Q_PAIR, TRIANGLE).entries


def _without(triple):
    return {t: v for t, v in PAIR_ENTRIES.items() if t != triple}


# each refusal of the table's rule, on the pair 3-cube table
@pytest.mark.parametrize("fields, message", [
    ({"entries": _without((0, 0, 1))}, "no entry for triple (0, 0, 1)"),
    ({"entries": _without((0, 0, 0))}, "no entry for triple (0, 0, 0)"),
    ({"entries": {**PAIR_ENTRIES, (0, 1, 0): (1,) * 8}},
     "entry (0, 1, 0) is no TensorVector with m = 2"),
    ({"entries": {**PAIR_ENTRIES, (0, 1, 0): TensorVector.zero(3)}},
     "entry (0, 1, 0) is no TensorVector with m = 2"),
    ({"entries": {}}, "no entry for triple (0, 0, 0)"),
    ({"entries": None}, "entries must map triples to vectors, got NoneType"),
    ({"entries": {**_without((0, 0, 1)), (9, 9, 9): TensorVector.zero(2)}},
     "no entry for triple (0, 0, 1)"),
    ({"n": 2}, "20 entries, more than a table to level n = 2 holds"),
    ({"kind": "pair"}, "unknown table kind 'pair'"),
    ({"n": -1}, "negative dimension n = -1"),
    ({"n": 3.0}, "not an integer: 3.0"),
    ({"m": True}, "not an integer: True"),
    ({"m": 0}, "m must be at least 1, got 0"),
], ids=["no-001", "no-000", "tuple", "wider-vector", "empty", "none",
        "stray-key", "past-n", "kind", "negative-n", "float-n", "bool-m",
        "zero-m"])
def test_a_table_is_checked_when_built(fields, message):
    table = dict(kind=TRIANGLE, n=3, m=2, entries=PAIR_ENTRIES)
    with pytest.raises(ValueError, match=re.escape(message)):
        DistributionTable(**{**table, **fields})


def test_a_table_stays_as_it_was_checked():
    given = dict(reversed(PAIR_ENTRIES.items()))
    t = DistributionTable(TRIANGLE, 3, 2, given)
    # the record keeps its own copy, in table order
    del given[(0, 0, 1)]
    assert t.entries == PAIR_ENTRIES
    assert tuple(t.entries) == recursion.table_triples(3)
    with pytest.raises(TypeError):
        del t.entries[(0, 0, 1)]
    with pytest.raises(TypeError):
        t.entries[(0, 0, 1)] = "x"
    with pytest.raises(FrozenInstanceError):
        t.entries = given
    assert cross_check(t, Q_PAIR).ok
    # a changed copy is built through the same check
    with pytest.raises(ValueError, match=re.escape(
            "no entry for triple (0, 0, 1)")):
        replace(t, entries=given)
    with pytest.raises(ValueError, match="more than a table to level n = 2"):
        replace(t, n=2)
    for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert twin == t and tuple(twin.entries) == tuple(t.entries)
        with pytest.raises(TypeError):
            del twin.entries[(0, 0, 1)]


def test_a_table_may_stop_below_n():
    for top in range(4):
        entries = {t: PAIR_ENTRIES[t] for t in recursion.table_triples(top)}
        assert DistributionTable(TRIANGLE, 3, 2, entries).entries == entries


def test_leg_exchange_suffices_for_an_interweight_table():
    table = build_table(Q_PAIR, INTERWEIGHT, initial=LEGS_ONLY)
    assert table.entries[(0, 0, 0)] == LEGS_ONLY
    assert len(table.entries) == 20
    assert cross_check(table, Q_PAIR).ok


def _tampered_pair_table(kind, triple, index):
    """The pair partition's table of the given kind, with 1 added to the
    entry at `index` of the vector at `triple`."""
    bad = dict(build_table(Q_PAIR, kind).entries)
    bad[triple] = bad[triple] + TensorVector.unit(2, index)
    return DistributionTable(kind=kind, n=3, m=2, entries=bad)


def test_cross_check_reports_tampered_entry():
    tampered = _tampered_pair_table(TRIANGLE, (0, 0, 3), (1, 1, 1))
    rep = cross_check(tampered, Q_PAIR)
    assert not rep.ok
    assert any(t_ == (0, 0, 3) for (t_, _via) in rep.derivation_mismatches)


def test_cross_check_reports_broken_triangle_symmetry_and_pairing():
    tampered = _tampered_pair_table(TRIANGLE, (0, 1, 2), (1, 1, 2))
    rep = cross_check(tampered, Q_PAIR, build_table(Q_PAIR, INTERWEIGHT))
    assert not rep.ok
    assert "pairing" in rep.checks_run
    assert ((0, 1, 2), (1, 1, 2), "swap") in rep.symmetry_mismatches
    assert ((0, 1, 2), (1, 1, 2), "cyclic") in rep.symmetry_mismatches
    assert (0, 1, 2) in rep.pairing_mismatches


def test_cross_check_reports_broken_interweight_exchange():
    tampered = _tampered_pair_table(INTERWEIGHT, (1, 0, 2), (1, 1, 2))
    rep = cross_check(tampered, Q_PAIR)
    assert not rep.ok
    assert ((1, 0, 2), (1, 1, 2), "exchange") in rep.symmetry_mismatches


def test_marginal_totals_are_multinomial():
    t = build_table(Q22, TRIANGLE, max_level=4)
    sizes = cell_sizes(Q22)
    n = 22
    for triple, vec in t.entries.items():
        r1, r2, r3 = triple
        count = (math.factorial(n)
                 // (math.factorial(r1) * math.factorial(r2)
                     * math.factorial(r3)
                     * math.factorial(n - r1 - r2 - r3)))
        for i in (1, 2, 3):
            got = sum(vec.get(i, j, k) for j in (1, 2, 3) for k in (1, 2, 3))
            assert got == sizes[i - 1] * count


def test_triangle_equals_interweight_times_sizes():
    tri = build_table(Q_PAIR, TRIANGLE)
    inter = build_table(Q_PAIR, INTERWEIGHT)
    sizes = cell_sizes(Q_PAIR)
    for triple in tri.entries:
        for (i, j, k) in iter_index_triples(2):
            assert (tri.entries[triple].get(i, j, k)
                    == inter.entries[triple].get(i, j, k) * sizes[i - 1])


def test_cached_lifts_keep_the_interweight_transpose_apart():
    triangle = lifts_for(Q22, TRIANGLE)
    interweight = lifts_for(Q22, INTERWEIGHT)
    assert lifts_for(Q22, TRIANGLE) is triangle
    assert interweight[0] == triangle[0].T
    assert interweight[0] is not triangle[0]
    assert interweight[0] != triangle[0]
    assert interweight[1:] == triangle[1:]


def scaled_pair_levels(kind, max_level):
    """The engine's scaled vectors U of the pair partition's table of
    the given kind, every triple to max_level, as the climb yields them."""
    initial = default_initial(Q_PAIR, kind)
    return {triple: U
            for level in iter_table_levels(Q_PAIR, kind, initial, max_level)
            for triple, U in level.items()}


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_one_level_past_the_dimension_vanishes(kind):
    lifts = lifts_for(Q_PAIR, kind)
    scaled = scaled_pair_levels(kind, 3)
    for triple in iter_triples_of_level(4):
        got = derive_entry(scaled, lifts, 3, triple, canonical_via(triple))
        assert got.is_zero(), triple


@pytest.mark.parametrize("triple, via", [
    ((0, 1, 1), 1), ((1, 0, 1), 2), ((1, 1, 0), 3), ((0, 0, 0), 1)])
def test_derive_entry_refuses_to_climb_a_zero_part(triple, via):
    levels = {(0, 0, 0): initial_triangle((2, 6))}
    message = re.escape(f"cannot climb part {via} of {triple}")
    with pytest.raises(ValueError, match=message):
        derive_entry(levels, lifts_for(Q_PAIR, TRIANGLE), 3, triple, via)


@pytest.mark.parametrize("via", [0, 4, -1])
def test_derive_entry_refuses_a_route_outside_1_2_3(via):
    scaled = scaled_pair_levels(TRIANGLE, 1)
    with pytest.raises(ValueError, match=f"via must be 1, 2 or 3, got {via}"):
        derive_entry(scaled, lifts_for(Q_PAIR, TRIANGLE), 3, (1, 0, 1), via)


# Full finding lists, order included.
@pytest.mark.parametrize("kind, triple, index, companion, expected", [
    (TRIANGLE, (0, 0, 3), (1, 1, 1), None, (
        [((0, 0, 3), 3)],
        [((0, 0, 3), (1, 1, 1), "cyclic"), ((3, 0, 0), (1, 1, 1), "cyclic")],
        [],
        [((0, 0, 3), 1)])),
    (TRIANGLE, (0, 1, 2), (1, 1, 2), INTERWEIGHT, (
        [((0, 1, 2), 2), ((0, 1, 2), 3)],
        [((0, 1, 2), (1, 1, 2), "swap"), ((0, 1, 2), (1, 1, 2), "cyclic"),
         ((1, 0, 2), (1, 1, 2), "swap"), ((2, 0, 1), (2, 1, 1), "cyclic")],
        [(0, 1, 2)],
        [((0, 1, 2), 1)])),
    (INTERWEIGHT, (1, 0, 2), (1, 1, 2), None, (
        [((1, 0, 2), 1), ((1, 0, 2), 3)],
        [((1, 0, 2), (1, 1, 2), "exchange"),
         ((1, 2, 0), (1, 2, 1), "exchange")],
        [],
        [((1, 0, 2), 1)])),
], ids=["triangle-derivation", "triangle-symmetry", "interweight-exchange"])
def test_cross_check_finding_lists_are_pinned(kind, triple, index, companion,
                                              expected):
    tampered = _tampered_pair_table(kind, triple, index)
    rep = cross_check(tampered, Q_PAIR,
                      companion and build_table(Q_PAIR, companion))
    assert (rep.derivation_mismatches, rep.symmetry_mismatches,
            rep.pairing_mismatches, rep.marginal_mismatches) == expected


# +1 at (1, 1, 1) of every triple of one orbit keeps every symmetry, so
# the audit must find the broken routes at the orbit's other triples too,
# not only at its representative.
@pytest.mark.parametrize("kind, orbit, derivations, marginals", [
    (TRIANGLE, [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
     [((0, 1, 1), 2), ((0, 1, 1), 3), ((1, 0, 1), 1), ((1, 0, 1), 3),
      ((1, 1, 0), 1), ((1, 1, 0), 2), ((0, 1, 2), 2), ((0, 1, 2), 3),
      ((0, 2, 1), 2), ((0, 2, 1), 3), ((1, 0, 2), 1), ((1, 0, 2), 3),
      ((1, 1, 1), 1), ((1, 1, 1), 2), ((1, 1, 1), 3), ((1, 2, 0), 1),
      ((1, 2, 0), 2), ((2, 0, 1), 1), ((2, 0, 1), 3), ((2, 1, 0), 1),
      ((2, 1, 0), 2)],
     [((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)]),
    (INTERWEIGHT, [(0, 1, 0), (0, 0, 1)],
     [((0, 0, 1), 3), ((0, 1, 0), 2), ((0, 0, 2), 3), ((0, 1, 1), 2),
      ((0, 1, 1), 3), ((0, 2, 0), 2), ((1, 0, 1), 1), ((1, 0, 1), 3),
      ((1, 1, 0), 1), ((1, 1, 0), 2), ((0, 0, 3), 3), ((0, 1, 2), 3),
      ((0, 2, 1), 2), ((0, 3, 0), 2), ((2, 0, 1), 1), ((2, 1, 0), 1)],
     [((0, 0, 1), 1), ((0, 1, 0), 1)]),
], ids=["triangle", "interweight"])
def test_cross_check_symmetric_tamper_lists_are_pinned(kind, orbit,
                                                       derivations,
                                                       marginals):
    bad = dict(build_table(Q_PAIR, kind).entries)
    for triple in orbit:
        bad[triple] = bad[triple] + TensorVector.unit(2, (1, 1, 1))
    rep = cross_check(DistributionTable(kind=kind, n=3, m=2, entries=bad),
                      Q_PAIR)
    assert (rep.derivation_mismatches, rep.symmetry_mismatches,
            rep.pairing_mismatches, rep.marginal_mismatches) == (
        derivations, [], [], marginals)


def per_triple_symmetry(table):
    """The symmetry findings of a triple-by-triple audit: at each index
    of each triple, in scan order, every generator of the kind whose
    image of the table disagrees there."""
    generators = {TRIANGLE: (("swap", (1, 0, 2)), ("cyclic", (1, 2, 0))),
                  INTERWEIGHT: (("exchange", (0, 2, 1)),)}[table.kind]
    found = []
    for t in table.entries:
        images = [(label, table.entries[(t[o[0]], t[o[1]], t[o[2]])]
                   .permuted(o)) for label, o in generators]
        for index in iter_index_triples(table.m):
            found += [(t, index, label) for label, image in images
                      if table.entries[t].get(*index) != image.get(*index)]
    return found


# A tied representative whose vector lacks its stabilizer's symmetry,
# with every other triple of its orbit filled from it as the climb fills
# them: each non-representative is then its representative permuted by
# its order, so a test of each triple against its representative alone
# would call this table symmetric.  (a, b, b) needs (0, 2, 1), which is
# no generator of the triangle kind; the walk still finds the fault,
# since it compares every triple of the orbit with its generator images.
@pytest.mark.parametrize("kind, rep, index", [
    (TRIANGLE, (2, 0, 0), (1, 1, 2)),
    (TRIANGLE, (1, 1, 0), (1, 2, 1)),
    (INTERWEIGHT, (0, 1, 1), (1, 1, 2)),
], ids=["triangle-abb", "triangle-aab", "interweight-legs"])
def test_cross_check_finds_a_broken_stabilizer_as_the_per_triple_audit(
        kind, rep, index):
    bad = dict(build_table(Q_PAIR, kind).entries)
    bad[rep] = bad[rep] + TensorVector.unit(2, index)
    _, plan = recursion._orbits(kind, iter_triples_of_level(sum(rep)))
    for triple, of, order in plan:
        if of == rep:
            bad[triple] = bad[rep].permuted(order)
    table = DistributionTable(kind=kind, n=3, m=2, entries=bad)
    want = per_triple_symmetry(table)
    assert want
    assert cross_check(table, Q_PAIR).symmetry_mismatches == want


def naive_derivations(table, Q):
    """The derivation findings of an audit of every route of every
    triple: each vector scaled by its `entry_scale`, each route
    re-derived by `derive_entry`."""
    lifts = lifts_for(Q, table.kind)
    D = common_denominator(table.entries[(0, 0, 0)])
    scaled = {t: U * entry_scale(t, D) for t, U in table.entries.items()}
    return [(t, via) for t in table.entries for via in (1, 2, 3)
            if t[via - 1] > 0
            and derive_entry(scaled, lifts, table.n, t, via) != scaled[t]]


# Every single-entry tamper of the pair partition's tables, 20 triples
# by 8 indices per kind.  Some leave the table symmetric, so the
# derivation audit runs both on the representatives with its fallback
# and on every triple.
@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_cross_check_lists_match_the_naive_audits_at_every_tamper_site(kind):
    entries = build_table(Q_PAIR, kind).entries
    symmetric = 0
    for triple in sorted(entries):
        for index in iter_index_triples(2):
            bad = {**entries,
                   triple: entries[triple] + TensorVector.unit(2, index)}
            table = DistributionTable(kind=kind, n=3, m=2, entries=bad)
            rep = cross_check(table, Q_PAIR)
            site = (triple, index)
            assert rep.symmetry_mismatches == per_triple_symmetry(table), site
            assert rep.derivation_mismatches == naive_derivations(
                table, Q_PAIR), site
            symmetric += not rep.symmetry_mismatches
    assert len(entries) == 20 and symmetric


def test_scan_violations_negative_list_is_pinned():
    Q = validate_quotient([[0, 5], [3, 2]], 5)
    by_triple = {
        (0, 2, 2): [((2, 1, 1), -120)],
        (2, 0, 2): [((1, 2, 1), -120)],
        (2, 2, 0): [((1, 1, 2), -120)],
        (0, 2, 3): [((1, 1, 1), -60), ((1, 2, 2), -60), ((2, 1, 2), -120),
                    ((2, 2, 1), -120)],
        (0, 3, 2): [((1, 1, 1), -60), ((1, 2, 2), -60), ((2, 1, 2), -120),
                    ((2, 2, 1), -120)],
        (1, 1, 3): [((1, 1, 1), -240), ((1, 2, 2), -120), ((2, 1, 2), -120)],
        (1, 2, 2): [((1, 1, 1), -360), ((1, 2, 2), -360), ((2, 1, 2), -180),
                    ((2, 2, 1), -180)],
        (1, 3, 1): [((1, 1, 1), -240), ((1, 2, 2), -120), ((2, 2, 1), -120)],
        (2, 0, 3): [((1, 1, 1), -60), ((1, 2, 2), -120), ((2, 1, 2), -60),
                    ((2, 2, 1), -120)],
        (2, 1, 2): [((1, 1, 1), -360), ((1, 2, 2), -180), ((2, 1, 2), -360),
                    ((2, 2, 1), -180)],
        (2, 2, 1): [((1, 1, 1), -360), ((1, 2, 2), -180), ((2, 1, 2), -180),
                    ((2, 2, 1), -360)],
        (2, 3, 0): [((1, 1, 1), -60), ((1, 2, 2), -120), ((2, 1, 2), -120),
                    ((2, 2, 1), -60)],
        (3, 0, 2): [((1, 1, 1), -60), ((1, 2, 2), -120), ((2, 1, 2), -60),
                    ((2, 2, 1), -120)],
        (3, 1, 1): [((1, 1, 1), -240), ((2, 1, 2), -120), ((2, 2, 1), -120)],
        (3, 2, 0): [((1, 1, 1), -60), ((1, 2, 2), -120), ((2, 1, 2), -120),
                    ((2, 2, 1), -60)],
    }
    got = scan_violations(build_table(Q, TRIANGLE), sizes=cell_sizes(Q))
    assert [(x.triple, x.index, x.value, x.reason) for x in got] == [
        (t, index, v, "negative")
        for t, found in by_triple.items() for index, v in found]


# The Q_FIFTHS interweight findings; the triangle table's are the same
# positions with each value times the anchor cell's size (T = W * D'),
# 16/5 for cell 1 and 24/5 for cell 2.
FIFTHS_FINDINGS = [
    ((0, 0, 2), (1, 1, 1), Fraction(3, 2), "non-integer"),
    ((0, 0, 2), (1, 1, 2), Fraction(3, 2), "non-integer"),
    ((0, 2, 0), (1, 1, 1), Fraction(3, 2), "non-integer"),
    ((0, 2, 0), (1, 2, 1), Fraction(3, 2), "non-integer"),
    ((2, 0, 0), (1, 1, 1), Fraction(3, 2), "non-integer"),
    ((2, 0, 0), (1, 2, 2), Fraction(3, 2), "non-integer"),
    ((0, 1, 2), (1, 2, 1), Fraction(3, 2), "non-integer"),
    ((0, 1, 2), (1, 2, 2), Fraction(3, 2), "non-integer"),
    ((0, 1, 2), (2, 2, 1), -1, "negative"),
    ((0, 2, 1), (1, 1, 2), Fraction(3, 2), "non-integer"),
    ((0, 2, 1), (1, 2, 2), Fraction(3, 2), "non-integer"),
    ((0, 2, 1), (2, 1, 2), -1, "negative"),
    ((1, 0, 2), (2, 2, 1), -1, "negative"),
    ((1, 2, 0), (2, 1, 2), -1, "negative"),
    ((2, 0, 1), (1, 1, 2), Fraction(3, 2), "non-integer"),
    ((2, 0, 1), (1, 2, 2), Fraction(-3, 2), "negative"),
    ((2, 1, 0), (1, 2, 1), Fraction(3, 2), "non-integer"),
    ((2, 1, 0), (1, 2, 2), Fraction(-3, 2), "negative"),
]


@pytest.mark.parametrize("kind", [TRIANGLE, INTERWEIGHT])
def test_scan_violations_fifths_lists_are_pinned(kind):
    sizes = cell_sizes(Q_FIFTHS)
    assert sizes == (Fraction(16, 5), Fraction(24, 5))
    factor = sizes if kind == TRIANGLE else (1, 1)
    got = scan_violations(build_table(Q_FIFTHS, kind), sizes=sizes)
    assert [(x.triple, x.index, x.value, x.reason) for x in got] == [
        (t, index, v * factor[index[0] - 1], reason)
        for t, index, v, reason in FIFTHS_FINDINGS]


def test_default_triangle_initial_holds_ints():
    # integral cell sizes give an integer level-0 vector, so every lift
    # applied to it (in eval_at_lifts, say) multiplies ints
    initial = default_initial(Q22, TRIANGLE)
    assert all(type(e) is int for e in initial.entries)
    assert initial.get(3, 3, 3) == 1982464
    fifths = default_initial(Q_FIFTHS, TRIANGLE)
    assert fifths.get(1, 1, 1) == Fraction(16, 5)
