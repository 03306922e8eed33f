"""Acceptance gate: twelve end-to-end checks with runtime bounds.

Each check prints one scoreboard line of the form

    [acceptance] criterion NN: PASS|FAIL (detail)

before asserting, so running this module with -s yields a complete
pass/fail table even when something is broken.  Numbers asserted here
are either verified against the brute-force oracle module or are
hand-checkable direct counts; runtime bounds are wall-clock.
"""

import time
from fractions import Fraction

from eqcube.exact_linalg import (commutes, diag_lift, kron_lift, mat_mul,
                                 materialize)
from eqcube.krawtchouk import (N, X, classical_krawtchouk, eval_at_lifts,
                               genfun_coeff, lift_image_is_zero,
                               poly_direct, poly_recursive)
from eqcube.oracle import (PartitionInstance, PerfectStructure,
                           brute_interweight, brute_triangle,
                           distance_distribution, parity_partition,
                           ps_brute_interweight, ps_initial_triangle,
                           set_triangle_multiset, singleton_partition,
                           strong_invariance_check, verify_equitable,
                           verify_perfect_structure)
from eqcube.quotient import cell_sizes, validate_quotient
from eqcube.recursion import (INTERWEIGHT, TRIANGLE, build_table, cross_check,
                              weight_distribution)
from eqcube.screen import certify, enumerate_ci_candidates, sweep_ci


def _report(num: int, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d}{tail}"


# fixtures used across several criteria
FIX_PAIR = PartitionInstance.from_cells(3, [[0, 7], [1, 2, 3, 4, 5, 6]])
FIX_PARITY = parity_partition(4)
FIX_SINGLE2 = singleton_partition(2)
FIX_SINGLE3 = singleton_partition(3)
ALL_FIXTURES = (FIX_PAIR, FIX_PARITY, FIX_SINGLE2, FIX_SINGLE3)

S22 = [[0, 22, 0], [5, 6, 11], [0, 10, 12]]

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


def test_criterion_01_polynomial_golden_table():
    t0 = time.perf_counter()
    bad = [t for t, text in GOLDEN.items()
           if poly_recursive(*t).render() != text]
    elapsed = time.perf_counter() - t0
    _report(1, not bad and elapsed < 1.0,
            f"{len(GOLDEN) - len(bad)}/{len(GOLDEN)} canonical forms, "
            f"{elapsed:.2f}s")


def test_criterion_02_three_method_agreement():
    triples = [(a, b, s - a - b) for s in range(7)
               for a in range(s + 1) for b in range(s - a + 1)]
    assert len(triples) == 84
    t0 = time.perf_counter()
    bad = [t for t in triples
           if not (poly_recursive(*t) == poly_direct(*t) == genfun_coeff(*t))]
    elapsed = time.perf_counter() - t0
    _report(2, not bad and elapsed < 30.0,
            f"84 triples through total degree 6, {elapsed:.1f}s")


# the four 8x8 images of S=[[0,3],[1,2]] and sizes (2,6) on a flattened
# 2x2x2 tensor (i-major, k-minor), written out by hand
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


def test_criterion_03_lift_matrices_and_commutation():
    S = [[0, 3], [1, 2]]
    L1, L2, L3 = (kron_lift(S, p) for p in (1, 2, 3))
    D = diag_lift((2, 6))
    matrices_ok = (materialize(L1) == LIFT1_8x8
                   and materialize(L2) == LIFT2_8x8
                   and materialize(L3) == LIFT3_8x8
                   and materialize(D) == DIAG_8x8)
    lifts = (L1, L2, L3, D)
    got = tuple(tuple(commutes(A, B) for B in lifts) for A in lifts)
    want = tuple(tuple(not ({A, B} == {0, 3}) for B in range(4))
                 for A in range(4))
    # the one failing pair flips sides under transposition of the first lift
    d1, dd = materialize(L1), materialize(D)
    reversibility = (mat_mul(dd, d1) == mat_mul(materialize(L1.T), dd)
                     and mat_mul(dd, d1) != mat_mul(d1, dd))
    _report(3, matrices_ok and got == want and reversibility,
            "four 8x8 matrices exact; only the diagonal and slot-1 lifts "
            "fail to commute")


def test_criterion_04_nonexistence_certificate_22_cube():
    t0 = time.perf_counter()
    cert = certify(S22, 22)
    elapsed = time.perf_counter() - t0
    witness_ok = (cert.verdict == "nonexistent"
                  and cert.first_violation is not None
                  and cert.first_violation.triple == (0, 8, 9)
                  and cert.first_violation.index == (1, 1, 1)
                  and cert.first_violation.value < 0)
    W = weight_distribution(validate_quotient(S22, 22))
    weights_ok = all(x == int(x) and x >= 0
                     for mat in W for row in mat for x in row)
    _report(4, witness_ok and weights_ok and elapsed < 10.0,
            f"negative entry at (0,8,9),(1,1,1); all 23 distance matrices "
            f"nonnegative integral; {elapsed:.1f}s")


def test_criterion_05_two_cell_sweep():
    t0 = time.perf_counter()
    records = list(sweep_ci(40))
    elapsed = time.perf_counter() - t0
    extended_range = enumerate_ci_candidates(100)
    witnessed = sum(rec.witness is not None for rec in records)
    _report(5, (witnessed == len(records) == 103
                and len(extended_range) >= len(records)
                and elapsed < 300.0),
            f"{witnessed}/{len(records)} candidates witnessed, "
            f"{elapsed:.0f}s; n_max=100 enumeration available "
            f"({len(extended_range)} candidates)")


def test_criterion_06_oracle_recursion_equivalence():
    t0 = time.perf_counter()
    ok = True
    for P in ALL_FIXTURES:
        Q = verify_equitable(P)
        recursed = build_table(Q, TRIANGLE)
        if brute_triangle(P).entries != recursed.entries:
            ok = False
            break
        for triple, vec in recursed.entries.items():
            if eval_at_lifts(poly_recursive(*triple), Q) != vec:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 60.0,
            f"4 fixtures, three computation routes, {elapsed:.1f}s")


def test_criterion_07_anchor_invariance():
    results = [strong_invariance_check(P).status for P in ALL_FIXTURES]
    _report(7, all(s == "holds" for s in results),
            "anchored tables constant on every cell of every fixture")


def test_criterion_08_vanishing_beyond_dimension():
    ok = True
    details = []
    for P in (FIX_PAIR, FIX_SINGLE2, FIX_SINGLE3):
        Q = verify_equitable(P)
        n = Q.n
        over = [(a, b, n + 1 - a - b) for a in range(n + 2)
                for b in range(n + 2 - a)]
        if not all(eval_at_lifts(poly_recursive(*t), Q).is_zero()
                   for t in over):
            ok = False
        nonzero = sum(1 for t in over
                      if not lift_image_is_zero(poly_recursive(*t), Q))
        details.append(nonzero)
        if nonzero == 0:
            ok = False
    _report(8, ok,
            f"images vanish at index sum n+1 while {details} operator "
            f"polynomials per fixture are nonzero matrices")


def test_criterion_09_classical_specialization():
    half_distance = (N - X) / 2
    ok = all(poly_recursive(r, 0, 0)
             == classical_krawtchouk(r).substitute_x(half_distance)
             for r in range(6))
    _report(9, ok, "axis polynomials equal classical forms for r <= 5")


def test_criterion_10_rational_vertex_structures():
    plain = PerfectStructure.from_rows(2, [(2, 0), (0, 2), (2, 0), (0, 2)])
    mixed = PerfectStructure.from_rows(2, [(2, 0), (1, 1), (1, 1), (0, 2)])
    Q = validate_quotient([[1, 1], [1, 1]], 2)
    verified = (verify_perfect_structure(plain, Q) == (True, None)
                and verify_perfect_structure(mixed, Q) == (True, None))
    initials = (list(ps_initial_triangle(plain).entries)
                == [16, 0, 0, 0, 0, 0, 0, 16]
                and list(ps_initial_triangle(mixed).entries)
                == [10, 2, 2, 2, 2, 2, 2, 10])
    audited = all(
        cross_check(build_table(Q, TRIANGLE, initial=ps_initial_triangle(PS)),
                    Q).ok
        for PS in (plain, mixed))
    w_plain = ps_brute_interweight(plain, 0)[(1, 0, 0)]
    w_mixed = ps_brute_interweight(mixed, 0)[(1, 0, 0)]
    anchored_differ = (list(w_plain.entries) == [8, 0, 0, 8, 0, 0, 0, 0]
                       and list(w_mixed.entries) == [4, 4, 4, 4, 0, 0, 0, 0])
    _report(10, verified and initials and audited and anchored_differ,
            "same matrix, same level-0 tensor shape, anchored tables "
            "diverge at level (1,0,0)")


def test_criterion_11_four_point_set_separation():
    # two 4-sets with equal pairwise-distance multisets, as integers with
    # bit i holding coordinate i
    set_a = [0b0000, 0b1000, 0b0100, 0b1111]
    set_b = [0b0000, 0b1000, 0b1110, 0b1111]
    distances_ok = (distance_distribution(set_a) == [1, 1, 2, 3, 3, 4]
                    and distance_distribution(set_b) == [1, 1, 2, 3, 3, 4])
    # hand count, parts (semiperimeter - side) per 3-subset: set_a has
    # sides (1,1,2), (1,3,4) twice and (2,3,3), so (0,1,1), (0,1,3) twice
    # and (1,1,2); set_b has sides (1,2,3) twice and (1,3,4) twice, so
    # (0,1,2) twice and (0,1,3) twice
    ref_a = [(0, 1, 1), (0, 1, 3), (0, 1, 3), (1, 1, 2)]
    ref_b = [(0, 1, 2), (0, 1, 2), (0, 1, 3), (0, 1, 3)]
    got_a = set_triangle_multiset(set_a, 4)
    got_b = set_triangle_multiset(set_b, 4)
    _report(11, distances_ok and got_a == ref_a and got_b == ref_b
            and got_a != got_b,
            f"computed {got_a} and {got_b} vs recorded {ref_a} and {ref_b}")


def test_criterion_12_structural_invariants():
    ok = True
    for P in ALL_FIXTURES:
        Q = verify_equitable(P)
        T = build_table(Q, TRIANGLE)
        W = build_table(Q, INTERWEIGHT)
        rep_t = cross_check(T, Q, companion=W)
        rep_w = cross_check(W, Q, companion=T)
        if not (rep_t.ok and rep_w.ok
                and len(rep_t.checks_run) == 4 and len(rep_w.checks_run) == 4):
            ok = False
            break
        # summing a triangle table over all triples counts every ordered
        # vertex triple once, cell-wise
        sizes = cell_sizes(Q)
        total = None
        for vec in T.entries.values():
            total = vec if total is None else total + vec
        for pos, (i, j, k) in enumerate(
                (a, b, c) for a in range(1, Q.m + 1)
                for b in range(1, Q.m + 1) for c in range(1, Q.m + 1)):
            if total.entries[pos] != sizes[i - 1] * sizes[j - 1] * sizes[k - 1]:
                ok = False
        if not ok:
            break
    Q22 = validate_quotient(S22, 22)
    T22 = build_table(Q22, TRIANGLE, max_level=17)
    W22 = build_table(Q22, INTERWEIGHT, max_level=17)
    deep = (cross_check(T22, Q22, companion=W22).ok
            and cross_check(W22, Q22, companion=T22).ok)
    _report(12, ok and deep,
            "derivation routes, index symmetries, size pairing and "
            "marginal totals agree on all fixtures and the 22-dimensional "
            "candidate")
