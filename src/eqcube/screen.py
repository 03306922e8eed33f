"""Nonexistence certification and a systematic two-cell sweep.

`certify` runs every arithmetic screen on a candidate quotient matrix
and then climbs its triangle table level by level, scanning for an
entry no actual partition could produce (negative, or not divisible by
the anchor cell size).  The first such entry in the fixed scan order is
the certificate witness.  The table is scanned by orbit and never
filled out: each level divides only its orbit representatives, and
every other triple is tested on its representative's vector against
the anchor sizes permuted by the triple's order.

`sweep_ci` walks all two-cell candidates [[a, b], [c, d]] that pass the
row-sum and size-divisibility screens but violate the correlation-
immunity bound (oriented b > c >= 1, exactly 3(c - a) > n), and hunts
the r1 = 0 plane of each triangle table for a negative entry at index
(1, 1, 1), stopping at the first hit per candidate.  The point of the
sweep is that every such candidate is expected to produce a witness;
records without one are flagged loudly.  Each record streams out as
its hunt finishes.  The process pool, and with it `multiprocessing`, is
imported on first use, only when a sweep starts more than one worker.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Generator

from .quotient import (FeasibilityReport, InvalidQuotient, check_integer,
                       feasibility_conditions, matrix_rows,
                       validate_quotient)
# build_table and scan_violations are not called here, but bench/spans.py
# wraps them at this module's attributes too, so they stay imported
from .recursion import (TRIANGLE, Violation, build_table, common_denominator,
                        default_initial, entry_scale, initial_triangle,
                        iter_table_levels, scan_violations, table_depth)


@dataclass(frozen=True)
class Certificate:
    """Outcome of screening one candidate matrix.

    verdict is "nonexistent" when any screen failed or a table violation
    was found, else "candidate" (which proves nothing).  When the matrix
    fails structural validation everything else is None.
    """

    n: int
    matrix: tuple[tuple[int, ...], ...]
    verdict: str
    validation_error: str | None
    feasibility: FeasibilityReport | None
    first_violation: Violation | None
    violations_found: int
    levels_scanned: int


def certify(S, n: int, max_level: int | None = None,
            force: bool = False) -> Certificate:
    """Screen a candidate matrix and scan its triangle table.

    The table is scanned to max_level (default n) in deterministic order
    (level, then lexicographic triple, then lexicographic index), so the
    reported first violation is reproducible.  The scan follows
    `scan_violations`' rules, level by level and by orbit (see the
    module docstring): it counts the violations and keeps the first,
    the `Violation` record that `scan_violations` gives.
    `matrix_rows` checks the shape of S outside the validation, so a
    malformed S is refused, never given a verdict.  A matrix can fail
    feasibility and still get its table scanned; both findings end up in
    the certificate.  A matrix that `quotient.matrix_rows` accepts but
    is no quotient matrix, or whose size ratios contradict each other,
    gets only a validation error.  Raises ValueError for max_level
    outside [0, n], and, unless force, for a table of more than
    `recursion.MAX_TABLE_ENTRIES` entries, whatever the matrix; then
    InvalidQuotient for a matrix that `matrix_rows` refuses, and
    ValueError for an n above `quotient.MAX_DIMENSION`.
    """
    max_level = table_depth(max_level, n, len(S), force)
    rows = matrix_rows(S)
    try:
        Q = validate_quotient(rows, n)
        report = feasibility_conditions(Q)
    except InvalidQuotient as exc:
        return Certificate(n=n, matrix=rows, verdict="nonexistent",
                           validation_error=str(exc), feasibility=None,
                           first_violation=None, violations_found=0,
                           levels_scanned=-1)
    first: Violation | None = None
    total = 0
    levels = -1
    if report.sizes is not None:
        initial = initial_triangle(report.sizes)
        for level in iter_table_levels(Q, TRIANGLE, initial, max_level):
            found, site = level.violations(report.sizes)
            total += found
            first = first or site
        levels = max_level
    verdict = ("nonexistent"
               if first is not None or report.verdict == "rejected"
               else "candidate")
    return Certificate(n=n, matrix=rows, verdict=verdict,
                       validation_error=None, feasibility=report,
                       first_violation=first, violations_found=total,
                       levels_scanned=levels)


@dataclass(frozen=True)
class SweepCandidate:
    """One two-cell candidate and the witness hunt outcome."""

    n: int
    a: int
    b: int
    c: int
    d: int
    witness: tuple[int, int] | None  # (r2, r3) of the first negative entry
    witness_value: Fraction | None


def enumerate_ci_candidates(n_max: int) -> list[tuple[int, int, int, int, int]]:
    """All (n, a, b, c, d) with rows summing to n, oriented b > c >= 1,
    sizes divisible (so (b + c)/gcd(b, c) divides 2^n), and the
    correlation-immunity bound violated: 3(c - a) > n."""
    out = []
    for n in range(1, n_max + 1):
        for a in range(n - 1):
            b = n - a
            for c in range(1, b):
                d = n - c
                if (2 ** n) % ((b + c) // math.gcd(b, c)) != 0:
                    continue
                if 3 * (c - a) <= n:
                    continue
                out.append((n, a, b, c, d))
    return out


def hunt_witness(params: tuple[int, int, int, int, int]) -> SweepCandidate:
    """Build the triangle table of [[a, b], [c, d]] level by level and
    return the first (r2, r3), in order of increasing r2 + r3 then r2,
    where the entry T^{0,r2,r3}_{111} is negative.

    Signs are read off the engine's scaled vectors U = r2! r3! D T, whose
    scale is positive; only the witness is divided back to T."""
    n, a, b, c, d = params
    Q = validate_quotient(((a, b), (c, d)), n)
    initial = default_initial(Q, TRIANGLE)
    D = common_denominator(initial)
    # The hunt reads only the r1 = 0 plane but derives every triple:
    # bench/tests/test_bench.py::test_hunts_leave_polynomial_and_oracle_layers_idle
    # pins C(t + 3, 3) derive_entry steps for a hunt to level t.  The
    # r3 <= 1 hunt of ROADMAP item 2 replaces every_triple.
    levels = iter_table_levels(Q, TRIANGLE, initial, n, every_triple=True)
    for level, level_entries in enumerate(levels):
        for r2 in range(level + 1):
            triple = (0, r2, level - r2)
            value = level_entries[triple].get(1, 1, 1)
            if value < 0:
                return SweepCandidate(
                    n=n, a=a, b=b, c=c, d=d, witness=triple[1:],
                    witness_value=Fraction(value, entry_scale(triple, D)))
    return SweepCandidate(n=n, a=a, b=b, c=c, d=d,
                          witness=None, witness_value=None)


def worker_count(jobs: int, tasks: int) -> int:
    """Processes to start for `tasks` independent tasks when `jobs` are
    asked for: never more than the CPUs or the tasks.  Rejects jobs
    that are not an int or are < 1."""
    check_integer(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1, tasks)


# The largest n_max a sweep takes.  Enumerating the candidates alone,
# before any hunt, took 0.61-0.65 s at n_max = 200 (4634 candidates),
# 6.6 s at 400 and 83 s at 800 (96926 candidates) in one process on a
# shared 2-vCPU VM (Python 3.11), and one hunt at n = 40 already takes
# about 0.06 s.  ROADMAP item 5 sweeps to 200.
MAX_SWEEP_N = 200


def sweep_ci(n_max: int,
             jobs: int = 1) -> Generator[SweepCandidate, None, None]:
    """Hunt witnesses for every qualifying two-cell candidate up to n_max.

    Returns a generator of the records, each as its hunt finishes, in
    enumeration order for any job count: with jobs > 1 a process pool of
    `worker_count(jobs, #candidates)` workers runs the hunts, and closing
    the generator early cancels those not yet started.  The pool (and
    `multiprocessing`) is imported on the first record, only when more
    than one worker starts.  Rejects n_max < 1, n_max > MAX_SWEEP_N, or
    not an int, and jobs through `worker_count`, when called, before any
    hunt.
    """
    check_integer(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > MAX_SWEEP_N:
        raise ValueError(f"n_max must be at most {MAX_SWEEP_N}, got {n_max}")
    params = enumerate_ci_candidates(n_max)
    return _hunts(params, worker_count(jobs, len(params)))


def _hunts(params: list,
           workers: int) -> Generator[SweepCandidate, None, None]:
    """`hunt_witness` of each of params, in order, on `workers` processes."""
    if workers > 1:
        # imported here: the pool's import would cost every process start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(hunt_witness, params, chunksize=1)
    else:
        yield from map(hunt_witness, params)
