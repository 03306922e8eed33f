"""Certification outcomes and the two-cell sweep on frozen candidates."""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from eqcube import oracle, recursion, screen
from eqcube.quotient import (InvalidQuotient, cell_sizes,
                             feasibility_conditions, validate_quotient)
from eqcube.screen import (Certificate, SweepCandidate, SweepReport, certify,
                           enumerate_ci_candidates, hunt_witness, sweep_ci,
                           worker_count)
from eqcube.recursion import TRIANGLE, build_table, scan_violations


def test_certify_survivor_stays_candidate():
    cert = certify([[0, 3], [1, 2]], 3)
    assert cert.verdict == "candidate"
    assert cert.validation_error is None
    assert cert.first_violation is None
    assert cert.violations_found == 0
    assert cert.levels_scanned == 3
    assert cert.feasibility.verdict == "candidate"


def test_certify_rejects_ci_violator_with_table_witness():
    cert = certify([[0, 5], [3, 2]], 5)
    assert cert.verdict == "nonexistent"
    assert cert.feasibility.ci_bound_ok is False
    v = cert.first_violation
    assert (v.triple, v.index) == ((0, 2, 2), (2, 1, 1))
    assert v.value == -120
    assert v.reason == "negative"
    assert cert.violations_found == 48
    assert cert.levels_scanned == 5


def test_certify_max_level_controls_depth():
    # table witnesses for this matrix first appear at level 4
    shallow = certify([[0, 5], [3, 2]], 5, max_level=3)
    assert shallow.first_violation is None
    assert shallow.levels_scanned == 3
    cert4 = certify([[0, 5], [3, 2]], 5, max_level=4)
    assert cert4.first_violation is not None
    assert cert4.first_violation.triple == (0, 2, 2)


def test_certify_feasibility_rejection_alone_suffices():
    # ci bound fails although the table at low depth shows nothing
    shallow = certify([[0, 5], [3, 2]], 5, max_level=2)
    assert shallow.feasibility.verdict == "rejected"
    assert shallow.verdict == "nonexistent"
    assert shallow.first_violation is None


def test_certify_structural_failure_short_circuits():
    cert = certify([[1, 2], [1, 1]], 3)
    assert cert.verdict == "nonexistent"
    assert cert.validation_error is not None
    assert cert.feasibility is None
    assert cert.levels_scanned == -1


def test_certify_contradictory_size_ratios_are_a_validation_error():
    # a quotient matrix whose size ratios around the cycle 1-2-3 disagree
    cert = certify([[0, 1, 2], [1, 0, 2], [1, 2, 0]], 3)
    assert cert.verdict == "nonexistent"
    assert "inconsistent size ratios" in cert.validation_error
    assert cert.feasibility is None
    assert cert.levels_scanned == -1


# one matrix fails validation, the other has no cell sizes to scan with
@pytest.mark.parametrize("S", [[[1, 2], [1, 1]], [[3, 0], [0, 3]]])
@pytest.mark.parametrize("max_level", [99, -1])
def test_certify_refuses_level_outside_dimension(S, max_level):
    with pytest.raises(ValueError, match="max_level"):
        certify(S, 3, max_level=max_level)


@pytest.mark.parametrize("n, max_level, message", [
    (3.0, None, "not an integer: 3.0"),
    (True, None, "not an integer: True"),
    (3, 2.5, "not an integer: 2.5"),
    (3, True, "not an integer: True"),
    (3, "2", "not an integer: '2'"),
])
def test_certify_refuses_a_dimension_or_level_that_is_not_an_int(
        monkeypatch, n, max_level, message):
    # refused before validation or any step
    def idle(*args, **kwargs):
        raise AssertionError("work done before the refusal")
    for module, name in ((screen, "validate_quotient"),
                         (recursion, "derive_entry")):
        monkeypatch.setattr(module, name, idle)
    with pytest.raises(ValueError, match=message):
        certify([[0, 3], [1, 2]], n, max_level=max_level)


# C(403, 3) = 10827401 and C(142, 3) 2^3 = 3737440 entries
@pytest.mark.parametrize("S, n", [([[400]], 400), ([[1, 2], [1, 1]], 139)],
                         ids=["valid", "invalid"])
def test_certify_refuses_a_table_over_the_cap_before_any_work(monkeypatch,
                                                              S, n):
    # refused before validation, the screens or any step, whatever the
    # matrix
    def idle(*args, **kwargs):
        raise AssertionError("work done before the refusal")
    for module, name in ((screen, "validate_quotient"),
                         (recursion, "derive_entry")):
        monkeypatch.setattr(module, name, idle)
    with pytest.raises(ValueError, match="pass --force"):
        certify(S, n)


def test_certify_twenty_two_cube_example():
    cert = certify([[0, 22, 0], [5, 6, 11], [0, 10, 12]], 22, max_level=17)
    assert cert.verdict == "nonexistent"
    assert cert.feasibility.verdict == "candidate"  # every screen passes
    assert cert.first_violation is not None
    hits = {(vv.triple, vv.index) for vv in _scan_refetch(cert)}
    assert ((0, 8, 9), (1, 1, 1)) in hits


def test_certify_counts_what_the_scan_lists_on_the_22_cube():
    cert = certify([[0, 22, 0], [5, 6, 11], [0, 10, 12]], 22)
    violations = _scan_refetch(cert)
    assert cert.violations_found == len(violations) == 8532
    assert cert.first_violation == violations[0]
    first = cert.first_violation
    assert (first.triple, first.index) == ((0, 8, 9), (1, 1, 1))
    assert type(first.value) is Fraction and first.reason == "negative"


def _scan_refetch(cert: Certificate):
    # reproduce the certificate scan to inspect all violations
    from eqcube.recursion import scan_violations
    Q = validate_quotient(cert.matrix, cert.n)
    table = build_table(Q, TRIANGLE, max_level=cert.levels_scanned)
    return scan_violations(table, sizes=cell_sizes(Q))


def seeded_quotients(rng, m, count):
    """`count` seeded m-cell quotient matrices with n <= 8: rows drawn
    as compositions of n, kept when `validate_quotient` accepts them."""
    found = []
    while len(found) < count:
        n = rng.randint(1, 8)
        rows = []
        for _ in range(m):
            cuts = sorted(rng.randint(0, n) for _ in range(m - 1))
            rows.append([b - a for a, b in zip([0] + cuts, cuts + [n])])
        try:
            found.append(validate_quotient(rows, n))
        except InvalidQuotient:
            pass
    return found


def test_certify_matches_the_scan_of_the_built_table_on_seeded_matrices():
    rng = random.Random("certify:orbit-scan")
    fixed = [validate_quotient(S, n) for S, n in (
        ([[0, 3], [2, 1]], 3),             # sizes 16/5 and 24/5
        ([[1, 3], [2, 2]], 4),             # sizes 32/5 and 48/5
        ([[0, 5], [3, 2]], 5),             # 48 negative entries
        ([[3, 0], [0, 3]], 3),             # disconnected: no scan
        ([[2, 1, 0], [1, 2, 0], [0, 0, 3]], 3),
    )]
    seen = {"fractional": 0, "disconnected": 0, "violated": 0, "clean": 0}
    for Q in fixed + seeded_quotients(rng, 2, 24) + seeded_quotients(rng, 3,
                                                                     16):
        cert = certify(Q.rows, Q.n)
        try:
            sizes = cell_sizes(Q)
        except InvalidQuotient:
            assert cert.validation_error is not None, Q
            continue
        except ValueError:  # undetermined sizes get no table scan
            seen["disconnected"] += 1
            assert (cert.first_violation, cert.violations_found,
                    cert.levels_scanned) == (None, 0, -1), Q
            continue
        found = scan_violations(build_table(Q, TRIANGLE), sizes)
        assert cert.first_violation == (found[0] if found else None), Q
        assert cert.violations_found == len(found), Q
        assert cert.levels_scanned == Q.n
        seen["fractional"] += any(type(s) is Fraction for s in sizes)
        seen["violated" if found else "clean"] += 1
    assert all(seen.values()), seen


def test_enumerate_ci_candidates_small():
    assert enumerate_ci_candidates(2) == []
    assert enumerate_ci_candidates(5) == [(5, 0, 5, 3, 2)]
    eleven = enumerate_ci_candidates(11)
    assert len(eleven) == 7
    for (n, a, b, c, d) in eleven:
        assert a + b == n and c + d == n
        assert b > c >= 1
        assert (2 ** n) % ((b + c) // math.gcd(b, c)) == 0
        assert 3 * (c - a) > n


def test_enumeration_lists_what_only_the_ci_screen_rejects():
    # every [[a, b], [c, d]] with b > c >= 1 up to n = 24: the sweep
    # lists it exactly when correlation immunity is the one failure
    # `feasibility_conditions` reports, so the two restated rules agree
    only_ci = []
    for n in range(1, 25):
        for c in range(1, n):
            for b in range(c + 1, n + 1):
                report = feasibility_conditions(
                    validate_quotient([[n - b, b], [c, n - c]], n))
                if report.ci_bound_ok is False and len(report.failures) == 1:
                    only_ci.append((n, n - b, b, c, n - c))
    assert enumerate_ci_candidates(24) == sorted(only_ci)


def test_enumerate_is_prefix_monotone():
    assert enumerate_ci_candidates(5) == enumerate_ci_candidates(7)[:1]


def test_hunt_witness_first_candidate():
    rec = hunt_witness((5, 0, 5, 3, 2))
    assert rec.witness == (2, 3)
    # the reported value must match the independently rebuilt table
    Q = validate_quotient([[0, 5], [3, 2]], 5)
    table = build_table(Q, TRIANGLE)
    r2, r3 = rec.witness
    assert rec.witness_value == table.entries[(0, r2, r3)].get(1, 1, 1)
    assert rec.witness_value < 0


def test_hunt_without_witness_reports_none():
    # [[0, 3], [1, 2]] at n = 3 is the realizable pair partition
    rec = hunt_witness((3, 0, 3, 1, 2))
    assert (rec.n, rec.a, rec.b, rec.c, rec.d) == (3, 0, 3, 1, 2)
    assert rec.witness is None
    assert rec.witness_value is None


def test_sweep_small_range_all_witnessed():
    report = sweep_ci(11)
    assert report.total == 7
    assert report.with_witness == 7
    assert report.without_witness == 0
    for rec in report.candidates:
        assert isinstance(rec, SweepCandidate)
        assert rec.witness is not None
        assert rec.witness_value < 0


def test_sweep_report_counts_its_candidates():
    found = SweepCandidate(n=5, a=0, b=5, c=3, d=2, witness=(2, 3),
                           witness_value=Fraction(-1))
    missed = SweepCandidate(n=3, a=0, b=3, c=1, d=2, witness=None,
                            witness_value=None)
    report = SweepReport(n_max=5, candidates=(found, missed, found))
    assert (report.total, report.with_witness, report.without_witness) \
        == (3, 2, 1)
    # the counts are read off the candidates, not stored beside them
    assert [f.name for f in fields(SweepReport)] == ["n_max", "candidates"]


def test_sweep_parallel_matches_serial():
    serial = sweep_ci(11, jobs=1)
    parallel = sweep_ci(11, jobs=2)
    assert serial == parallel


def test_worker_count_is_clamped_to_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_count(10 ** 9, 100) == 4
    assert worker_count(3, 100) == 3
    assert worker_count(8, 2) == 2
    assert worker_count(1, 0) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(8, 100) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            worker_count(bad, 100)
        with pytest.raises(ValueError):
            sweep_ci(2, jobs=bad)



@pytest.mark.parametrize("n_max", [0, -3])
def test_sweep_refuses_n_max_below_one_before_enumerating(monkeypatch, n_max):
    def enumerate_ci_candidates(n_max):
        raise AssertionError("enumerated before refusing n_max")
    monkeypatch.setattr("eqcube.screen.enumerate_ci_candidates",
                        enumerate_ci_candidates)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        sweep_ci(n_max)


@pytest.mark.parametrize("n_max", [201, 800, 10 ** 5])
def test_sweep_refuses_n_max_above_the_bound_before_enumerating(monkeypatch,
                                                               n_max):
    def enumerate_ci_candidates(n_max):
        raise AssertionError("enumerated before refusing n_max")
    monkeypatch.setattr(screen, "enumerate_ci_candidates",
                        enumerate_ci_candidates)
    with pytest.raises(ValueError,
                       match=f"n_max must be at most 200, got {n_max}"):
        sweep_ci(n_max)


def test_sweep_takes_n_max_up_to_the_bound(monkeypatch):
    asked = []
    monkeypatch.setattr(screen, "enumerate_ci_candidates",
                        lambda n_max: asked.append(n_max) or [])
    assert screen.MAX_SWEEP_N == 200
    assert sweep_ci(200) == SweepReport(n_max=200, candidates=())
    assert asked == [200]


def test_sweep_empty_range():
    report = sweep_ci(2)
    assert report.total == 0
    assert report.candidates == ()


# -- cold start --------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"
PRINT_MODULES = "print(json.dumps(sorted(sys.modules)))"

# imports the package and the CLI, screens a matrix and sweeps serially,
# then prints the loaded modules; a two-worker sweep after that must
# import the pool from cold and match the serial report
COLD_SCRIPT = f"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
import eqcube
import eqcube.cli
from eqcube.screen import sweep_ci
status = eqcube.cli.main(["screen", "--input", sys.argv[2]])
assert status == 0, status
sweep_ci(5)
{PRINT_MODULES}
if (os.cpu_count() or 1) > 1:
    assert sweep_ci(11, jobs=2) == sweep_ci(11)
    assert "concurrent.futures.process" in sys.modules
"""


def loaded_pool_modules(tmp_path, *args):
    """Pool modules loaded by `python -I *args`, which must end by
    printing its sys.modules as a JSON list."""
    done = subprocess.run([sys.executable, "-I", *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout.splitlines()[-1])
    return {m for m in modules
            if m.split(".")[0] in ("concurrent", "multiprocessing")}


def test_cold_import_loads_no_process_pool(tmp_path):
    matrix = tmp_path / "pair.json"
    matrix.write_text(json.dumps({"n": 3, "S": [[0, 3], [1, 2]]}),
                      encoding="utf-8")
    # a site .pth may load pool modules into every interpreter
    baseline = loaded_pool_modules(tmp_path, "-c",
                                   f"import json, sys; {PRINT_MODULES}")
    cold = loaded_pool_modules(tmp_path, "-c", COLD_SCRIPT,
                               str(SRC), str(matrix))
    assert sorted(cold - baseline) == []


@pytest.mark.parametrize("S, message", [
    ([[0, 3], [1]], "matrix is not square: 2 rows, row lengths [2, 1]"),
    ([[0, 3], [1, 2.0]], "entry (2,2) = 2.0 is not a nonnegative integer"),
    ([[0, 3], [True, 2]], "entry (2,1) = True is not a nonnegative integer"),
    ([[0, "3"], [1, 2]], "entry (1,2) = '3' is not a nonnegative integer"),
    ([[-1, 4], [1, 2]], "entry (1,1) = -1 is not a nonnegative integer"),
    ([], "matrix has no rows"),
], ids=["ragged", "float", "bool", "string", "negative", "empty"])
def test_certify_refuses_a_malformed_matrix_without_a_verdict(monkeypatch, S,
                                                              message):
    # a matrix that is not a square matrix of nonnegative integers is no
    # candidate at all: refused before validation or any step
    def idle(*args, **kwargs):
        raise AssertionError("work done before the refusal")
    for module, name in ((screen, "validate_quotient"),
                         (recursion, "derive_entry")):
        monkeypatch.setattr(module, name, idle)
    with pytest.raises(InvalidQuotient) as excinfo:
        certify(S, 3)
    assert str(excinfo.value) == message


def test_certify_refuses_the_level_before_the_malformed_matrix():
    with pytest.raises(ValueError, match="max_level"):
        certify([[0, 3], [1]], 3, max_level=99)


@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_sweep_refuses_n_max_and_jobs_that_are_not_ints_before_any_work(
        monkeypatch, value):
    def idle(*args, **kwargs):
        raise AssertionError("work done before the refusal")
    monkeypatch.setattr(screen, "hunt_witness", idle)
    with pytest.raises(ValueError, match="not an integer"):
        sweep_ci(value)
    with pytest.raises(ValueError, match="not an integer"):
        sweep_ci(5, jobs=value)
    with pytest.raises(ValueError, match="not an integer"):
        worker_count(value, 5)
