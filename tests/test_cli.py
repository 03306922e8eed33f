"""End-to-end runs of the command-line interface.

Everything goes through cli.main(argv) in-process; files live in
tmp_path and stdout/stderr are captured, so these tests pin the exact
external formats: JSON documents, CSV layout, exit codes.
"""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from eqcube import cli, krawtchouk, recursion
from eqcube.cli import main, render_value
from eqcube.oracle import (parity_partition, parse_rational,
                           singleton_partition)
from eqcube.quotient import validate_quotient
from eqcube.recursion import TRIANGLE, build_table
from eqcube.screen import SweepCandidate, enumerate_ci_candidates

PAIR_MATRIX = {"n": 3, "S": [[0, 3], [1, 2]]}
PAIR_PARTITION = {"n": 3, "m": 2, "cells": [[0, 7], [1, 2, 3, 4, 5, 6]]}
ALL1_MATRIX = {"n": 2, "S": [[1, 1], [1, 1]]}
PS_PLAIN = {"n": 2, "m": 2, "values": [[2, 0], [0, 2], [2, 0], [0, 2]]}
PS_MIXED = {"n": 2, "m": 2, "values": [[2, 0], [1, 1], [1, 1], [0, 2]]}


@pytest.fixture
def write_doc(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return _write


# -- value rendering ---------------------------------------------------------

def test_render_and_parse_rational_round_trip():
    for v in (0, 7, -3, Fraction(5, 3), Fraction(-120), Fraction(24, 5)):
        assert parse_rational(render_value(v)) == Fraction(v)
    assert render_value(Fraction(24, 5)) == "24/5"
    assert render_value(-120) == "-120"


def test_parse_rational_rejects_floats():
    with pytest.raises(ValueError, match="not an exact value: 0.5"):
        parse_rational(0.5)
    with pytest.raises(ValueError, match="not an exact value: True"):
        parse_rational(True)
    with pytest.raises(ValueError, match="not an exact value: 'not a number'"):
        parse_rational("not a number")


# -- table -------------------------------------------------------------------

def test_table_json_document(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "triangle"
    assert doc["n"] == 3 and doc["m"] == 2
    assert doc["index_order"] == "i-major,k-minor"
    assert doc["entries"]["0,0,1"] == ["0", "6", "0", "0", "0", "0", "6", "12"]
    # all 20 triples of level at most 3 are present
    assert len(doc["entries"]) == 20


def test_table_max_level_zero(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path, "--max-level", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["entries"]) == ["0,0,0"]


def test_table_interweight_kind(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path, "--kind", "interweight"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "interweight"
    # anchored normalization: one unit per cell on the diagonal
    assert doc["entries"]["0,0,0"] == ["1", "0", "0", "0", "0", "0", "0", "1"]


def test_table_csv_layout(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r1,r2,r3,i,j,k,value"
    assert len(lines) == 1 + 20 * 8
    assert lines[1] == "0,0,0,1,1,1,2"
    assert "0,0,1,1,1,2,6" in lines


def test_table_cross_check_accepts_consistent_table(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path, "--cross-check"]) == 0


def test_table_cross_check_failure_exits_1_with_counts(write_doc, capsys,
                                                       monkeypatch):
    failing = recursion.CrossCheckReport(
        checks_run=("derivations", "symmetry", "marginals"),
        derivation_mismatches=[((0, 0, 1), 3)],
        symmetry_mismatches=[((0, 0, 1), (1, 1, 1), "cyclic"),
                             ((1, 0, 0), (1, 1, 1), "cyclic")],
        pairing_mismatches=[],
        marginal_mismatches=[((0, 0, 1), 1), ((0, 0, 1), 2),
                             ((0, 1, 0), 1)])
    monkeypatch.setattr(recursion, "cross_check", lambda table, Q: failing)
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path, "--cross-check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cross-check failed: 1 derivation, 2 symmetry, "
                            "3 marginal mismatches\n")


def test_table_output_is_deterministic(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    main(["table", "--input", path])
    first = capsys.readouterr().out
    main(["table", "--input", path])
    assert capsys.readouterr().out == first


def test_table_json_round_trips_to_exact_values(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    main(["table", "--input", path])
    doc = json.loads(capsys.readouterr().out)
    Q = validate_quotient(PAIR_MATRIX["S"], 3)
    table = build_table(Q, TRIANGLE)
    for key, values in doc["entries"].items():
        triple = tuple(int(p) for p in key.split(","))
        assert [parse_rational(v) for v in values] == \
            list(table.entries[triple].entries)


def test_table_writes_to_file(write_doc, tmp_path, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    out = tmp_path / "table.json"
    assert main(["table", "--input", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["entries"]["0,0,1"][1] == "6"


class ClosedPipe:
    """A stdout whose reader has gone (`eqcube ... | head`): every write
    fails with EPIPE.  fileno() is a file of the test's own, so pointing
    stdout's descriptor elsewhere leaves the test process's fd 1 alone."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_pipe_exits_141_without_a_traceback(write_doc, tmp_path,
                                                  capsys, monkeypatch):
    path = write_doc("two.json", {"n": 2, "S": [[2, 0], [0, 2]]})
    sink = tmp_path / "stdout"
    with open(sink, "wb") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        assert main(["table", "--input", path, "--kind", "interweight",
                     "--cross-check", "--format", "json"]) == 141
        # stdout's descriptor now points at the null device, so what the
        # interpreter flushes at exit goes nowhere
        os.write(fh.fileno(), b"flushed at exit")
    assert sink.read_bytes() == b""
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [
    ["table", "--input", "PAIR"],
    ["sweep", "--n-max", "5"],
])
def test_unwritable_out_is_usage_error(write_doc, tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.json"
    argv = [write_doc("pair.json", PAIR_MATRIX) if a == "PAIR" else a
            for a in command]
    assert main(argv + ["--out", str(target)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {target}" in captured.err


def test_sweep_opens_out_before_sweeping(tmp_path, capsys, monkeypatch):
    def sweep_ci(*args, **kwargs):
        raise AssertionError("swept before --out was opened")
    monkeypatch.setattr("eqcube.screen.sweep_ci", sweep_ci)
    target = tmp_path / "missing" / "s.jsonl"
    assert main(["sweep", "--n-max", "40", "--out", str(target)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {target}" in captured.err



@pytest.mark.parametrize("command, work", [
    (["table", "--input", "MATRIX"], "eqcube.recursion.build_table"),
    (["oracle", "triangle", "--partition", "PARTITION"],
     "eqcube.oracle.brute_triangle"),
    (["oracle", "interweight", "--partition", "PARTITION", "--vertex", "0"],
     "eqcube.oracle.brute_interweight"),
    (["oracle", "ps-table", "--structure", "STRUCTURE", "--input", "ALL1"],
     "eqcube.recursion.build_table"),
])
def test_table_commands_open_out_before_work(write_doc, tmp_path, capsys,
                                             monkeypatch, command, work):
    def refuse(*args, **kwargs):
        raise AssertionError("built the table before --out was opened")
    monkeypatch.setattr(work, refuse)
    files = {"MATRIX": write_doc("pair.json", PAIR_MATRIX),
             "PARTITION": write_doc("pair-partition.json", PAIR_PARTITION),
             "STRUCTURE": write_doc("plain.json", PS_PLAIN),
             "ALL1": write_doc("all1.json", ALL1_MATRIX)}
    target = tmp_path / "missing" / "table.json"
    argv = [files.get(a, a) for a in command]
    assert main(argv + ["--out", str(target)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {target}" in captured.err


def test_table_rejects_excessive_level(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path, "--max-level", "9"]) == 64
    assert capsys.readouterr().out == ""


def test_table_rejects_negative_level(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["table", "--input", path, "--max-level", "-1"]) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("level", ["9", "-1"])
def test_screen_and_ps_table_reject_level_outside_dimension(write_doc, capsys,
                                                            level):
    mpath = write_doc("pair.json", PAIR_MATRIX)
    assert main(["screen", "--input", mpath, "--max-level", level]) == 64
    spath = write_doc("plain.json", PS_PLAIN)
    apath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", "ps-table", "--structure", spath,
                 "--input", apath, "--max-level", level]) == 64
    assert capsys.readouterr().out == ""


# -- poly --------------------------------------------------------------------

def test_poly_prints_canonical_form(capsys):
    assert main(["poly", "--r1", "1", "--r2", "1", "--r3", "1"]) == 0
    assert capsys.readouterr().out.strip() == \
        "x*y*z - x^2 - y^2 - z^2 + 2*n"


def test_poly_single_methods_agree(capsys):
    for method in ("recursion", "direct", "genfun"):
        assert main(["poly", "--r1", "0", "--r2", "1", "--r3", "2",
                     "--method", method]) == 0
        assert capsys.readouterr().out.strip() == \
            "(y*z^2 - 2*x*z + (2-n)*y)/2"


def test_poly_specializes_dimension(capsys):
    assert main(["poly", "--r1", "0", "--r2", "0", "--r3", "2",
                 "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(z^2 - 3)/2"


def test_poly_rejects_negative_index(capsys):
    assert main(["poly", "--r1", "-1", "--r2", "0", "--r3", "0"]) == 64


def test_poly_rejects_negative_dimension(capsys):
    assert main(["poly", "--r1", "1", "--r2", "0", "--r3", "0",
                 "--n", "-3"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n" in captured.err



def test_poly_refuses_negative_dimension_before_any_route(capsys,
                                                          monkeypatch):
    def route(*r):
        raise AssertionError("built a polynomial before refusing --n")
    monkeypatch.setattr("eqcube.cli._POLY_METHODS",
                        dict.fromkeys(("recursion", "direct", "genfun"),
                                      route))
    assert main(["poly", "--r1", "40", "--r2", "0", "--r3", "0",
                 "--n", "-1"]) == 64
    err = capsys.readouterr().err
    assert "negative dimension" in err
    assert err == "error: negative dimension n = -1 (--n on the command line)\n"


@pytest.mark.parametrize("method", ["recursion", "direct", "genfun", "all"])
def test_poly_refuses_degree_above_the_cap(capsys, method):
    # route 1 would recurse past the interpreter's limit at degree 600
    assert main(["poly", "--r1", "600", "--r2", "0", "--r3", "0",
                 "--method", method]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r1 + r2 + r3 = 600 exceeds the cap of 200" in captured.err


@pytest.mark.parametrize("method", ["direct", "genfun", "all"])
def test_poly_refuses_sum_routes_past_degree_twelve(capsys, monkeypatch,
                                                     method):
    # route 1 alone would answer at degree 20; `all` must refuse before it
    def route(*r):
        raise AssertionError("ran route 1 before refusing")
    monkeypatch.setitem(cli._POLY_METHODS, "recursion", route)
    assert main(["poly", "--r1", "20", "--r2", "0", "--r3", "0",
                 "--method", method]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r1 + r2 + r3 = 20 exceeds the bound of 12" in captured.err


def test_poly_recursion_runs_past_degree_twelve(capsys):
    assert main(["poly", "--r1", "20", "--r2", "0", "--r3", "0",
                 "--method", "recursion"]) == 0
    assert capsys.readouterr().out.startswith("(x^20")


# -- screen ------------------------------------------------------------------

def test_screen_candidate_exit_zero(write_doc, capsys):
    path = write_doc("pair.json", PAIR_MATRIX)
    assert main(["screen", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "candidate"
    assert doc["first_violation"] is None
    assert doc["feasibility"]["sizes"] == ["2", "6"]


def test_screen_nonexistent_exit_two(write_doc, capsys):
    path = write_doc("bad.json", {"n": 5, "S": [[0, 5], [3, 2]]})
    assert main(["screen", "--input", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "nonexistent"
    assert doc["feasibility"]["ci_bound_ok"] is False
    assert doc["first_violation"] == {
        "triple": [0, 2, 2], "index": [2, 1, 1],
        "value": "-120", "reason": "negative"}
    assert doc["violations_found"] == 48


def test_screen_structural_failure(write_doc, capsys):
    path = write_doc("bad.json", {"n": 3, "S": [[1, 2], [1, 1]]})
    assert main(["screen", "--input", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["validation_error"]
    assert doc["levels_scanned"] == -1


def test_screen_contradictory_size_ratios_exit_two(write_doc, capsys):
    # well-formed, but the size ratios around the cycle 1-2-3 disagree
    path = write_doc("cycle.json",
                     {"n": 3, "S": [[0, 1, 2], [1, 0, 2], [1, 2, 0]]})
    assert main(["screen", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert "inconsistent size ratios" in doc["validation_error"]
    assert doc["feasibility"] is None


def test_screen_pins_the_inconsistent_ratio_message(write_doc, capsys):
    # the cycle 1-3-2 forces cell 2 to 9/2 of cell 1 against the 1/2 its
    # tree edge gave
    path = write_doc("cycle.json",
                     {"n": 4, "S": [[0, 1, 3], [2, 0, 2], [1, 3, 0]]})
    assert main(["screen", "--input", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["validation_error"] == ("inconsistent size ratios around "
                                       "cells 3 and 2: 1/2 vs 9/2")
    assert doc["feasibility"] is None
    assert doc["levels_scanned"] == -1


# -- input failures ----------------------------------------------------------

@pytest.mark.parametrize("S", [
    [[0, 3], [1, 2.5]],   # float entry
    [[0, "3"], [1, 2]],   # string entry
    [[0, 3], [1]],        # ragged rows
])
def test_malformed_matrix_is_usage_error_not_verdict(write_doc, capsys, S):
    path = write_doc("malformed.json", {"n": 3, "S": S})
    assert main(["screen", "--input", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("S", [[], "S", [0, 3], [[0, 3], 1]])
def test_matrix_that_is_not_a_list_of_rows_is_usage_error(write_doc, capsys,
                                                          S):
    path = write_doc("rows.json", {"n": 3, "S": S})
    assert main(["table", "--input", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "S must be a list of rows" in captured.err


def test_non_square_and_bool_matrices_are_usage_errors(write_doc, capsys):
    wide = write_doc("wide.json", {"n": 3, "S": [[0, 3, 0], [1, 2, 0]]})
    assert main(["table", "--input", wide]) == 64
    boolean = write_doc("bool.json", {"n": 2, "S": [[True, 1], [1, 1]]})
    assert main(["oracle", "search", "--input", boolean]) == 64


@pytest.mark.parametrize("command", [
    ["table"],
    ["oracle", "search"],
    ["oracle", "ps-verify", "--structure", "STRUCTURE"],
    ["oracle", "ps-table", "--structure", "STRUCTURE"],
])
def test_non_quotient_matrix_is_usage_error(write_doc, capsys, command):
    # well-formed JSON, but row 2 sums to 2, not n = 3; only `screen`
    # turns such a matrix into a verdict
    path = write_doc("rowsum.json", {"n": 3, "S": [[0, 3], [1, 1]]})
    spath = write_doc("plain.json", PS_PLAIN)
    argv = [spath if a == "STRUCTURE" else a for a in command]
    assert main(argv + ["--input", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row 2 sums to 2" in captured.err


def _partition_doc(n):
    P = parity_partition(n)
    return {"n": n, "m": P.m, "cells": P.cells()}


@pytest.mark.parametrize("argv, n", [
    (["oracle", "triangle", "--partition", "DOC"], 7),
    (["oracle", "interweight", "--partition", "DOC", "--vertex", "0"], 8),
])
def test_brute_force_cap_message_names_the_flag(write_doc, capsys, argv, n):
    path = write_doc("doc.json", _partition_doc(n))
    assert main([path if a == "DOC" else a for a in argv]) == 64
    assert "pass --force" in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, message", [
    (["oracle", "triangle", "--partition", "DOC"], _partition_doc(7),
     "cap of 6"),
    (["oracle", "interweight", "--partition", "DOC", "--vertex", "0"],
     _partition_doc(8), "cap of 7"),
    (["table", "--input", "DOC"], {"n": 3, "S": [[3, 0], [0, 3]]},
     "disconnected"),
    (["table", "--input", "DOC"],
     {"n": 3, "S": [[0, 1, 2], [1, 0, 2], [1, 2, 0]]},
     "inconsistent size ratios"),
    (["oracle", "search", "--input", "DOC"], {"n": 15, "S": [[15]]},
     "n <= 14"),
    (["screen", "--input", "DOC", "--max-level", "0"],
     {"n": 100001, "S": [[100001]]}, "n must be at most 100000"),
    (["table", "--input", "DOC", "--max-level", "1"],
     {"n": 100001, "S": [[0, 100001], [100001, 0]]},
     "n must be at most 100000"),
])
def test_library_refusal_is_usage_error(write_doc, capsys, argv, doc,
                                        message):
    # the library refuses these arguments; the CLI only reports it
    path = write_doc("doc.json", doc)
    assert main([path if a == "DOC" else a for a in argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_bad_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["table", "--input", str(path)]) == 64


def test_missing_field_is_usage_error(write_doc, capsys):
    path = write_doc("incomplete.json", {"n": 3})
    assert main(["table", "--input", path]) == 64


@pytest.mark.parametrize("command, doc", [
    (["oracle", "ps-verify", "--structure", "DOC"],
     dict(PS_PLAIN, n="2")),
    (["oracle", "ps-table", "--structure", "DOC"], dict(PS_PLAIN, n=2.0)),
    (["oracle", "verify", "--partition", "DOC"],
     dict(PAIR_PARTITION, n=True)),
    (["oracle", "triangle", "--partition", "DOC"],
     dict(PAIR_PARTITION, n="3")),
])
def test_every_document_needs_a_positive_integer_n(write_doc, capsys,
                                                    command, doc):
    # the matrix document's rule holds for structures and partitions too
    path = write_doc("doc.json", doc)
    mpath = write_doc("all1.json", ALL1_MATRIX)
    argv = [path if a == "DOC" else a for a in command]
    if command[1].startswith("ps-"):
        argv += ["--input", mpath]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be a positive integer" in captured.err


def test_missing_file_is_usage_error(capsys):
    assert main(["table", "--input", "/nonexistent/file.json"]) == 64


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 64


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0



SHARED_OPTIONS = ("--input", "--partition", "--structure", "--max-level",
                  "--format", "--out")


@pytest.mark.parametrize("command, options", [
    (["table"], {"--input", "--max-level", "--format", "--out"}),
    (["poly"], set()),
    (["screen"], {"--input", "--max-level"}),
    (["sweep"], {"--out"}),
    (["oracle", "verify"], {"--partition"}),
    (["oracle", "triangle"], {"--partition", "--format", "--out"}),
    (["oracle", "interweight"], {"--partition", "--format", "--out"}),
    (["oracle", "invariance"], {"--partition"}),
    (["oracle", "search"], {"--input"}),
    (["oracle", "ps-verify"], {"--structure", "--input"}),
    (["oracle", "ps-table"],
     {"--structure", "--input", "--max-level", "--format", "--out"}),
])
def test_subcommand_help_names_its_shared_options(capsys, command, options):
    assert main(command + ["--help"]) == 0
    out = capsys.readouterr().out
    assert {o for o in SHARED_OPTIONS if o in out} == options


@pytest.mark.parametrize("command", ["table", "screen"])
def test_a_table_over_the_size_cap_exits_64_before_any_step(
        write_doc, capsys, monkeypatch, command):
    # the one-cell 400-cube's table would hold C(403, 3) = 10827401 entries
    monkeypatch.setattr(recursion, "derive_entry", None)  # any step fails
    path = write_doc("n400.json", {"n": 400, "S": [[400]]})
    assert main([command, "--input", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("10827401 entries, more than the cap of 1000000; pass --force"
            in captured.err)


@pytest.mark.parametrize("argv", [
    ["table", "--input", "MATRIX"],
    ["screen", "--input", "MATRIX"],
    ["oracle", "ps-table", "--structure", "STRUCTURE", "--input", "MATRIX"],
], ids=["table", "screen", "ps-table"])
def test_force_lifts_the_table_size_cap(write_doc, capsys, monkeypatch, argv):
    # the pair partition's table holds C(6, 3) * 8 = 160 entries
    paths = {"MATRIX": write_doc("pair.json", PAIR_MATRIX),
             "STRUCTURE": write_doc("ps.json", {
                 "n": 3, "m": 2,
                 "values": [[1, 0] if v in (0, 7) else [0, 1]
                            for v in range(8)]})}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == 0
    uncapped = capsys.readouterr().out
    monkeypatch.setattr(recursion, "MAX_TABLE_ENTRIES", 159)
    assert main(argv) == 64
    assert "pass --force" in capsys.readouterr().err
    assert main(argv + ["--force"]) == 0
    assert capsys.readouterr().out == uncapped


# -- sweep -------------------------------------------------------------------

def test_sweep_records_and_summary(write_doc, capsys):
    assert main(["sweep", "--n-max", "5"]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert records == [{"n": 5, "a": 0, "b": 5, "c": 3, "d": 2,
                        "witness": [2, 3], "witness_value": "-60"}]
    assert "1 candidates, 1 with witness, 0 without" in captured.err


def test_sweep_empty_range(capsys):
    assert main(["sweep", "--n-max", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 candidates" in captured.err


@pytest.mark.parametrize("n_max", ["-3", "0"])
def test_sweep_rejects_n_max_below_one(capsys, n_max):
    assert main(["sweep", "--n-max", n_max]) == 64
    assert capsys.readouterr().out == ""


def test_sweep_refuses_n_max_above_the_bound(capsys):
    assert main(["sweep", "--n-max", "201"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be at most 200, got 201\n"


def test_sweep_rejects_jobs_below_one(capsys):
    assert main(["sweep", "--n-max", "5", "--jobs", "0"]) == 64
    assert capsys.readouterr().out == ""


def test_sweep_to_file_moves_summary_to_stdout(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--n-max", "5", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "1 with witness" in captured.out
    assert json.loads(out.read_text(encoding="utf-8").splitlines()[0])[
        "witness"] == [2, 3]


class LoggedStdout:
    """A stdout that logs into `events` each flush and each write of a
    sweep record, by the record's (n, a, b, c, d)."""

    def __init__(self, events):
        self.events = events

    def write(self, text):
        self.events.append(("write", tuple(json.loads(text).values())[:5]))

    def flush(self):
        self.events.append(("flush",))


def logged_hunts(events, monkeypatch):
    """Replace the sweep's hunt by one that logs its start in `events`
    and finds the witness (1, 1) at once."""
    def hunt_witness(params):
        events.append(("hunt", params))
        return SweepCandidate(*params, witness=(1, 1),
                              witness_value=Fraction(-1))
    monkeypatch.setattr("eqcube.screen.hunt_witness", hunt_witness)


def test_sweep_writes_and_flushes_each_record_before_the_next_hunt(
        capsys, monkeypatch):
    events = []
    logged_hunts(events, monkeypatch)
    monkeypatch.setattr("sys.stdout", LoggedStdout(events))
    assert main(["sweep", "--n-max", "14"]) == 0
    params = enumerate_ci_candidates(14)
    assert len(params) == 7
    assert events == [event for p in params
                      for event in (("hunt", p), ("write", p), ("flush",))]
    assert capsys.readouterr().err == \
        "sweep n_max=14: 7 candidates, 7 with witness, 0 without\n"


def test_sweep_stops_hunting_when_the_reader_goes(tmp_path, capsys,
                                                  monkeypatch):
    events = []
    logged_hunts(events, monkeypatch)
    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        assert main(["sweep", "--n-max", "14"]) == 141
    # the first record met the closed pipe; no hunt started after it
    assert events == [("hunt", enumerate_ci_candidates(14)[0])]
    assert capsys.readouterr().err == ""


def test_sweep_jobs_2_writes_the_serial_bytes(capsys):
    runs = []
    for jobs in ("1", "2"):
        assert main(["sweep", "--n-max", "14", "--jobs", jobs]) == 0
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]
    assert runs[0].out.count("\n") == 7


# -- oracle ------------------------------------------------------------------

def test_oracle_verify_equitable(write_doc, capsys):
    path = write_doc("pair-partition.json", PAIR_PARTITION)
    assert main(["oracle", "verify", "--partition", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"equitable": True, "n": 3, "S": [[0, 3], [1, 2]]}


def test_oracle_verify_rejects_uneven_partition(write_doc, capsys):
    path = write_doc("uneven.json",
                     {"n": 2, "m": 2, "cells": [[0], [1, 2, 3]]})
    assert main(["oracle", "verify", "--partition", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["equitable"] is False
    assert "vertex" in doc


def test_oracle_triangle_matches_recursion_byte_for_byte(write_doc, capsys):
    mpath = write_doc("pair.json", PAIR_MATRIX)
    ppath = write_doc("pair-partition.json", PAIR_PARTITION)
    main(["table", "--input", mpath])
    recursed = capsys.readouterr().out
    main(["oracle", "triangle", "--partition", ppath])
    assert capsys.readouterr().out == recursed


def test_oracle_interweight_anchored_at_zero(write_doc, capsys):
    ppath = write_doc("pair-partition.json", PAIR_PARTITION)
    assert main(["oracle", "interweight", "--partition", ppath,
                 "--vertex", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "interweight"
    assert doc["entries"]["0,0,1"] == ["0", "3", "0", "0", "0", "0", "0", "0"]


def test_oracle_interweight_rejects_vertex_outside_cube(write_doc, capsys):
    ppath = write_doc("pair-partition.json", PAIR_PARTITION)
    assert main(["oracle", "interweight", "--partition", ppath,
                 "--vertex", "99"]) == 64
    assert capsys.readouterr().out == ""


def test_oracle_invariance_holds(write_doc, capsys):
    ppath = write_doc("pair-partition.json", PAIR_PARTITION)
    assert main(["oracle", "invariance", "--partition", ppath]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "holds"


def test_oracle_search_lists_partitions(write_doc, capsys):
    mpath = write_doc("pair.json", PAIR_MATRIX)
    assert main(["oracle", "search", "--input", mpath,
                 "--limit", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is True
    assert doc["count"] == 4
    assert doc["partitions"][0][0] == [0, 7]


def test_oracle_search_with_pin(write_doc, capsys):
    mpath = write_doc("pair.json", PAIR_MATRIX)
    assert main(["oracle", "search", "--input", mpath, "--limit", "10",
                 "--pin", "0:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3  # vertex 0 excluded from the small cell


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_oracle_search_rejects_limit_below_one(write_doc, capsys, limit):
    mpath = write_doc("pair.json", PAIR_MATRIX)
    assert main(["oracle", "search", "--input", mpath,
                 "--limit", limit]) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("pin", ["99:1", "0:5"])
def test_oracle_search_rejects_pin_outside_range(write_doc, capsys, pin):
    # vertex 99 lies outside the 3-cube; the pair matrix has cells 1 and 2
    mpath = write_doc("pair.json", PAIR_MATRIX)
    assert main(["oracle", "search", "--input", mpath, "--pin", pin]) == 64
    assert capsys.readouterr().out == ""


def test_oracle_search_rejects_malformed_pin(write_doc, capsys):
    mpath = write_doc("pair.json", PAIR_MATRIX)
    assert main(["oracle", "search", "--input", mpath,
                 "--pin", "zero=one"]) == 64


LONG = "1" + "0" * 4300  # 4301 digits, one past the rule of `_parse_int`


@pytest.mark.parametrize("pins, message", [
    (["0:1", "0:2"], "vertex 0 is pinned twice"),
    (["0:1", "0:1"], "vertex 0 is pinned twice"),
    ([f"{LONG}:1"], "bad pin: an integer of more than 4300 digits; "
                    "expected VERTEX:CELL"),
    ([f"0:{LONG}"], "bad pin: an integer of more than 4300 digits; "
                    "expected VERTEX:CELL"),
], ids=["last-would-win", "same-cell", "long-vertex", "long-cell"])
def test_oracle_search_refuses_a_vertex_pinned_twice_and_a_long_pin(
        write_doc, capsys, pins, message):
    mpath = write_doc("halves.json", {"n": 3, "S": [[1, 2], [2, 1]]})
    argv = ["oracle", "search", "--input", mpath]
    for pin in pins:
        argv += ["--pin", pin]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oracle_ps_verify(write_doc, capsys):
    spath = write_doc("plain.json", PS_PLAIN)
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", "ps-verify", "--structure", spath,
                 "--input", mpath]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "vertex": None}
    bad = write_doc("bad-matrix.json", {"n": 2, "S": [[2, 0], [0, 2]]})
    assert main(["oracle", "ps-verify", "--structure", spath,
                 "--input", bad]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


# the 2-cube split into {0}, {1, 2} and {3}: three cells at n = 2
THREE_CELL_SQUARE = {"n": 2, "S": [[0, 2, 0], [1, 0, 1], [0, 2, 0]]}


@pytest.mark.parametrize("command", ["ps-verify", "ps-table"])
@pytest.mark.parametrize("matrix, shape", [
    (PAIR_MATRIX, "3-cube with 2 cells"),
    (THREE_CELL_SQUARE, "2-cube with 3 cells"),
])
def test_ps_structure_and_matrix_of_other_shapes_are_usage_error(
        write_doc, capsys, command, matrix, shape):
    spath = write_doc("plain.json", PS_PLAIN)
    mpath = write_doc("matrix.json", matrix)
    assert main(["oracle", command, "--structure", spath,
                 "--input", mpath]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2-cube with 2 cells" in captured.err
    assert shape in captured.err


@pytest.mark.parametrize("command", ["ps-verify", "ps-table"])
def test_ps_structure_n_above_bound_is_usage_error(write_doc, capsys, command):
    spath = write_doc("wide.json", dict(PS_PLAIN, n=15))
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", command, "--structure", spath,
                 "--input", mpath]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n <= 14" in captured.err


@pytest.mark.parametrize("command", ["ps-verify", "ps-table"])
@pytest.mark.parametrize("value", [0.5, True, None, "half"])
def test_ps_structure_with_an_inexact_value_is_usage_error(write_doc, capsys,
                                                           command, value):
    doc = dict(PS_PLAIN, values=[[2, 0], [0, 2], [2, value], [0, 2]])
    spath = write_doc("inexact.json", doc)
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", command, "--structure", spath,
                 "--input", mpath]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not an exact value: {value!r}" in captured.err


def test_oracle_ps_table_level_zero_values(write_doc, capsys):
    spath = write_doc("mixed.json", PS_MIXED)
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", "ps-table", "--structure", spath,
                 "--input", mpath, "--max-level", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"]["0,0,0"] == ["10", "2", "2", "2", "2", "2", "2",
                                       "10"]


def test_oracle_ps_table_accepts_rational_strings(write_doc, capsys):
    halves = {"n": 2, "m": 2,
              "values": [["1/2", 0], [0, "1/2"], ["1/2", 0], [0, "1/2"]]}
    spath = write_doc("halves.json", halves)
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", "ps-table", "--structure", spath,
                 "--input", mpath, "--max-level", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"]["0,0,0"] == ["1/4", "0", "0", "0", "0", "0", "0",
                                       "1/4"]


def test_oracle_ps_table_rejects_float_values(write_doc, capsys):
    floats = {"n": 2, "m": 2,
              "values": [[0.5, 0], [0, 0.5], [0.5, 0], [0, 0.5]]}
    spath = write_doc("floats.json", floats)
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", "ps-table", "--structure", spath,
                 "--input", mpath]) == 64


# -- output bytes ------------------------------------------------------------

S22_MATRIX = {"n": 22, "S": [[0, 22, 0], [5, 6, 11], [0, 10, 12]]}


@pytest.mark.parametrize("flags, digest", [
    ([], "c52e22c1de279c208eeb07dcbfb35e4e"
         "9dd7e94bd20360a94035c8e60f91ffa7"),
    (["--kind", "interweight", "--format", "csv"],
     "1c48dc612d4068085862b352b5bbff7f"
     "3aa92078e970cfc2b08bf469fdb3ef67"),
])
def test_table_output_bytes_are_pinned(write_doc, capsys, flags, digest):
    # SHA-256 of stdout for the full 22-cube tables; any change to an
    # entry, the key order or the layout changes it
    path = write_doc("s22.json", S22_MATRIX)
    assert main(["table", "--input", path] + flags) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


def test_screen_output_bytes_are_pinned(write_doc, capsys):
    # SHA-256 of the 22-cube `screen` document: the certificate's first
    # violation, its violation count and the feasibility report
    path = write_doc("s22.json", S22_MATRIX)
    assert main(["screen", "--input", path]) == 2
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "7ae5180f3e7ba2943f618653223c356e06c4e42b0b0e40b6cdd6f5feb88bdd5a")


@pytest.mark.parametrize("kind, digest", [
    ("triangle", "4e01615f36a728dcb1dfe373964142d3"
                 "7b7dc187adeb0e139e95f69fed5b84af"),
    ("interweight", "40dd5135b957b5e0f9bfbb0365f6356c"
                    "0e4d6331d3987a1b25e6069ea2fad5d1"),
])
def test_fractional_table_output_bytes_are_pinned(write_doc, capsys, kind,
                                                  digest):
    # cell sizes 32/5 and 48/5: the entries are Fractions and ints mixed,
    # so the digest pins the number rule of the division back from U
    path = write_doc("fifths4.json", {"n": 4, "S": [[1, 3], [2, 2]]})
    assert main(["table", "--input", path, "--kind", kind]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["oracle", "triangle", "--partition", "PARTITION"],
     "8499b12d4d2969cd3dd5570d9c16ab0a"
     "65319da636ebda0ffbf8c21b027e23ff"),
    (["oracle", "triangle", "--partition", "PARTITION", "--format", "csv"],
     "b351565fc4ea5caed9031ba40a0f1061"
     "c8fda0bd82a9c3202a7f256364f098ce"),
    (["oracle", "interweight", "--partition", "PARTITION", "--vertex", "0"],
     "79bdba7aeaa8590bc12a7d49e367d289"
     "3229fa9835161ee73089f4b18d0d49d1"),
    (["oracle", "ps-table", "--structure", "STRUCTURE", "--input", "MATRIX"],
     "25158ee93d3ffc874506fa4f718aefaf"
     "8c80bbca13d0a8a418083787968cda2e"),
    (["oracle", "ps-table", "--structure", "STRUCTURE", "--input", "MATRIX",
      "--format", "csv"],
     "ae913f52c53b6a68b926cfdfc881b8c9"
     "ba641a9587af0212ba4d0b068b621425"),
])
def test_oracle_table_output_bytes_are_pinned(write_doc, capsys, argv,
                                              digest):
    # SHA-256 of stdout for the brute-force tables of the pair partition
    # and the propagated table of PS_MIXED under the all-ones matrix
    files = {"PARTITION": write_doc("pair-partition.json", PAIR_PARTITION),
             "STRUCTURE": write_doc("mixed.json", PS_MIXED),
             "MATRIX": write_doc("all1.json", ALL1_MATRIX)}
    assert main([files.get(a, a) for a in argv]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("partition, flags, digest", [
    (parity_partition(5), ["triangle"],
     "e9f0633b51df2e0a6840f338cb9c9e69"
     "09c2d03b919c131f06dc6376b70e1410"),
    (parity_partition(5), ["triangle", "--format", "csv"],
     "c9a049430f82798ce58c421b9d7c10df"
     "d414bb4311af0e954761ab058ce8a010"),
    (parity_partition(5), ["interweight", "--vertex", "5"],
     "fda92e85252b8f10673a4b05c2fdf22c"
     "ea65d517c2b4c9ce68de338c4a61edad"),
    (singleton_partition(3), ["triangle"],
     "c713ffd119f175e5198c05f6195b9d37"
     "6d2f9d93c708e2c9c3a7d671783d2fa9"),
    (singleton_partition(3), ["triangle", "--format", "csv"],
     "18d60d141204e463c96ad847c8fb5bdf"
     "47bece22aafc222238e53a038521d77a"),
    (singleton_partition(3), ["interweight", "--vertex", "5"],
     "2663766664f75c376e84d7a04364747f"
     "8f9a7b2646add5f822ef756df1655612"),
], ids=["parity5-json", "parity5-csv", "parity5-anchor5",
        "single3-json", "single3-csv", "single3-anchor5"])
def test_larger_oracle_table_output_bytes_are_pinned(write_doc, capsys,
                                                     partition, flags,
                                                     digest):
    # SHA-256 of stdout for the brute-force tables of the parity 5-cube
    # (32768 triples) and the singleton 3-cube (m = 8, 512 entries per
    # triple), so a counting kernel must reproduce them byte for byte
    path = write_doc("partition.json", {"n": partition.n, "m": partition.m,
                                        "cells": partition.cells()})
    assert main(["oracle", flags[0], "--partition", path] + flags[1:]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


POLY_TRIPLES = [(a, b, c) for a in range(6) for b in range(6 - a)
                for c in range(6 - a - b)]


def test_poly_output_bytes_are_pinned(capsys):
    # SHA-256 of stdout for `poly --method genfun` at all 56 triples of
    # degree at most 5, plain and at n = 5
    assert len(POLY_TRIPLES) == 56
    out = b""
    for extra in ([], ["--n", "5"]):
        for r1, r2, r3 in POLY_TRIPLES:
            assert main(["poly", "--r1", str(r1), "--r2", str(r2),
                         "--r3", str(r3), "--method", "genfun"] + extra) == 0
            out += capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "c35c4868850e5d323ed0e0cd558d5985"
        "ab28a17a05bade90381633483428de7f")



# the JSON reports: screen (candidate; fractional sizes, so a non-integer
# violation; a row-sum failure; contradictory size ratios), the oracle's
# verify, invariance, search and ps-verify, each with its exit code
REPORT_DOCS = {
    "PAIR": PAIR_MATRIX,
    "FRACTIONAL": {"n": 4, "S": [[1, 3], [2, 2]]},
    "ROWSUM": {"n": 3, "S": [[0, 3], [1, 1]]},
    "CYCLE": {"n": 3, "S": [[0, 1, 2], [1, 0, 2], [1, 2, 0]]},
    "PARTITION": PAIR_PARTITION,
    "UNEVEN": {"n": 2, "m": 2, "cells": [[0], [1, 2, 3]]},
    "PLAIN": PS_PLAIN,
    "ALL1": ALL1_MATRIX,
    "DIAGONAL": {"n": 2, "S": [[2, 0], [0, 2]]},
}


@pytest.mark.parametrize("argv, code, digest", [
    (["screen", "--input", "PAIR"], 0,
     "b50cf27e13fe15b4b07e1c8fd4d0015e"
     "c55d31b47011f67457c0a89d789febc5"),
    (["screen", "--input", "FRACTIONAL"], 2,
     "eabe42064aca22c5f85a930975390859"
     "d521bc27de69f6fe58010757fb19b924"),
    (["screen", "--input", "ROWSUM"], 2,
     "56b12ffef21a25ac2345f99ced06e11a"
     "edce02a4ac1f6b01e730159a764d2b0a"),
    (["screen", "--input", "CYCLE"], 2,
     "88fcafa3172ac19b465e1124b2007736"
     "54572a48f774f32f920c3f8fee0654ad"),
    (["oracle", "verify", "--partition", "PARTITION"], 0,
     "5df0df523a35abe751d79bb85a4d4bc4"
     "e8c350f6c7c6a6de569475bfe6d9884f"),
    (["oracle", "verify", "--partition", "UNEVEN"], 1,
     "ea7857fbebf6d45dd99fdc0a7ab88bc3"
     "e69de4fa1a705416543fb41d4da75666"),
    (["oracle", "invariance", "--partition", "PARTITION"], 0,
     "482cc73fa579a5689f1df101f5948ec4"
     "8b08f9ec82f92d50b7ab2a1012c6470a"),
    (["oracle", "invariance", "--partition", "UNEVEN"], 1,
     "4bb65386ffd5f6b085fa4faf93706b43"
     "a3fcaaca9f0a08a0b99f5fa2c7753941"),
    (["oracle", "search", "--input", "PAIR", "--limit", "3"], 0,
     "6672cdfa698c1b8094f6dd755e12ab3d"
     "0cfae26bc97931697c25e4c332ac1eb4"),
    (["oracle", "ps-verify", "--structure", "PLAIN", "--input", "ALL1"], 0,
     "267c045da808d82c66bbc1786eea5444"
     "9a956de5387e5372c498560433b07a2b"),
    (["oracle", "ps-verify", "--structure", "PLAIN", "--input", "DIAGONAL"],
     1,
     "55cdc10b81abd381776355229f948940"
     "b3e15b54175c9a5c75e5efba137358da"),
])
def test_report_bytes_are_pinned(write_doc, capsys, argv, code, digest):
    files = {name: write_doc(f"{name}.json", doc)
             for name, doc in REPORT_DOCS.items()}
    assert main([files.get(a, a) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


def test_sweep_report_bytes_are_pinned(capsys):
    # the seven records of n <= 14 on stdout, the summary on stderr
    assert main(["sweep", "--n-max", "14"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == (
        "852c653279c5999b1d58eb03ad316b01"
        "37582b456d4c0578eb7bc9871f126583")
    assert captured.err == \
        "sweep n_max=14: 7 candidates, 7 with witness, 0 without\n"


def test_sweep_record_without_witness(capsys, monkeypatch):
    def hunt_witness(params):
        n, a, b, c, d = params
        return SweepCandidate(n=n, a=a, b=b, c=c, d=d,
                              witness=None, witness_value=None)
    monkeypatch.setattr("eqcube.screen.hunt_witness", hunt_witness)
    assert main(["sweep", "--n-max", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        '{"n": 5, "a": 0, "b": 5, "c": 3, "d": 2, '
        '"witness": "NO WITNESS FOUND", "witness_value": null}\n')
    assert captured.err == \
        "sweep n_max=5: 1 candidates, 0 with witness, 1 without\n"


def test_oracle_invariance_refuses_ten_cube(write_doc, capsys):
    P = parity_partition(10)
    ppath = write_doc("parity10.json", {"n": 10, "m": 2, "cells": P.cells()})
    assert main(["oracle", "invariance", "--partition", ppath]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n <= 9; got 10" in captured.err


@pytest.mark.parametrize("doc, message", [
    ({"n": 3, "m": 3, "cells": [[0, 7], [1, 2, 3, 4, 5, 6]]},
     "expected 3 cells"),
    ({"n": 3, "m": 2, "cells": [[0, 8], [1, 2, 3, 4, 5, 6, 7]]},
     "vertex 8 outside the 3-cube"),
    ({"n": 3, "m": 2, "cells": [[0, 7], 5]},
     "cell 2 is no list of vertices: 5"),
])
def test_malformed_partition_document_is_usage_error(write_doc, capsys, doc,
                                                     message):
    path = write_doc("partition.json", doc)
    assert main(["oracle", "verify", "--partition", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("values, message", [
    ("2 0 0 2", "values must be a list"),
    ([[2, 0], [0], [2, 0], [0, 2]], "each value row must have 2 entries"),
])
def test_malformed_structure_document_is_usage_error(write_doc, capsys,
                                                     values, message):
    spath = write_doc("structure.json", {"n": 2, "m": 2, "values": values})
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", "ps-verify", "--structure", spath,
                 "--input", mpath]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_structure_document_without_entries_is_usage_error(write_doc, capsys):
    spath = write_doc("structure.json", {"n": 2, "m": 0, "values": [[]] * 4})
    mpath = write_doc("all1.json", ALL1_MATRIX)
    assert main(["oracle", "ps-verify", "--structure", spath,
                 "--input", mpath]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "value rows have no entries" in captured.err


def test_poly_all_exits_1_when_a_route_disagrees(capsys, monkeypatch):
    monkeypatch.setitem(cli._POLY_METHODS, "genfun",
                        lambda *r: krawtchouk.ZERO)
    assert main(["poly", "--r1", "1", "--r2", "0", "--r3", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("method disagreement at (1, 0, 0): genfun "
                            "differs from recursion\n")


@pytest.mark.parametrize("command", [["screen"], ["table"], ["oracle", "search"]])
@pytest.mark.parametrize("S, message", [
    ([[-1, 4], [1, 2]], "entry (1,1) = -1 is not a nonnegative integer"),
    ([[0, 3, 0], [1, 2, 0]],
     "matrix is not square: 2 rows, row lengths [3, 3]"),
    ([[0, 3], [1, 2.5]], "entry (2,2) = 2.5 is not a nonnegative integer"),
], ids=["negative", "non-square", "non-integer"])
def test_malformed_matrix_gets_the_library_message_from_every_command(
        write_doc, capsys, command, S, message):
    # a negative count is refused like any malformed matrix, by `screen`
    # too, where it used to get a "nonexistent" verdict
    path = write_doc("malformed.json", {"n": 3, "S": S})
    assert main(command + ["--input", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _int_of_any_size(text):
    """int(text) past the interpreter's cap on int <-> str digits."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(cap)


def test_exact_values_of_any_size_print(write_doc, capsys):
    # each cell of [[0, n], [n, 0]] holds 2^(n-1) vertices, 4301 digits
    # at n = 14286, one past the interpreter's default cap
    n = 14286
    path = write_doc("huge.json", {"n": n, "S": [[0, n], [n, 0]]})
    cap = sys.get_int_max_str_digits()
    assert main(["screen", "--input", path, "--max-level", "0"]) == 0
    sizes = json.loads(capsys.readouterr().out)["feasibility"]["sizes"]
    assert [_int_of_any_size(s) for s in sizes] == [2 ** (n - 1)] * 2
    assert main(["table", "--input", path, "--max-level", "0"]) == 0
    level0 = json.loads(capsys.readouterr().out)["entries"]["0,0,0"]
    assert _int_of_any_size(level0[0]) == _int_of_any_size(level0[7]) \
        == 2 ** (n - 1)
    assert sys.get_int_max_str_digits() == cap


def test_an_integer_of_more_than_4300_digits_is_not_read(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"n": 1' + "0" * 4999 + ', "S": [[0]]}',
                    encoding="utf-8")
    assert main(["screen", "--input", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad JSON in {path}: an integer of "
                            f"more than 4300 digits\n")
