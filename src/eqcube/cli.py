"""Command-line front end.

Subcommands: table, poly, screen, sweep, oracle.  All file formats are
JSON (documents described below) or CSV; every numeric value in any
output is an exact integer or rational rendered as a decimal string or
"p/q", never a float.

Input documents (n, the cube's dimension, a positive integer in each):
  matrix     {"n": 22, "S": [[0, 22, 0], [5, 6, 11], [0, 10, 12]]}
  partition  {"n": 3, "m": 2, "cells": [[0, 7], [1, 2, 3, 4, 5, 6]]}
             (vertices are integers; bit i of a vertex is coordinate i)
  structure  {"n": 2, "m": 2, "values": [[2, 0], ["2", 0], ...]}
             (one m-vector per vertex; entries integers or "p/q")

Table output document (--format json):
  {"kind": "triangle", "n": ..., "m": ...,
   "index_order": "i-major,k-minor",
   "entries": {"r1,r2,r3": [m^3 values in flat order]}}
CSV output has a header row r1,r2,r3,i,j,k,value.

Output: `main` opens it once, before the command runs: the --out file
where the command has one and it is not "-", else stdout.  So an
unwritable --out is refused before any work, and a run refused or failed
after the open may leave an empty --out file.  The screen, sweep and
oracle invariance reports are their dataclasses as `asdict` lists them.

Exit codes: 0 success (for `screen`: candidate), 1 a check the command
ran failed (cross-check, equitability, invariance, ps-verify, route
agreement, a sweep candidate without a witness), 2 `screen` certified
nonexistent, 64 any input the CLI or the library refuses with
ValueError (bad JSON, an integer of more than 4300 digits, missing
fields, malformed flags, an S that is not a square matrix of
nonnegative integers, `screen` included, a structure and matrix of
different shapes, an --out that cannot be written, a brute-force cost
cap, the table size cap, a polynomial degree above 200), 141 the reader
of the output closed the pipe before it was written (`| head`), as a
shell reports for SIGPIPE.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Sequence

from . import krawtchouk, oracle, recursion, screen
from .exact_linalg import iter_index_triples
from .quotient import (QuotientError, QuotientMatrix, check_dimension,
                       validate_quotient)
from .recursion import INTERWEIGHT, TRIANGLE, DistributionTable


# the interpreter's default cap on int <-> str digits, which `main` lifts
MAX_INPUT_DIGITS = 4300


def render_value(v) -> str:
    """Exact decimal or p/q text for an int or Fraction."""
    return str(Fraction(v))


def _parse_int(literal: str) -> int:
    if len(literal.lstrip("-")) > MAX_INPUT_DIGITS:
        raise ValueError(f"an integer of more than {MAX_INPUT_DIGITS} digits")
    return int(literal)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError among them
        raise ValueError(f"bad JSON in {path}: {exc}") from exc


def _read_doc(path: str, *fields: str) -> list:
    """[n, *fields] of the JSON document at path, n a positive integer."""
    doc = _load_json(path)
    fields = ("n",) + fields
    for field in fields:
        if not isinstance(doc, dict) or field not in doc:
            raise ValueError(f"{path}: missing field {field!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{path}: n must be a positive integer")
    return [doc[field] for field in fields]


def load_matrix(path: str) -> tuple[int, list[list]]:
    n, S = _read_doc(path, "S")
    if (not isinstance(S, list) or not S
            or any(not isinstance(row, list) for row in S)):
        raise ValueError(f"{path}: S must be a list of rows")
    return n, S


def _load_quotient(path: str) -> QuotientMatrix:
    """The quotient matrix in a matrix file; any other matrix is unusable
    input (only `screen` gives some of them a verdict)."""
    n, S = load_matrix(path)
    try:
        return validate_quotient(S, n)
    except QuotientError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_partition(path: str) -> oracle.PartitionInstance:
    n, m, cells = _read_doc(path, "m", "cells")
    if not isinstance(cells, list) or len(cells) != m:
        raise ValueError(f"{path}: expected {m} cells")
    try:
        return oracle.PartitionInstance.from_cells(n, cells)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_structure(path: str) -> oracle.PerfectStructure:
    n, m, values = _read_doc(path, "m", "values")
    if not isinstance(values, list):
        raise ValueError(f"{path}: values must be a list")
    for row in values:
        if not isinstance(row, list) or len(row) != m:
            raise ValueError(f"{path}: each value row must have {m} entries")
    try:
        return oracle.PerfectStructure.from_rows(n, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_structure_pair(args: argparse.Namespace
                         ) -> tuple[oracle.PerfectStructure, QuotientMatrix]:
    """A `ps-` command's structure and quotient matrix, of one shape."""
    PS, Q = load_structure(args.structure), _load_quotient(args.input)
    if (PS.n, PS.m) != (Q.n, Q.m):
        raise ValueError(f"{args.structure}: {PS.n}-cube with {PS.m} cells, "
                         f"but {args.input}: {Q.n}-cube with {Q.m} cells")
    return PS, Q


def table_document(table: DistributionTable) -> dict:
    entries: dict[str, list[str]] = {}
    for triple, vec in table.entries.items():
        key = ",".join(str(r) for r in triple)
        entries[key] = [render_value(e) for e in vec.entries]
    return {
        "kind": table.kind,
        "n": table.n,
        "m": table.m,
        "index_order": "i-major,k-minor",
        "entries": entries,
    }


def write_table(table: DistributionTable, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(table_document(table), out, indent=2)
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["r1", "r2", "r3", "i", "j", "k", "value"])
    for triple, vec in table.entries.items():
        for (i, j, k), value in zip(iter_index_triples(table.m), vec.entries):
            writer.writerow([*triple, i, j, k, render_value(value)])


@contextlib.contextmanager
def _open_out(path: str | None):
    """The output stream: stdout for None or "-", else the file, closed
    on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    with fh:
        yield fh


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_table(args: argparse.Namespace, out) -> int:
    Q = _load_quotient(args.input)
    table = recursion.build_table(Q, args.kind, max_level=args.max_level,
                                  force=args.force)
    if args.cross_check:
        report = recursion.cross_check(table, Q)
        if not report.ok:
            print(f"cross-check failed: "
                  f"{len(report.derivation_mismatches)} derivation, "
                  f"{len(report.symmetry_mismatches)} symmetry, "
                  f"{len(report.marginal_mismatches)} marginal mismatches",
                  file=sys.stderr)
            return 1
    write_table(table, args.format, out)
    return 0


# --method all runs the routes in this order: routes 2 and 3 refuse
# above a lower degree than route 1, so they refuse before it runs
_POLY_METHODS = {
    "direct": krawtchouk.poly_direct,
    "genfun": krawtchouk.genfun_coeff,
    "recursion": krawtchouk.poly_recursive,
}


def cmd_poly(args: argparse.Namespace, out) -> int:
    r = (args.r1, args.r2, args.r3)
    if args.n is not None:
        try:
            check_dimension(args.n)  # before any route runs
        except ValueError as exc:
            raise ValueError(f"{exc} (--n on the command line)") from None
    if args.method == "all":
        polys = {name: fn(*r) for name, fn in _POLY_METHODS.items()}
        first = polys["recursion"]
        for name, p in polys.items():
            if p != first:
                print(f"method disagreement at {r}: {name} differs from "
                      f"recursion", file=sys.stderr)
                return 1
        poly = first
    else:
        poly = _POLY_METHODS[args.method](*r)
    if args.n is not None:
        specialized = poly.specialize_n(args.n)
        poly = krawtchouk.TriPoly(
            {(dx, dy, dz, 0): c for (dx, dy, dz), c in specialized.items()})
    print(poly.render(), file=out)
    return 0


def cmd_screen(args: argparse.Namespace, out) -> int:
    n, S = load_matrix(args.input)
    try:
        cert = screen.certify(S, n, max_level=args.max_level, force=args.force)
    except QuotientError as exc:  # a malformed matrix gets no verdict
        raise ValueError(f"{args.input}: {exc}") from exc
    doc = asdict(cert)
    if cert.feasibility is not None:
        feasibility = doc["feasibility"]
        if cert.feasibility.sizes is not None:
            feasibility["sizes"] = [render_value(s)
                                    for s in cert.feasibility.sizes]
        feasibility["verdict"] = cert.feasibility.verdict
    print(json.dumps(doc, indent=2, default=render_value), file=out)
    return 0 if cert.verdict == "candidate" else 2


def cmd_sweep(args: argparse.Namespace, out) -> int:
    total = without = 0
    # closed on a closed pipe too, which cancels the hunts not yet started
    with contextlib.closing(screen.sweep_ci(args.n_max,
                                            jobs=args.jobs)) as records:
        for cand in records:
            rec = asdict(cand)
            if cand.witness is None:
                rec["witness"] = "NO WITNESS FOUND"
                without += 1
            total += 1
            out.write(json.dumps(rec, default=render_value) + "\n")
            out.flush()  # each record is readable as its hunt finishes
    summary = (f"sweep n_max={args.n_max}: {total} candidates, "
               f"{total - without} with witness, {without} without")
    # records written to stdout own it; the summary then goes to stderr
    print(summary, file=sys.stderr if out is sys.stdout else sys.stdout)
    return 0 if without == 0 else 1


def cmd_oracle_verify(args: argparse.Namespace, out) -> int:
    P = load_partition(args.partition)
    try:
        Q = oracle.verify_equitable(P)
    except oracle.NotEquitable as exc:
        print(json.dumps({
            "equitable": False,
            "vertex": exc.vertex,
            "got": exc.row_got,
            "expected": exc.row_expected,
        }, indent=2), file=out)
        return 1
    print(json.dumps({"equitable": True, "n": Q.n, "S": Q.rows}, indent=2),
          file=out)
    return 0


def cmd_oracle_triangle(args: argparse.Namespace, out) -> int:
    P = load_partition(args.partition)
    write_table(oracle.brute_triangle(P, force=args.force), args.format, out)
    return 0


def cmd_oracle_interweight(args: argparse.Namespace, out) -> int:
    P = load_partition(args.partition)
    write_table(oracle.brute_interweight(P, args.vertex, force=args.force),
                args.format, out)
    return 0


def cmd_oracle_invariance(args: argparse.Namespace, out) -> int:
    P = load_partition(args.partition)
    result = oracle.strong_invariance_check(P)
    print(json.dumps(asdict(result), indent=2), file=out)
    return 0 if result.status == "holds" else 1


def _parse_pins(raw: list[str]) -> dict[int, int]:
    pins: dict[int, int] = {}
    for item in raw:
        try:
            v, label = map(_parse_int, item.split(":"))
        except ValueError as exc:
            raise ValueError(f"bad pin: {exc}; expected VERTEX:CELL") from exc
        if v in pins:
            raise ValueError(f"vertex {v} is pinned twice")
        pins[v] = label
    return pins


def cmd_oracle_search(args: argparse.Namespace, out) -> int:
    Q = _load_quotient(args.input)
    result = oracle.search_partitions(Q.n, Q, limit=args.limit,
                                      pins=_parse_pins(args.pin))
    print(json.dumps({
        "complete": result.complete,
        "count": len(result.partitions),
        "partitions": [p.cells() for p in result.partitions],
    }, indent=2), file=out)
    return 0


def cmd_oracle_ps_verify(args: argparse.Namespace, out) -> int:
    PS, Q = _load_structure_pair(args)
    ok, vertex = oracle.verify_perfect_structure(PS, Q)
    print(json.dumps({"ok": ok, "vertex": vertex}, indent=2), file=out)
    return 0 if ok else 1


def cmd_oracle_ps_table(args: argparse.Namespace, out) -> int:
    PS, Q = _load_structure_pair(args)
    initial = oracle.ps_initial_triangle(PS)
    write_table(recursion.build_table(Q, TRIANGLE, max_level=args.max_level,
                                      initial=initial, force=args.force),
                args.format, out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several commands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqcube",
        description="Exact distribution tables, polynomials and "
                    "nonexistence screens for equitable partitions of "
                    "hypercubes.")
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = _option("--input", required=True, help="matrix JSON file")
    partition = _option("--partition", required=True)
    structure = _option("--structure", required=True,
                        help="structure JSON file")
    level = _option("--max-level", type=int, default=None)
    force = _option("--force", action="store_true",
                    help=f"override the cap of {recursion.MAX_TABLE_ENTRIES} "
                         f"table entries")
    out = _option("--out", default=None, help="output file (default stdout)")
    table_out = [_option("--format", choices=("json", "csv"), default="json"),
                 out]

    p = sub.add_parser("table", parents=[matrix, level, force, *table_out],
                       help="build a distribution table by recursion")
    p.add_argument("--kind", choices=(TRIANGLE, INTERWEIGHT), default=TRIANGLE)
    p.add_argument("--cross-check", action="store_true",
                   help="audit the table and fail on any inconsistency")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("poly", help="print a generalized Krawtchouk polynomial")
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    p.add_argument("--r3", type=int, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="substitute a concrete dimension")
    p.add_argument("--method", choices=("recursion", "direct", "genfun", "all"),
                   default="all")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("screen", parents=[matrix, level, force],
                       help="certify a candidate matrix")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("sweep", parents=[out],
                       help="two-cell witness sweep, one JSON line per "
                            "candidate")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    po = sub.add_parser("oracle", help="brute-force checks on explicit objects")
    osub = po.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("verify", parents=[partition],
                        help="is a partition equitable?")
    p.set_defaults(func=cmd_oracle_verify)

    p = osub.add_parser("triangle", parents=[partition, *table_out],
                        help="triangle table by brute force")
    p.add_argument("--force", action="store_true",
                   help="override the n <= 6 cost cap")
    p.set_defaults(func=cmd_oracle_triangle)

    p = osub.add_parser("interweight", parents=[partition, *table_out],
                        help="anchored table by brute force")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help="override the n <= 7 cost cap")
    p.set_defaults(func=cmd_oracle_interweight)

    p = osub.add_parser("invariance", parents=[partition],
                        help="are anchored tables constant on cells?")
    p.set_defaults(func=cmd_oracle_invariance)

    p = osub.add_parser("search", parents=[matrix],
                        help="find partitions realizing a matrix")
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--pin", action="append", default=[],
                   metavar="VERTEX:CELL",
                   help="force an assignment (repeatable)")
    p.set_defaults(func=cmd_oracle_search)

    p = osub.add_parser("ps-verify", parents=[structure, matrix],
                        help="check a rational vertex structure")
    p.set_defaults(func=cmd_oracle_ps_verify)

    p = osub.add_parser("ps-table", parents=[structure, matrix, level,
                                             force, *table_out],
                        help="propagate a structure's triangle table")
    p.set_defaults(func=cmd_oracle_ps_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    # exact values print at any size; `_parse_int` bounds what is read
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with _open_out(getattr(args, "out", None)) as out:
            return args.func(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except BrokenPipeError:
        # the reader closed the pipe (`eqcube table ... | head`): point
        # stdout's descriptor at the null device, so the interpreter's
        # flush of what is still buffered at exit raises nothing
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    raise SystemExit(main())
