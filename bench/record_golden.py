"""Record the golden outputs every benchmark operation is checked against.

Run once, from a commit whose outputs are trusted:

    python3 bench/record_golden.py

It writes bench/golden/screen22.json (the 22-cube `screen` document and
exit code), bench/golden/sweep2.json (the witness of every two-cell
candidate with n <= 40) and bench/golden/vanish.json (whether
P(L1, L2, L3) is the zero matrix at index sum n + 1 on the three
vanishing fixtures).  The sweep takes about 80 s on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from checkout import import_eqcube

import_eqcube()

from eqcube import cli, krawtchouk, screen  # noqa: E402

from workloads import (GOLDEN_DIR, S22_INPUT, VANISH_FIXTURES,  # noqa: E402
                       fixture, vanish_triples)


def _write(name: str, doc) -> None:
    with open(GOLDEN_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main() -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["screen", "--input", str(S22_INPUT)])
    _write("screen22.json", {"exit_code": code, "stdout": out.getvalue()})

    records = []
    for params in screen.enumerate_ci_candidates(40):
        got = screen.hunt_witness(params)
        if got.witness is None:
            print(f"no witness for {params}", file=sys.stderr)
            return 1
        records.append({"params": list(params), "witness": list(got.witness),
                        "value": str(got.witness_value)})
    _write("sweep2.json", records)

    verdicts = []
    for name in VANISH_FIXTURES:
        _, Q = fixture(name)
        for triple in vanish_triples(Q.n):
            P = krawtchouk.poly_recursive(*triple)
            verdicts.append({"fixture": name, "triple": list(triple),
                             "zero_operator":
                                 krawtchouk.lift_image_is_zero(P, Q)})
    _write("vanish.json", verdicts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
