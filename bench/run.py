"""eqcube benchmark: three seeded workloads, end-to-end and per layer.

    python3 bench/run.py --workload screen3|sweep2|verify --seed N \
        --seconds S --trace 0|1

All three workloads in one go:

    for w in screen3 sweep2 verify; do python3 bench/run.py --workload $w; done

Run from the root of a checkout.  Every round runs in a fresh,
single-threaded interpreter (bench/worker.py), one at a time, because
the polynomial caches in eqcube.krawtchouk are module-global and a CLI
user pays them cold on every invocation.

--trace 0 (timed run): rounds 0, 1, 2, ... each with inputs seeded by
(workload, seed, round), until S seconds have passed; the round under
way when time is up is finished.  Nothing is wrapped.

Every time in the result line is scaled to a fixed speed of the host:
a measured time t is reported as t * NOMINAL_REF_S / r, where r is the
time of a fixed pure-Python loop that runs no eqcube code
(worker.reference_s), run every 50 ms in the same interpreter while t
was measured (worker.SpeedSampler; r is the harmonic mean of those runs,
and their own time is taken off t).  On a shared host the speed at which
the CPU runs Python switches between levels up to 45% apart, on a scale
of seconds, and it moves the program and the loop together, so the
scaled time follows the program's cost rather than the host's load.
The result line carries:

  setup_s      median over rounds of interpreter start to inputs ready
  ops_per_s    operations that passed their checks per second of
               operation time
  anchor_s     median over rounds of the round's pinned slowest
               operation: the 22-cube `screen` (certify22_s, screen3),
               the (40,5,35,21,19) hunt (hunt40_s, sweep2), or a
               zero-operator vanishing check on the singleton 3-cube,
               m = 8 (vanish8_s, verify)
  peak_rss_mb  median over rounds of the worker's ru_maxrss

The report before it also prints the same figures unscaled, as a user's
clock sees them, and two that are not in the result line: op_p50_s, the
median operation time, which falls between operation kinds whose costs
differ a hundredfold so that its spread over seeds exceeds any allowed
bound, and fail_frac, failed over attempted operations (the result's
`failed`/`attempted`; 0 whenever the program is right).

--trace 1 (traced run): round 0 once plain and once with the tracer
installed, each in a fresh interpreter; reports the per-layer metrics of
bench/spans.py plus trace.overhead_frac (the traced round's scaled time,
set-up and operations, over the plain one's, minus 1), and writes the
spans to bench/out/.  Span times are not scaled and include the
sampler's 2% or so.  Its work is fixed by the seed,
so every count repeats.

The last line of standard output is the JSON result; the lines before
it are a readable report and a metadata line.  Exits non-zero without a
result when the checkout has no eqcube source or a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("screen3", "sweep2", "verify")
ANCHOR_LABEL = {"screen3": "certify22_s", "sweep2": "hunt40_s",
                "verify": "vanish8_s"}
ROUND_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("anchor_s", "s"),
    ("peak_rss_mb", "MB"),
)
# worker.reference_s takes 0.7-1.4 ms on a shared two-vCPU VM with
# Python 3.11
NOMINAL_REF_S = 0.001


class RoundFailed(RuntimeError):
    pass


def launch(workload: str, seed: int, round_index: int, trace: bool) -> dict:
    """Run one round in a fresh interpreter and return its document."""
    cmd = [sys.executable, "-I", str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--round", str(round_index), "--trace", str(int(trace))]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round {round_index} exceeded "
                          f"{ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"round {round_index} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["setup_end"] - t0 - doc["setup_sampling_s"]
    return doc


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, rounds: list[dict], counts: dict) -> dict:
    kinds: dict[str, int] = {}
    sampler: dict[str, int] = {}
    for rnd in rounds:
        for op in rnd["ops"]:
            kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
        for key, value in rnd["sampler"].items():
            sampler[key] = sampler.get(key, 0) + value
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "rounds": len(rounds),
            "ops_per_kind": kinds, "sampler": sampler, "samples": counts}


def scale(seconds: float, ref_s: float) -> float:
    return seconds * NOMINAL_REF_S / ref_s


def round_s(doc: dict) -> float:
    """A round's scaled set-up and operation time."""
    return scale(doc["setup_s"], doc["setup_ref_s"]) + sum(
        scale(op["seconds"], op["ref_s"]) for op in doc["ops"])


def figures(rounds: list[dict], scaled: bool) -> dict:
    """The result metrics, with times scaled to NOMINAL_REF_S or not."""
    def t(seconds: float, ref_s: float) -> float:
        return scale(seconds, ref_s) if scaled else seconds

    ops = [op for rnd in rounds for op in rnd["ops"]]
    passed = sum(1 for op in ops if op["error"] is None)
    return {
        "setup_s": statistics.median(t(r["setup_s"], r["setup_ref_s"])
                                     for r in rounds),
        "ops_per_s": passed / sum(t(op["seconds"], op["ref_s"])
                                  for op in ops),
        "anchor_s": statistics.median(t(op["seconds"], op["ref_s"])
                                      for op in ops if op["anchor"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def timed_run(args) -> tuple[dict, dict, list[dict]]:
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(launch(args.workload, args.seed, len(rounds), False))
    values = figures(rounds, scaled=True)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    n_ops = sum(len(r["ops"]) for r in rounds)
    samples = {"setup_s": len(rounds), "ops_per_s": n_ops,
               "anchor_s": len(rounds), "peak_rss_mb": len(rounds)}
    return metrics, samples, rounds


def traced_run(args) -> tuple[dict, dict, list[dict]]:
    plain = launch(args.workload, args.seed, 0, False)
    traced = launch(args.workload, args.seed, 0, True)
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = round_s(traced) / round_s(plain) - 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in spans.PER_LAYER}
    samples = {"spans": traced["spans"], "rounds_plain": 1,
               "rounds_traced": 1}
    return metrics, samples, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        metrics, samples, rounds = (traced_run if args.trace
                                    else timed_run)(args)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ops = [op for rnd in rounds for op in rnd["ops"]]
    failures = [op for op in ops if op["error"] is not None]

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} ops={len(ops)}")
    for name, metric in metrics.items():
        label = name
        if name == "anchor_s":
            label = f"anchor_s ({ANCHOR_LABEL[args.workload]})"
        note = f"n={samples[name]}" if name in samples else ""
        print(f"  {label:<48} {metric['value']:.6g} {metric['unit']} {note}")
    if not args.trace:
        wall = figures(rounds, scaled=False)
        wall[ANCHOR_LABEL[args.workload]] = wall.pop("anchor_s")
        wall["op_p50_s"] = statistics.median(op["seconds"] for op in ops)
        del wall["peak_rss_mb"]
        print("  unscaled: " + ", ".join(f"{name} {value:.6g}"
                                         for name, value in wall.items()))
    print(f"  fail_frac {len(failures) / len(ops):.6g} "
          f"({len(failures)}/{len(ops)})")
    for op in failures:
        print(f"  FAILED {op['kind']}: {op['error']}")
    print(json.dumps({"meta": metadata(args, rounds, samples)}))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
