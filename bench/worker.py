"""One benchmark round, run by bench/run.py in a fresh interpreter.

    python3 -I bench/worker.py --workload W --seed N --round R [--trace 1]

Imports eqcube from the checkout's src/, builds the round's seeded
inputs, runs every operation once in order and prints one JSON document:
the monotonic time at which set-up ended, the set-up's sampling time and
reference time, each operation's kind, time, reference time and error
(null when its checks passed), and ru_maxrss.  Times are net of the
sampling (see `SpeedSampler`); a reference time is the harmonic mean of
the runs of `reference_s` made during the interval it belongs to.  With
--trace 1 the tracer is installed before the inputs are generated, the
document also carries the per-layer metrics, and the spans are written
to bench/out/.  A failed check is recorded and the round goes on; only a
missing source tree or a broken set-up ends the process with an error.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from checkout import MissingSource, import_eqcube  # noqa: E402


SAMPLE_EVERY_S = 0.05


def reference_s() -> float:
    """Time of a fixed pure-Python loop that runs no eqcube code.

    It does the kinds of work eqcube's exact arithmetic does: Fraction
    products and sums, tuple-keyed dict stores and integer division.  On
    a shared two-vCPU VM, loops of this kind tracked the speed of table
    builds and witness hunts to within 4-6%, against 11% for a loop of
    integer arithmetic alone, while the raw speed moved by 10-22%.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(1, 80):
        table[i, i & 7] = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, 3)
    for i in range(1600):
        table[i, i & 7] = i * 12345678901 // 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs `reference_s` every SAMPLE_EVERY_S seconds from a SIGALRM
    handler, in the interpreter's only thread.

    On a shared host the speed at which the CPU runs Python switches
    between levels up to 45% apart, on a scale of seconds: shorter than
    the slow operations, so runs of the loop between operations miss
    the switches inside them.  Sampling throughout lets every interval
    be scaled by the speed the host had during it.  Each sample costs
    about 2% of the interval, which `measure` takes off again.
    """

    def __init__(self):
        self.starts: list[float] = []   # perf_counter at each sample
        self.loops: list[float] = []    # the sample's reference_s

    def _sample(self, signum=None, frame=None) -> None:
        self.starts.append(time.perf_counter())
        self.loops.append(reference_s())

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Seconds of [t0, t1] not spent sampling, and the harmonic mean
        of the samples taken within a sampling period of it (the nearest
        sample when none is)."""
        starts = self.starts
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        net = t1 - t0 - sum(self.loops[lo:hi])
        near = self.loops[bisect.bisect_left(starts, t0 - SAMPLE_EVERY_S):
                          bisect.bisect_right(starts, t1 + SAMPLE_EVERY_S)]
        if not near:
            nearest = min(range(len(starts)),
                          key=lambda i: abs(starts[i] - (t0 + t1) / 2))
            near = [self.loops[nearest]]
        return net, len(near) / sum(1 / loop for loop in near)


def run_ops(ops, tracer=None) -> list[dict]:
    """Run each operation; a raised exception marks it failed."""
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            op.run()
            error = None
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        results.append({"kind": op.kind, "anchor": op.anchor,
                        "start": t0, "end": time.perf_counter(),
                        "error": error})
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sampler = SpeedSampler()
    sampler.start()
    try:
        import_eqcube()
        import spans
        import workloads

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        golden = workloads.load_golden()
        rnd = workloads.make_round(args.workload, args.seed, args.round,
                                   golden)
        setup_end = time.monotonic()
        setup_perf = time.perf_counter()
        results = run_ops(rnd.ops, tracer)
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        sampler.stop()
    # set-up started with the interpreter, before the first sample
    setup_net, setup_ref = sampler.measure(sampler.starts[0], setup_perf)
    for op in results:
        op["seconds"], op["ref_s"] = sampler.measure(op.pop("start"),
                                                     op.pop("end"))
    doc = {
        "setup_end": setup_end,
        "setup_sampling_s": setup_perf - sampler.starts[0] - setup_net,
        "setup_ref_s": setup_ref,
        "ops": results,
        "sampler": rnd.sampler,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = spans.layer_metrics(tracer.spans)
        doc["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-"
                     f"round{args.round}.jsonl")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
