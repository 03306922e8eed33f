"""Span tracer for the traced benchmark run.

The tracer replaces a public eqcube function at every module attribute
its callers resolve (for example ``eqcube.recursion.apply_lift`` and
``eqcube.krawtchouk.apply_lift``) with a wrapper that records a span:
name, start, end, parent span and operation id.  Counts are computed
from arguments and return values only, or from the spans themselves
(how many derive_entry calls a hunt made).  The time spent computing them
is taken off the tracer's clock, so it lands in no span's duration.
Spans stay in memory until the run ends; `layer_metrics` then folds
them into the per-layer metrics named in BENCHMARK.json.

Nothing is installed unless `Tracer.install` is called, which only the
traced run does.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict | None = None
    yields: int = 0    # items a wrapped generator yielded inside this span


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _count_apply_lift(args, kwargs, result) -> dict:
    U, L = args
    nnz = sum(1 for row in L.base for s in row if s)
    return {"mults": L.m * L.m * nnz,
            "in_bits_max": max(_bits(e) for e in U.entries)}


def _count_entry_bits(args, kwargs, result) -> dict:
    return {"entry_bits_max": max(_bits(e) for e in result.entries)}


def _count_hunt(args, kwargs, result) -> dict:
    # entries of the r1 = 0 plane at levels 0..L, where L is the witness
    # level (or n without a witness): all that hunt_witness reads.  What
    # it builds is counted from its derive_entry spans in layer_metrics.
    level = sum(result.witness) if result.witness else result.n
    return {"needed": (level + 1) * (level + 2) // 2}


def _count_terms(args, kwargs, result) -> dict:
    return {"terms": len(result.terms)}


# (span name, modules whose attribute is replaced, attribute, counter)
TARGETS: tuple[tuple[str, tuple[str, ...], str, Callable | None], ...] = (
    ("exact_linalg.apply_lift",
     ("eqcube.exact_linalg", "eqcube.recursion", "eqcube.krawtchouk"),
     "apply_lift", _count_apply_lift),
    ("recursion.derive_entry", ("eqcube.recursion",), "derive_entry",
     _count_entry_bits),
    ("recursion.build_table", ("eqcube.recursion", "eqcube.screen"),
     "build_table", lambda a, k, r: {"entries": len(r.entries)}),
    ("recursion.scan_violations", ("eqcube.recursion", "eqcube.screen"),
     "scan_violations", lambda a, k, r: {"violations": len(r)}),
    ("recursion.cross_check", ("eqcube.recursion",), "cross_check", None),
    ("screen.certify", ("eqcube.screen",), "certify", None),
    ("screen.hunt_witness", ("eqcube.screen",), "hunt_witness", _count_hunt),
    ("quotient.feasibility_conditions", ("eqcube.quotient", "eqcube.screen"),
     "feasibility_conditions",
     lambda a, k, r: {"accepted": int(r.verdict == "candidate")}),
    ("quotient.validate_quotient",
     ("eqcube.quotient", "eqcube.screen", "eqcube.oracle", "eqcube.cli"),
     "validate_quotient", None),
    ("krawtchouk.poly_recursive", ("eqcube.krawtchouk",), "poly_recursive",
     _count_terms),
    ("krawtchouk.poly_direct", ("eqcube.krawtchouk",), "poly_direct",
     _count_terms),
    ("krawtchouk.genfun_coeff", ("eqcube.krawtchouk",), "genfun_coeff",
     _count_terms),
    ("krawtchouk.eval_at_lifts", ("eqcube.krawtchouk",), "eval_at_lifts",
     None),
    ("krawtchouk.lift_image_is_zero", ("eqcube.krawtchouk",),
     "lift_image_is_zero", None),
    ("oracle.brute_triangle", ("eqcube.oracle",), "brute_triangle",
     lambda a, k, r: {"triples": 8 ** r.n}),
    ("oracle.search_partitions", ("eqcube.oracle",), "search_partitions",
     None),
    ("oracle.verify_equitable", ("eqcube.oracle",), "verify_equitable", None),
    ("cli.main", ("eqcube.cli",), "main", None),
)

# generators: each yielded item is counted on the innermost open span,
# and no span of their own is recorded (their work shows up in the spans
# of the functions they call).  Both callers of iter_table_levels,
# build_table and hunt_witness, are wrapped, so every item is counted.
GENERATOR_TARGETS = (
    (("eqcube.recursion", "eqcube.screen"), "iter_table_levels"),
)


class Tracer:
    """Records spans around wrapped functions; one instance per run."""

    def __init__(self):
        self._lost = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.op: int | None = None

    def now(self) -> float:
        """Clock with the time spent counting removed."""
        return time.perf_counter() - self._lost

    def wrap(self, name: str, fn: Callable,
             count: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.now(), 0.0,
                        stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.now()
                stack.pop()
            if count is not None:
                t0 = time.perf_counter()
                span.counts = count(args, kwargs, result)
                self._lost += time.perf_counter() - t0
            return result
        return traced

    def wrap_generator(self, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                spans[stack[-1]].yields += 1
                yield item
        return traced

    def _patch(self, module_name: str, attr: str, wrapper: Callable) -> None:
        module = importlib.import_module(module_name)
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every target at each module attribute callers resolve."""
        for name, modules, attr, count in TARGETS:
            original = getattr(importlib.import_module(modules[0]), attr)
            wrapper = self.wrap(name, original, count)
            for module_name in modules:
                self._patch(module_name, attr, wrapper)
        for modules, attr in GENERATOR_TARGETS:
            original = getattr(importlib.import_module(modules[0]), attr)
            wrapper = self.wrap_generator(original)
            for module_name in modules:
                self._patch(module_name, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op,
                    "counts": span.counts, "yields": span.yields}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    The tracer is single-threaded and stack-based, so the children of a
    span run one after another inside it and never overlap.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


# name, unit, better -- the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("exact_linalg.apply_lift.calls", "count", "lower"),
    ("exact_linalg.apply_lift.self_s", "s", "lower"),
    ("exact_linalg.apply_lift.mults", "count", "lower"),
    ("exact_linalg.apply_lift.in_bits_max", "bits", "lower"),
    ("recursion.derive_entry.calls", "count", "lower"),
    ("recursion.derive_entry.self_s", "s", "lower"),
    ("recursion.build_table.calls", "count", "lower"),
    ("recursion.build_table.total_s", "s", "lower"),
    ("recursion.build_table.self_s", "s", "lower"),
    ("recursion.build_table.entries", "count", "lower"),
    ("recursion.iter_table_levels.levels", "count", "lower"),
    ("recursion.entry_bits_max", "bits", "lower"),
    ("recursion.scan_violations.total_s", "s", "lower"),
    ("recursion.scan_violations.violations", "count", "lower"),
    ("recursion.cross_check.total_s", "s", "lower"),
    ("recursion.cross_check.self_s", "s", "lower"),
    ("screen.certify.total_s", "s", "lower"),
    ("screen.certify.self_s", "s", "lower"),
    ("screen.hunt_witness.calls", "count", "lower"),
    ("screen.hunt_witness.total_s", "s", "lower"),
    ("screen.hunt_witness.self_s", "s", "lower"),
    ("screen.hunt_witness.levels", "count", "lower"),
    ("screen.hunt_witness.plane_ratio", "ratio", "higher"),
    ("quotient.feasibility_conditions.calls", "count", "lower"),
    ("quotient.feasibility_conditions.total_s", "s", "lower"),
    ("quotient.feasibility_conditions.accept_ratio", "ratio", "higher"),
    ("quotient.validate_quotient.calls", "count", "lower"),
    ("quotient.validate_quotient.total_s", "s", "lower"),
    ("krawtchouk.poly_recursive.total_s", "s", "lower"),
    ("krawtchouk.poly_direct.total_s", "s", "lower"),
    ("krawtchouk.genfun_coeff.total_s", "s", "lower"),
    ("krawtchouk.eval_at_lifts.calls", "count", "lower"),
    ("krawtchouk.eval_at_lifts.total_s", "s", "lower"),
    ("krawtchouk.eval_at_lifts.self_s", "s", "lower"),
    ("krawtchouk.lift_image_is_zero.calls", "count", "lower"),
    ("krawtchouk.lift_image_is_zero.total_s", "s", "lower"),
    ("krawtchouk.lift_image_is_zero.self_s", "s", "lower"),
    ("krawtchouk.terms", "count", "lower"),
    ("oracle.brute_triangle.calls", "count", "lower"),
    ("oracle.brute_triangle.total_s", "s", "lower"),
    ("oracle.brute_triangle.triples", "count", "lower"),
    ("oracle.search_partitions.calls", "count", "lower"),
    ("oracle.search_partitions.total_s", "s", "lower"),
    ("oracle.verify_equitable.total_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(spans: list[Span]) -> dict:
    """Fold spans into the per-layer metrics (all but trace.overhead_frac).

    Keys named `*_max` are maxima over spans; every other count is a sum.
    Layers that did no work read zero.
    """
    selfs = self_times(spans)
    per: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        agg = per.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "yields": 0})
        agg["calls"] += 1
        agg["total_s"] += span.end - span.start
        agg["self_s"] += own
        agg["yields"] += span.yields
        for key, value in (span.counts or {}).items():
            if key.endswith("_max"):
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value

    def get(name: str, key: str):
        return per.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        out[metric] = get(layer, key)
    out["recursion.entry_bits_max"] = get("recursion.derive_entry",
                                          "entry_bits_max")
    out["recursion.iter_table_levels.levels"] = sum(
        span.yields for span in spans)
    # a hunt builds level 0 from its initial vector and every later entry
    # with one derive_entry call
    hunts = {i for i, span in enumerate(spans)
             if span.name == "screen.hunt_witness"}
    built = len(hunts) + sum(1 for span in spans
                             if span.name == "recursion.derive_entry"
                             and span.parent in hunts)
    out["screen.hunt_witness.levels"] = get("screen.hunt_witness", "yields")
    out["screen.hunt_witness.plane_ratio"] = (
        get("screen.hunt_witness", "needed") / built if hunts else 0.0)
    feas = per.get("quotient.feasibility_conditions", {})
    out["quotient.feasibility_conditions.accept_ratio"] = (
        feas.get("accepted", 0) / feas["calls"] if feas.get("calls") else 0.0)
    out["krawtchouk.terms"] = sum(
        get(f"krawtchouk.{route}", "terms")
        for route in ("poly_recursive", "poly_direct", "genfun_coeff"))
    del out["trace.overhead_frac"]
    return out
