"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

They run in about ten seconds and never start a timed run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

from checkout import ROOT, import_eqcube  # noqa: E402

import_eqcube()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from eqcube import exact_linalg, recursion  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def _inputs(workload, seed, golden, round_index=0):
    rnd = workloads.make_round(workload, seed, round_index, golden)
    return [(op.kind, op.key, op.anchor) for op in rnd.ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, golden):
    first = _inputs(workload, 7, golden)
    assert first == _inputs(workload, 7, golden)
    assert first != _inputs(workload, 8, golden)
    assert first != _inputs(workload, 7, golden, round_index=1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_anchors_are_pinned(seed, golden):
    screen3 = _inputs("screen3", seed, golden)
    assert screen3[0] == ("screen22", ("screen22",), True)
    sweep2 = _inputs("sweep2", seed, golden)
    assert [key for _, key, anchor in sweep2 if anchor] == [workloads.HUNT40]
    verify = _inputs("verify", seed, golden)
    assert any(kind == "routes" and sum(key) == 5
               for kind, key, _ in verify)
    anchors = [key for _, key, anchor in verify if anchor]
    assert len(anchors) == 1 and anchors[0][0] == "single3"
    assert golden.zero_operator[anchors[0]]


def test_screen3_sampler_screens_a_fixed_number_of_draws(golden):
    budget = sum(workloads.SCREEN3_DRAWS.values())
    for seed in (5, 6):
        rnd = workloads.make_round("screen3", seed, 0, golden)
        assert rnd.sampler["draws"] == budget
        assert rnd.sampler["accepted"] >= 2
        assert [op.key[0] for op in rnd.ops[1:]] == [12, 12, 15, 15]


def test_golden_covers_every_input():
    from eqcube import screen
    golden = workloads.load_golden()
    assert sorted(golden.witnesses) == screen.enumerate_ci_candidates(40)
    assert len(golden.zero_operator) == 40
    assert golden.screen22_exit == 2
    assert '"value": "-1957052416000"' in golden.screen22_stdout


def test_corrupted_outputs_count_as_failures():
    golden = workloads.load_golden()
    params = (5, 0, 5, 3, 2)
    (r2, r3), value = golden.witnesses[params]
    golden.witnesses[params] = ((r2, r3 + 1), value)
    vanish_key = ("single2", (1, 1, 1))
    golden.zero_operator[vanish_key] = not golden.zero_operator[vanish_key]
    ops = [workloads.hunt_op(params, golden),
           workloads.hunt_op((9, 0, 9, 7, 2), golden),
           workloads._vanish_op(*vanish_key, golden)]
    results = worker.run_ops(ops)
    assert "witness" in results[0]["error"]
    assert results[1]["error"] is None
    assert "lift_image_is_zero" in results[2]["error"]


def test_sampler_takes_its_own_time_off_and_averages_nearby_samples():
    sampler = worker.SpeedSampler()
    sampler.starts = [0.0, 0.05, 0.10, 0.15, 1.0]
    sampler.loops = [0.001, 0.002, 0.001, 0.002, 0.004]
    net, ref = sampler.measure(0.04, 0.12)
    assert net == pytest.approx(0.08 - 0.003)
    assert ref == pytest.approx(4 / (1000 + 500 + 1000 + 500))
    net, ref = sampler.measure(0.5, 0.6)   # nearest sample: 0.15
    assert (net, ref) == pytest.approx((0.1, 0.002))


def test_self_time_subtracts_child_spans():
    S = spans.Span
    tree = [S("root", 0.0, 10.0, None, 0),
            S("a", 1.0, 4.0, 0, 0),
            S("a1", 1.5, 2.0, 1, 0),
            S("a2", 2.5, 3.5, 1, 0),
            S("b", 5.0, 6.0, 0, 0),
            S("b1", 5.25, 5.75, 4, 0),
            S("c", 9.0, 9.0, 0, 0)]
    assert spans.self_times(tree) == pytest.approx([6.0, 1.5, 0.5, 1.0, 0.5,
                                                    0.5, 0.0])


def test_layer_metrics_fold_counts():
    S = spans.Span
    tree = [S("recursion.derive_entry", 0.0, 3.0, None, 0,
              {"entry_bits_max": 7}),
            S("exact_linalg.apply_lift", 0.5, 1.5, 0, 0,
              {"mults": 8, "in_bits_max": 5}),
            S("exact_linalg.apply_lift", 2.0, 2.5, 0, 0,
              {"mults": 8, "in_bits_max": 9})]
    tree[0].yields = 4
    got = spans.layer_metrics(tree)
    assert got["exact_linalg.apply_lift.calls"] == 2
    assert got["exact_linalg.apply_lift.mults"] == 16
    assert got["exact_linalg.apply_lift.in_bits_max"] == 9
    assert got["recursion.derive_entry.self_s"] == pytest.approx(1.5)
    assert got["recursion.entry_bits_max"] == 7
    assert got["recursion.iter_table_levels.levels"] == 4
    assert got["oracle.brute_triangle.calls"] == 0


def test_plane_ratio_counts_the_entries_a_hunt_derives():
    S = spans.Span

    def tree(derived):
        # a hunt that needs 3 entries and derives `derived` after level 0,
        # then a table build whose derive_entry is not the hunt's
        hunt = S("screen.hunt_witness", 0.0, 5.0, None, 0, {"needed": 3})
        hunt.yields = 2
        return ([hunt]
                + [S("recursion.derive_entry", 1.0, 1.5, 0, 0)] * derived
                + [S("recursion.build_table", 6.0, 8.0, None, 1),
                   S("recursion.derive_entry", 6.5, 7.0, derived + 1, 1)])

    got = spans.layer_metrics(tree(2))
    assert got["screen.hunt_witness.levels"] == 2
    assert got["screen.hunt_witness.plane_ratio"] == pytest.approx(3 / 3)
    got = spans.layer_metrics(tree(3))
    assert got["screen.hunt_witness.plane_ratio"] == pytest.approx(3 / 4)


def _traced_counts(golden):
    tracer = spans.Tracer()
    tracer.install()
    try:
        sweep = workloads.make_round("sweep2", 4, 0, golden).ops[1:3]
        verify = [op for op in workloads.make_round("verify", 4, 0, golden).ops
                  if op.kind == "oracle" and op.key[0] in ("pair3", "parity4")
                  or op.kind == "vanish" and op.key[0] == "pair3"]
        stats = {"draws": 0, "accepted": 0}
        Q = workloads.draw_candidate(workloads.round_rng("screen3", 4, 0), 10,
                                     1, stats)
        certify = workloads._candidate_ops(Q)[0]
        results = worker.run_ops(sweep + verify + [certify], tracer)
    finally:
        tracer.uninstall()
    assert [r["error"] for r in results] == [None] * len(results)
    layers = spans.layer_metrics(tracer.spans)
    return {name: value for name, value in layers.items()
            if not name.endswith("_s")}


def test_traced_counts_repeat_exactly_and_tracer_uninstalls(golden):
    first = _traced_counts(golden)
    assert first == _traced_counts(golden)
    assert first["exact_linalg.apply_lift.calls"] > 0
    assert first["oracle.brute_triangle.triples"] == 8 ** 3 + 8 ** 4
    assert recursion.apply_lift is exact_linalg.apply_lift
    assert not hasattr(recursion.build_table, "__wrapped__")


def test_hunts_leave_polynomial_and_oracle_layers_idle(golden):
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = workloads.make_round("sweep2", 1, 0, golden).ops[1:3]
        results = worker.run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    assert [r["error"] for r in results] == [None, None]
    layers = spans.layer_metrics(tracer.spans)
    assert layers["screen.hunt_witness.calls"] == 2
    top = [sum(golden.witnesses[op.key][0]) for op in ops]
    assert layers["screen.hunt_witness.levels"] == sum(t + 1 for t in top)
    needed = sum((t + 1) * (t + 2) // 2 for t in top)
    built = sum(math.comb(t + 3, 3) for t in top)
    assert layers["screen.hunt_witness.plane_ratio"] == pytest.approx(
        needed / built)
    assert all(value == 0 for name, value in layers.items()
               if name.startswith(("krawtchouk.", "oracle.")))


def test_benchmark_json_matches_what_the_runs_report():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(spans.PER_LAYER)
