"""Tests of the benchmark itself: tiny runs, failure counting and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Span, Tracer, layer_self_seconds, self_times  # noqa: E402

from specseq import ScoreKind  # noqa: E402

#: one tiny item of every kind, covering every layer the benchmark calls
TINY = [
    workloads.Item("tiny-design", "design", 16, (1, 2), (5, 6), 4.0, 512,
                   ScoreKind.REJECTION_RATIO, True),
    workloads.Item("tiny-baseline", "baseline", 16, (1, 2), (5, 6), 4.0, 512,
                   ScoreKind.REJECTION_RATIO, baseline_iters=30),
    workloads.Item("tiny-oracle", "oracle", 10, (1, 2), (3, 4), 3.0, 256),
]


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def failures(passes):
    return [r for r in run.records_of(passes) if r["errors"]]


def test_tiny_run_prints_every_metric_with_its_unit():
    spec = benchmark_json()
    untraced = run.run_passes(TINY, 7, 0.0, NullTracer(), None, None)
    tracer = Tracer()
    traced = run.run_passes(TINY, 7, 0.0, tracer, None, None)
    assert not failures(untraced + traced)

    for metrics, units, listed in (
        (run.end_to_end(untraced, [0.5, 0.4, 0.6]), run.END_TO_END, spec["end_to_end"]),
        (run.per_layer(traced, untraced, tracer.spans, 1.0), run.PER_LAYER, spec["per_layer"]),
    ):
        assert {m["name"]: m["unit"] for m in listed} == units
        line = json.loads(run.report_line(metrics, units, 3, 0))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        for name, unit in units.items():
            entry = line["metrics"][name]
            assert entry["unit"] == unit
            assert np.isfinite(entry["value"]), name


def test_catalogue_matches_reference():
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    keys = [item.key for name in workloads.WORKLOADS for item in workloads.catalogue(name)]
    assert sorted(keys) == sorted(reference["objective"])
    oracles = [item.key for name in workloads.WORKLOADS for item in workloads.catalogue(name)
               if item.kind == "oracle"]
    assert sorted(oracles) == sorted(reference["oracle_power"])


def test_item_seeds_are_64_bit_and_distinct():
    seeds = {workloads.item_seed(3, r, i) for r in range(4) for i in range(6)}
    assert len(seeds) == 24
    assert max(seeds) >= 2**32
    assert workloads.item_seed(3, 1, 2) == workloads.item_seed(3, 1, 2)


def test_infeasible_winner_counts_as_failure(monkeypatch):
    real = workloads.run_design

    def infeasible_winner(p, sol, **kwargs):
        res = real(p, sol, **kwargs)
        # a square wave at interferer bin 5: interferer power 6.6 > alpha = 4
        i = np.arange(p.n)
        wave = np.where(np.cos(2 * np.pi * 5 * i / p.n) >= 0, 1, -1).astype(np.int8)
        return replace(res, best=replace(res.best, sequence=wave))

    monkeypatch.setattr(workloads, "run_design", infeasible_winner)
    passes = run.run_passes(TINY[:1], 7, 0.0, NullTracer(), None, None)
    failed = failures(passes)
    assert len(failed) == 1
    assert any("interferer power" in e and "above" in e for e in failed[0]["errors"])
    # the failed item still counts as attempted and in the timing
    assert len(run.records_of(passes)) == 1
    assert run.end_to_end(passes, [1.0])["items_per_s"] > 0


class ScriptedProbe(speed.SpeedProbe):
    """A probe whose samples take scripted times instead of timing the kernel."""

    def __init__(self, times):
        self.samples = []
        self._times = iter(times)

    def sample(self):
        self.samples.append(next(self._times))
        return self.samples[-1]


@pytest.mark.parametrize("before, after, slowness", [(2.0, 1.0, 1.0), (3.0, 2.0, 2.0),
                                                     (1.5, 4.0, 1.5)])
def test_item_time_is_divided_by_the_faster_probe_sample_around_it(before, after, slowness):
    ref = speed.REFERENCE_SAMPLE_S
    probe = ScriptedProbe([before * ref, after * ref])
    (only,) = run.run_passes(TINY[:1], 7, 0.0, NullTracer(), None, probe)
    rec = only["records"][0]
    assert rec["slowness"] == pytest.approx(slowness)
    assert only["ref_seconds"] == pytest.approx(rec["seconds"] / slowness)
    assert run.end_to_end([only], [1.0])["wall_s"] == pytest.approx(rec["seconds"] / slowness)


def test_exception_and_wrong_objective_count_as_failures(monkeypatch):
    reference = {"objective": {"tiny-design": 1.0}, "oracle_power": {}}
    rec = workloads.run_item(TINY[0], 5, NullTracer(), reference)
    assert any("objective" in e for e in rec["errors"])

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads, "run_shape", broken)
    rec = workloads.run_item(TINY[1], 5, NullTracer(), None)
    assert rec["errors"] == ["FloatingPointError: injected"]


def test_rising_shape_trace_is_a_failure():
    item = TINY[1]
    p = item.problem(1)
    result = workloads.run_shape(p, "binary", max_iters=5)
    errors = []
    workloads.check_shape(p, replace(result, trace=np.array([3.0, 2.0, 2.5])), "binary", errors)
    assert errors and "rises" in errors[0]


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span(0, "bench.pass", 0.0, 10.0, None, None),
        Span(1, "bench.item", 0.0, 6.0, 0, 0),
        Span(2, "sdp.solve_relaxation", 1.0, 4.0, 1, 0),
        Span(3, "rounding.run_design", 4.0, 5.5, 1, 0),
        Span(4, "bench.item", 6.0, 10.0, 0, 1),
        Span(5, "oracle.exhaustive_search", 6.5, 9.5, 4, 1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 0.0, 1: 1.5, 2: 3.0, 3: 1.5, 4: 1.0, 5: 3.0})
    layers = layer_self_seconds(spans)
    assert layers == pytest.approx({"bench": 2.5, "sdp": 3.0, "rounding": 1.5, "oracle": 3.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_tracer_links_parents_and_items():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("bench.pass"):
        with tracer.span("bench.item", item=4):
            tracer.call("sdp.solve_relaxation", lambda: None)
    names = [(s.name, s.parent, s.item) for s in tracer.spans]
    assert names == [("bench.pass", None, None), ("bench.item", 0, 4),
                     ("sdp.solve_relaxation", 1, 4)]
    assert [s.seconds for s in tracer.spans] == [5.0, 3.0, 1.0]


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "reference.json").write_bytes((HERE / "reference.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
