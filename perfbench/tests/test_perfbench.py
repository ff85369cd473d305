"""Tests of the benchmark itself: workload checks, span arithmetic, cleanup."""

import json

import pytest

from perfbench import calibration, layers, run
from perfbench.environment import ROOT
from perfbench.spans import Recorder, Span, installed_wrappers, self_times
from perfbench.workloads import WORKLOADS


class FakeClock:
    """A clock that advances by one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed=3, small=True)
    iteration = workload.iterate(inputs, tmp_path)
    assert iteration.problems == []
    assert iteration.failed == 0
    assert iteration.attempted == 2 * inputs["units"]
    assert iteration.wall_s > 0
    assert iteration.calibrated.keys() == iteration.parts.keys()
    assert iteration.calibrated_s > 0


def test_calibration_scales_by_the_mean_kernel_time():
    reference = calibration.REFERENCE_S
    assert calibration.scale(2.0, reference, reference) == 2.0
    assert calibration.scale(2.0, reference, 3 * reference) \
        == pytest.approx(1.0)
    assert calibration.kernel_s(repeats=1) > 0


def test_same_seed_gives_same_inputs():
    first = WORKLOADS["mc-sweep"].prepare(seed=8, small=True)
    second = WORKLOADS["mc-sweep"].prepare(seed=8, small=True)
    assert first["axes"].gate_voltages == second["axes"].gate_voltages
    assert first["deleted"] == second["deleted"]
    assert WORKLOADS["paper-cold"].prepare(seed=8)["order"] \
        == WORKLOADS["paper-cold"].prepare(seed=8)["order"]


def test_self_times_subtract_direct_children_only():
    spans = [Span("root", 0.0, 10.0),
             Span("child", 1.0, 5.0, parent=0),
             Span("grandchild", 2.0, 3.0, parent=1),
             Span("child", 6.0, 9.0, parent=0)]
    assert self_times(spans) == [3.0, 3.0, 1.0, 3.0]


def test_recorder_nests_spans_and_folds_same_layer_delegation():
    recorder = Recorder(clock=FakeClock())

    def leaf():
        return "leaf"

    def inner():
        return recorder.call("b", leaf, (), {})

    def delegate():
        return recorder.call("a", inner, (), {})

    assert recorder.call("a", delegate, (), {}) == "leaf"
    spans = recorder.drain()
    # The delegated "a" opened no span: one "a" containing one "b".
    assert [(span.name, span.parent) for span in spans] \
        == [("a", None), ("b", 0)]
    assert [span.duration for span in spans] == [3.0, 1.0]
    assert self_times(spans) == [2.0, 1.0]
    assert recorder.spans == []


def test_recorder_closes_span_when_the_call_raises():
    recorder = Recorder(clock=FakeClock())

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.call("a", fail, (), {})
    (span,) = recorder.drain()
    assert span.duration == 1.0
    assert recorder.call("b", lambda: 1, (), {}) == 1
    assert recorder.drain()[0].parent is None


def test_traced_iteration_attributes_time_and_leaves_no_wrapper(tmp_path):
    from repro.scenarios.runner import ScenarioRunner

    original_run = ScenarioRunner.__dict__["run"]
    workload = WORKLOADS["design-grid"]
    inputs = workload.prepare(seed=5, small=True)
    recorder = Recorder()
    cache_bytes = layers.CacheBytes()
    with recorder.installed(lambda r: layers.install(r, cache_bytes)):
        assert installed_wrappers()
        iteration = workload.iterate(inputs, tmp_path)
    assert installed_wrappers() == []
    assert ScenarioRunner.__dict__["run"] is original_run

    totals = layers.LayerTotals()
    totals.add(recorder.drain())
    stats = {}
    for cache in cache_bytes.caches.values():
        for key, value in cache.stats().items():
            stats[key] = stats.get(key, 0) + value
    metrics = layers.layer_metrics(totals, 1, stats, {}, 0.0,
                                   iteration.wall_s)
    points, chunks = inputs["units"], inputs["chunks"]
    assert metrics["engines.bind.calls"] == points
    assert metrics["engines.solve.calls"] == 2 * points
    assert metrics["design.constraints.evaluate.calls"] == 3 * points
    assert metrics["design.chunks_computed"] == chunks
    assert metrics["design.chunks_resumed"] == chunks
    assert metrics["io.cache.store.calls"] == chunks
    assert metrics["io.cache.hits"] == chunks
    assert metrics["montecarlo.run.calls"] == 0
    assert 0.9 < metrics["trace.attributed_fraction"] <= 1.0


def test_wrappers_are_removed_when_the_traced_run_raises():
    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with recorder.installed(lambda r: layers.install(
                r, layers.CacheBytes())):
            raise RuntimeError("workload failed")
    assert installed_wrappers() == []


def test_benchmark_json_lists_the_metrics_the_run_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in config["per_layer"]] == layers.PER_LAYER
    assert [(m["name"], m["unit"], m["better"])
            for m in config["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in config["workloads"]) == sorted(WORKLOADS)
