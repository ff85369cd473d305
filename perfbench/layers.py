"""Which calls are traced, and the per-layer metrics built from their spans.

Each layer is named after the ``repro`` module whose public functions it
times.  The benchmark installs these wrappers only for a traced run
(``--trace 1``) and removes them afterwards; end-to-end metrics always come
from untraced runs.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.spans import Recorder, Span, self_times
from perfbench.workloads import PINNED_SCENARIOS

#: Per-point statuses of the failure policy (``repro.resilience.policy``).
STATUSES = ("ok", "retried", "degraded", "timeout", "failed", "skipped")

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
TIMED_LAYERS = (
    "design.constraints.evaluate",
    "design.tolerance.sample_device",
    "engines.bind",
    "engines.solve",
    "engines.sweep",
    "compact.drain_current",
    "master.solve",
    "montecarlo.run",
    "resilience.policy_sweep",
    "resilience.checkpointed_sweep",
    "io.cache.load",
    "io.cache.store",
    "io.content_hash",
)


def _per_layer_spec() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    spec = [("setup.import_s", "s", "lower"),
            ("setup.jit_resolve_s", "s", "lower"),
            ("setup.inputs_s", "s", "lower"),
            ("scenarios.run.self_s", "s", "lower")]
    spec += [(f"scenarios.{name}.wall_s", "s", "lower")
             for name in PINNED_SCENARIOS]
    spec += [("scenarios.cache_hits", "count", "higher"),
             ("scenarios.cache_misses", "count", "lower"),
             ("design.scan.self_s", "s", "lower"),
             ("design.chunks_computed", "count", "lower"),
             ("design.chunks_resumed", "count", "higher"),
             ("design.chunks_failed", "count", "lower")]
    for layer in TIMED_LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"),
                 (f"{layer}.self_s", "s", "lower")]
    spec += [("montecarlo.events_per_s", "1/s", "higher"),
             ("resilience.chunks_computed", "count", "lower"),
             ("resilience.chunks_resumed", "count", "higher")]
    spec += [(f"resilience.status.{status}", "count",
              "higher" if status == "ok" else "lower")
             for status in STATUSES]
    spec += [("io.cache.load.bytes", "bytes", "lower"),
             ("io.cache.store.bytes", "bytes", "lower"),
             ("io.cache.hits", "count", "higher"),
             ("io.cache.misses", "count", "lower"),
             ("io.cache.evictions", "count", "lower"),
             ("trace.overhead_fraction", "ratio", "lower"),
             ("trace.attributed_fraction", "ratio", "higher")]
    return spec


PER_LAYER = _per_layer_spec()


# ------------------------------------------------------------- annotations

def _scenario(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs = {"scenario": result.name, "cache": result.meta.get("cache")}


def _chunk_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    runner = args[0]
    span.attrs = {"computed": runner.chunks_computed,
                  "resumed": runner.chunks_resumed,
                  "failed": getattr(runner, "chunks_failed", 0)}


def _events(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    budget = kwargs.get("max_events", args[1] if len(args) > 1 else None)
    span.attrs = {"events": budget or 0}


def _statuses(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs = {"statuses": Counter(
        record.status for record in result.statuses or ())}


class CacheBytes:
    """Annotates cache loads/stores with file sizes; keeps the caches seen."""

    def __init__(self) -> None:
        self.caches: Dict[int, Any] = {}

    def load(self, span: Span, args: tuple, kwargs: dict,
             result: Any) -> None:
        cache, key = args[0], args[1]
        self.caches[id(cache)] = cache
        size = 0
        if result is not None:
            size = os.path.getsize(cache.path_for(key))
        span.attrs = {"bytes": size}

    def store(self, span: Span, args: tuple, kwargs: dict,
              result: Any) -> None:
        self.caches[id(args[0])] = args[0]
        span.attrs = {"bytes": 0 if result is None
                      else os.path.getsize(result)}


def _defining(module: Any, attribute: str) -> List[type]:
    """Classes of ``module`` that define ``attribute`` themselves."""
    return [value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and attribute in vars(value)]


def install(recorder: Recorder, cache_bytes: CacheBytes) -> None:
    """Wrap the public entry points of every layer."""
    from repro.compact import set_model
    from repro.design import constraints, scan, tolerance
    from repro.engines import adapters
    from repro.io import results
    from repro.master.steadystate import MasterEquationSolver
    from repro.montecarlo.simulator import MonteCarloSimulator
    from repro.resilience import checkpoint, execution
    from repro.scenarios.runner import ScenarioRunner

    recorder.wrap_method(ScenarioRunner, "run", "scenarios.run", _scenario)
    recorder.wrap_method(scan.DeviceScan, "run", "design.scan", _chunk_counts)
    for owner in _defining(constraints, "evaluate"):
        recorder.wrap_method(owner, "evaluate", "design.constraints.evaluate")
    recorder.wrap_method(tolerance.ToleranceModel, "sample_device",
                         "design.tolerance.sample_device")
    for attribute in ("bind", "solve", "sweep"):
        for owner in _defining(adapters, attribute):
            recorder.wrap_method(owner, attribute, f"engines.{attribute}")
    for attribute in ("drain_current", "drain_current_map"):
        for owner in _defining(set_model, attribute):
            recorder.wrap_method(owner, attribute, "compact.drain_current")
    for attribute in ("solve", "current", "sweep_source"):
        recorder.wrap_method(MasterEquationSolver, attribute, "master.solve")
    recorder.wrap_method(MonteCarloSimulator, "run", "montecarlo.run",
                         _events)
    recorder.wrap_function(execution, "run_policy_sweep",
                           "resilience.policy_sweep", _statuses)
    recorder.wrap_method(checkpoint.CheckpointedSweep, "run",
                         "resilience.checkpointed_sweep", _chunk_counts)
    recorder.wrap_method(results.ResultCache, "load", "io.cache.load",
                         cache_bytes.load)
    recorder.wrap_method(results.ResultCache, "store", "io.cache.store",
                         cache_bytes.store)
    recorder.wrap_function(results, "content_hash", "io.content_hash")


# ----------------------------------------------------------------- metrics

class LayerTotals:
    """Per-layer sums over the spans of any number of traced iterations."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.attrs: Counter = Counter()
        self.scenario_wall: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0

    def add(self, spans: Sequence[Span]) -> None:
        """Fold one iteration's spans into the totals."""
        for span, own in zip(spans, self_times(list(spans))):
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            if span.parent is None:
                self.root_s += span.duration
            attrs = span.attrs or {}
            if span.name == "scenarios.run":
                self.scenario_wall[attrs["scenario"]] += span.duration
                self.attrs[f"scenarios.cache_{attrs['cache']}"] += 1
            elif span.name in ("design.scan", "resilience.checkpointed_sweep"):
                layer = span.name.split(".")[0]
                for key in ("computed", "resumed", "failed"):
                    self.attrs[f"{layer}.chunks_{key}"] += attrs[key]
            elif span.name == "resilience.policy_sweep":
                for status, count in attrs["statuses"].items():
                    self.attrs[f"resilience.status.{status}"] += count
            elif "events" in attrs or "bytes" in attrs:
                for key, value in attrs.items():
                    self.attrs[f"{span.name}.{key}"] += value


def layer_metrics(totals: LayerTotals, iterations: int,
                  cache_stats: Dict[str, int], setup: Dict[str, float],
                  overhead_fraction: float,
                  traced_wall_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, per traced iteration.

    Parameters
    ----------
    totals:
        Span totals of all traced iterations.
    iterations:
        Number of traced iterations.
    cache_stats:
        Summed :meth:`ResultCache.stats` of every cache the spans touched.
    setup:
        Median ``import_s``/``jit_resolve_s``/``inputs_s`` of the set-up
        probes.
    overhead_fraction:
        Traced median wall over untraced median wall, minus one.
    traced_wall_s:
        Summed wall of the traced iterations.
    """
    per = 1.0 / iterations
    metrics: Dict[str, float] = {f"setup.{key}": value
                                 for key, value in setup.items()}
    metrics["scenarios.run.self_s"] = totals.self_s["scenarios.run"] * per
    for name in PINNED_SCENARIOS:
        metrics[f"scenarios.{name}.wall_s"] = totals.scenario_wall[name] * per
    metrics["scenarios.cache_hits"] = totals.attrs["scenarios.cache_hit"] * per
    metrics["scenarios.cache_misses"] = \
        totals.attrs["scenarios.cache_miss"] * per
    metrics["design.scan.self_s"] = totals.self_s["design.scan"] * per
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = totals.calls[layer] * per
        metrics[f"{layer}.self_s"] = totals.self_s[layer] * per
    run_s = totals.self_s["montecarlo.run"]
    metrics["montecarlo.events_per_s"] = \
        totals.attrs["montecarlo.run.events"] / run_s if run_s else 0.0
    for name in ("io.cache.load.bytes", "io.cache.store.bytes"):
        metrics[name] = totals.attrs[name] * per
    for key in ("hits", "misses", "evictions"):
        metrics[f"io.cache.{key}"] = cache_stats.get(key, 0) * per
    metrics["trace.overhead_fraction"] = overhead_fraction
    metrics["trace.attributed_fraction"] = totals.root_s / traced_wall_s
    for name, _, _ in PER_LAYER:
        metrics.setdefault(name, totals.attrs[name] * per)
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}
