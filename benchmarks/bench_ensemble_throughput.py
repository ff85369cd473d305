"""Ensemble throughput — batched replicas versus sequential interpreted runs.

This benchmark measures what replica batching buys *across* trajectories
where no compiler is available: a 64-replica ensemble advanced in lockstep
through :meth:`MonteCarloKernel.step_ensemble` (one macro-step advances every
replica by one event with batched NumPy operations, replicas in the same
charge configuration sharing one memoised rate table) against the same total
event budget executed as 64 sequential runs of the interpreted advance loop
(the ``python`` backend).  With a native backend, sequential runs of the
compiled loop are faster than either (see ``BENCH_jit.json``).

The numbers go to ``BENCH_ensemble.json`` in the repository root so the
performance trajectory is tracked across PRs.  Run it either through pytest
(``pytest benchmarks/bench_ensemble_throughput.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_ensemble_throughput.py``).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo.jit import BACKEND_PYTHON

try:
    from .conftest import (advance_backend, machine, print_experiment_header,
                           standard_transistor)
except ImportError:  # executed directly
    from conftest import (advance_backend, machine, print_experiment_header,
                          standard_transistor)

TEMPERATURE = 1.0
DRAIN_VOLTAGE = 0.05
GATE_VOLTAGE = 0.04
WARMUP_EVENTS = 500
# Replica count / per-replica event budget; CI shrinks them via environment.
REPLICAS = int(os.environ.get("REPRO_BENCH_ENSEMBLE_REPLICAS", "64"))
EVENTS_PER_REPLICA = int(os.environ.get("REPRO_BENCH_ENSEMBLE_EVENTS", "3000"))
REQUIRED_SPEEDUP = 5.0

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_ensemble.json"


def build_simulator() -> MonteCarloSimulator:
    circuit = standard_transistor().build_circuit(drain_voltage=DRAIN_VOLTAGE,
                                                  gate_voltage=GATE_VOLTAGE)
    return MonteCarloSimulator(circuit, temperature=TEMPERATURE, seed=3)


def measure_ensemble() -> float:
    """Aggregate events/second of one batched R-replica ensemble run."""
    simulator = build_simulator()
    ensemble = simulator.new_ensemble(REPLICAS)
    simulator.run_ensemble(max_events=WARMUP_EVENTS, ensemble=ensemble)
    start = time.perf_counter()
    result = simulator.run_ensemble(max_events=EVENTS_PER_REPLICA,
                                    ensemble=ensemble)
    elapsed = time.perf_counter() - start
    assert result.total_events == REPLICAS * EVENTS_PER_REPLICA
    return result.total_events / elapsed


def measure_sequential() -> float:
    """Aggregate events/second of R sequential interpreted-loop runs.

    The simulator (and its warm kernel caches) is reused across the runs so
    the comparison isolates the per-event loop overhead, not construction
    costs.
    """
    with advance_backend(BACKEND_PYTHON):
        simulator = build_simulator()
    state = simulator.new_state()
    simulator.run(max_events=WARMUP_EVENTS, state=state)
    total = 0
    start = time.perf_counter()
    for _ in range(REPLICAS):
        fresh = simulator.new_state()
        result = simulator.run(max_events=EVENTS_PER_REPLICA, state=fresh)
        total += result.event_count
    elapsed = time.perf_counter() - start
    assert total == REPLICAS * EVENTS_PER_REPLICA
    return total / elapsed


def run_benchmark() -> dict:
    ensemble = measure_ensemble()
    sequential = measure_sequential()
    payload = {
        "benchmark": "ensemble_throughput",
        "device": "reference SET (1 aF junctions, 2 aF gate, 1 Mohm)",
        "temperature_K": TEMPERATURE,
        "drain_voltage_V": DRAIN_VOLTAGE,
        "gate_voltage_V": GATE_VOLTAGE,
        "machine": machine(),
        "sequential_backend": BACKEND_PYTHON,
        "replicas": REPLICAS,
        "events_per_replica": EVENTS_PER_REPLICA,
        "ensemble_events_per_second": round(ensemble, 1),
        "sequential_events_per_second": round(sequential, 1),
        "speedup": round(ensemble / sequential, 2),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_ensemble_throughput():
    print_experiment_header(
        "ENSEMBLE",
        f"{REPLICAS}-replica batched stepping >= {REQUIRED_SPEEDUP:.0f}x "
        f"{REPLICAS} sequential interpreted runs")
    payload = run_benchmark()
    print(f"ensemble   : {payload['ensemble_events_per_second']:>12,.0f} events/s")
    print(f"sequential : {payload['sequential_events_per_second']:>12,.0f} events/s")
    print(f"speedup    : {payload['speedup']:>12.2f}x")
    print(f"written to : {OUTPUT_PATH}")
    assert payload["speedup"] >= REQUIRED_SPEEDUP


def test_single_replica_matches_scalar_trajectory():
    """R = 1 lockstep ensemble replays kernel.step() event for event."""
    scalar = build_simulator()
    batched = build_simulator()
    state = scalar.new_state()
    ensemble = batched.new_ensemble(1)
    for _ in range(2_000):
        step = scalar.kernel.step(state)
        ensemble_step = batched.kernel.step_ensemble(ensemble)
        assert step is not None and ensemble_step.advanced == 1
        assert step.waiting_time == ensemble_step.waiting_times[0]
        assert np.array_equal(state.electrons, ensemble.electrons[0])
    assert state.time == ensemble.times[0]


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
