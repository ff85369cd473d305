"""Compiled-kernel throughput — the native advance loop versus the interpreted.

Every single-trajectory Monte-Carlo run executes in the advance loop of
:mod:`repro.montecarlo.jit`.  This benchmark measures what compiling that
loop buys: the resolved native backend (numba where installed, a cached
C/ctypes build otherwise) against the same loop interpreted (the
``python`` backend, which installs without a compiler run, and which the
native loop replays bit for bit), plus the aggregate throughput of
sequential compiled replicas at R = 1 / 64 / 256 (near-linear scaling: the
per-event cost must not grow with the replica count).

The numbers, with the machine they were measured on, go to
``BENCH_jit.json`` in the repository root so the performance trajectory is
tracked across PRs (``benchmarks/run_all.py`` folds them into
``BENCH_trajectory.json``).  Run it either through pytest
(``pytest benchmarks/bench_jit_kernel.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_jit_kernel.py``).
"""

import json
import os
import time
from pathlib import Path

from repro.montecarlo import MonteCarloSimulator, jit_backend, jit_compiled
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
WARMUP_EVENTS = 1_000
# Event budgets; the CI smoke run shrinks them through the environment.
JIT_EVENTS = int(os.environ.get("REPRO_BENCH_JIT_EVENTS", "2000000"))
INTERPRETED_EVENTS = int(os.environ.get(
    "REPRO_BENCH_JIT_INTERPRETED_EVENTS", "200000"))
REPLICA_EVENTS = int(os.environ.get("REPRO_BENCH_JIT_REPLICA_EVENTS", "20000"))
REPLICA_COUNTS = (1, 64, 256)
REQUIRED_SPEEDUP = 10.0

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_jit.json"


def build_simulator() -> MonteCarloSimulator:
    circuit = standard_transistor().build_circuit(drain_voltage=DRAIN_VOLTAGE,
                                                  gate_voltage=GATE_VOLTAGE)
    return MonteCarloSimulator(circuit, temperature=TEMPERATURE, seed=3,
                               sequential_replicas=True)


def measure_single(simulator: MonteCarloSimulator, events: int) -> float:
    """Steady-state events/second of one trajectory on the reference SET."""
    state = simulator.new_state()
    simulator.run(max_events=WARMUP_EVENTS, state=state)
    start = time.perf_counter()
    result = simulator.run(max_events=events, state=state)
    elapsed = time.perf_counter() - start
    assert result.event_count == events
    return events / elapsed


def measure_replicas(replicas: int, events_per_replica: int) -> float:
    """Aggregate events/second of a sequential R-replica ensemble run."""
    simulator = build_simulator()
    ensemble = simulator.new_ensemble(replicas)
    simulator.run_ensemble(max_events=min(500, events_per_replica),
                           ensemble=ensemble)
    start = time.perf_counter()
    result = simulator.run_ensemble(max_events=events_per_replica,
                                    ensemble=ensemble)
    elapsed = time.perf_counter() - start
    assert result.total_events == replicas * events_per_replica
    return result.total_events / elapsed


def run_benchmark() -> dict:
    compiled = measure_single(build_simulator(), JIT_EVENTS)
    with advance_backend(BACKEND_PYTHON):
        interpreted_simulator = build_simulator()
    interpreted = measure_single(interpreted_simulator, INTERPRETED_EVENTS)
    scaling = {
        str(replicas): round(measure_replicas(replicas, REPLICA_EVENTS), 1)
        for replicas in REPLICA_COUNTS
    }
    payload = {
        "benchmark": "jit_kernel",
        "device": "reference SET (1 aF junctions, 2 aF gate, 1 Mohm)",
        "temperature_K": TEMPERATURE,
        "drain_voltage_V": DRAIN_VOLTAGE,
        "gate_voltage_V": GATE_VOLTAGE,
        "machine": machine(),
        "backend": jit_backend(),
        "compiled": jit_compiled(),
        "jit_events_per_second": round(compiled, 1),
        "interpreted_events_per_second": round(interpreted, 1),
        "speedup": round(compiled / interpreted, 2),
        "replica_scaling_events_per_second": scaling,
        "jit_event_budget": JIT_EVENTS,
        "interpreted_event_budget": INTERPRETED_EVENTS,
        "replica_event_budget": REPLICA_EVENTS,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_jit_kernel_throughput():
    print_experiment_header(
        "JIT", f"compiled advance loop >= {REQUIRED_SPEEDUP:.0f}x the "
        "interpreted loop on the SET")
    payload = run_benchmark()
    print(f"backend     : {payload['backend']}")
    print(f"compiled    : {payload['jit_events_per_second']:>12,.0f} events/s")
    print(f"interpreted : "
          f"{payload['interpreted_events_per_second']:>12,.0f} events/s")
    print(f"speedup     : {payload['speedup']:>12.2f}x")
    for replicas, rate in payload["replica_scaling_events_per_second"].items():
        print(f"R = {replicas:>4s}    : {rate:>12,.0f} events/s aggregate")
    print(f"written to  : {OUTPUT_PATH}")
    if not payload["compiled"]:
        import pytest

        pytest.skip("no native backend (interpreted fallback active); "
                    "throughput target not applicable")
    assert payload["speedup"] >= REQUIRED_SPEEDUP
    # Sequential replicas must scale near-linearly: aggregate throughput at
    # R = 256 stays within 2x of the single-replica rate (i.e. total wall
    # time grows ~linearly in R, with no super-linear degradation).
    single = payload["replica_scaling_events_per_second"]["1"]
    largest = payload["replica_scaling_events_per_second"]["256"]
    assert largest >= 0.5 * single


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
