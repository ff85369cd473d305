"""Kernel throughput — the advance loop's backends versus the reference path.

The ROADMAP's north star asks the detailed Monte-Carlo engine to run "as fast
as the hardware allows".  This benchmark measures raw kinetic Monte-Carlo
throughput (executed events per second of one trajectory) on the reference
SET transistor for

* the **native** advance loop (:mod:`repro.montecarlo.jit` on the resolved
  numba or C backend; skipped when neither loads),
* the **interpreted** advance loop (the same loop on the ``python``
  backend, what an install without a compiler runs), and
* the **reference** path: the original per-candidate scalar implementation
  (``fast_path=False``), kept as the correctness baseline,

and writes the numbers, with the machine they were measured on, to
``BENCH_kernel.json`` in the repository root so the performance trajectory
is tracked across PRs.  Run it either through pytest
(``pytest benchmarks/bench_kernel_throughput.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_kernel_throughput.py``).
"""

import json
import os
import time
from pathlib import Path

from repro.montecarlo import MonteCarloSimulator, jit_compiled
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
NATIVE_EVENTS = int(os.environ.get("REPRO_BENCH_NATIVE_EVENTS", "2000000"))
INTERPRETED_EVENTS = int(os.environ.get("REPRO_BENCH_INTERPRETED_EVENTS",
                                        "200000"))
REFERENCE_EVENTS = int(os.environ.get("REPRO_BENCH_REFERENCE_EVENTS", "20000"))
#: The interpreted loop must beat the reference by this factor (it is the
#: floor every install gets).
REQUIRED_SPEEDUP = 5.0

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def build_simulator(fast_path: bool = True) -> MonteCarloSimulator:
    circuit = standard_transistor().build_circuit(drain_voltage=DRAIN_VOLTAGE,
                                                  gate_voltage=GATE_VOLTAGE)
    return MonteCarloSimulator(circuit, temperature=TEMPERATURE, seed=3,
                               fast_path=fast_path)


def measure_events_per_second(simulator: MonteCarloSimulator,
                              events: int) -> float:
    """Steady-state events/second of one simulator on the reference SET."""
    state = simulator.new_state()
    simulator.run(max_events=WARMUP_EVENTS, state=state)
    start = time.perf_counter()
    result = simulator.run(max_events=events, state=state)
    elapsed = time.perf_counter() - start
    assert result.event_count == events
    return events / elapsed


def run_benchmark() -> dict:
    native = None
    if jit_compiled():
        native = measure_events_per_second(build_simulator(), NATIVE_EVENTS)
    with advance_backend(BACKEND_PYTHON):
        interpreted_simulator = build_simulator()
    interpreted = measure_events_per_second(interpreted_simulator,
                                            INTERPRETED_EVENTS)
    reference = measure_events_per_second(build_simulator(fast_path=False),
                                          REFERENCE_EVENTS)
    payload = {
        "benchmark": "kernel_throughput",
        "device": "reference SET (1 aF junctions, 2 aF gate, 1 Mohm)",
        "temperature_K": TEMPERATURE,
        "drain_voltage_V": DRAIN_VOLTAGE,
        "gate_voltage_V": GATE_VOLTAGE,
        "machine": machine(),
        "native_events_per_second": (None if native is None
                                     else round(native, 1)),
        "interpreted_events_per_second": round(interpreted, 1),
        "reference_events_per_second": round(reference, 1),
        "native_speedup": (None if native is None
                           else round(native / reference, 2)),
        "interpreted_speedup": round(interpreted / reference, 2),
        "native_event_budget": NATIVE_EVENTS,
        "interpreted_event_budget": INTERPRETED_EVENTS,
        "reference_event_budget": REFERENCE_EVENTS,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_kernel_throughput():
    print_experiment_header(
        "KERNEL", "interpreted advance loop >= 5x scalar reference on the SET")
    payload = run_benchmark()
    native = payload["native_events_per_second"]
    if native is not None:
        print(f"native loop    : {native:>12,.0f} events/s "
              f"({payload['machine']['jit_backend']})")
    print(f"interpreted    : "
          f"{payload['interpreted_events_per_second']:>12,.0f} events/s")
    print(f"reference path : "
          f"{payload['reference_events_per_second']:>12,.0f} events/s")
    print(f"speedup        : {payload['interpreted_speedup']:>12.2f}x "
          "(interpreted / reference)")
    print(f"written to     : {OUTPUT_PATH}")
    assert payload["interpreted_speedup"] >= REQUIRED_SPEEDUP


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
