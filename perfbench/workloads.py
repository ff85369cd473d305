"""The three benchmark workloads and the checks on their outputs.

Each workload isolates one part of the toolkit:

* ``paper-cold`` runs the twelve paper scenarios through
  :class:`~repro.scenarios.ScenarioRunner` into an empty cache (the user's
  ``python -m repro run --all``), then once more from that cache.
* ``design-grid`` runs an analytic-engine :class:`~repro.design.DeviceScan`
  into an empty checkpoint cache, then resumes it in full.
* ``mc-sweep`` runs a :class:`~repro.resilience.CheckpointedSweep` on the
  ``montecarlo`` engine, deletes some chunk files and resumes.

A workload is built once per run by :meth:`prepare` from the seed, then
executed any number of times by :meth:`iterate`, each time into a fresh
cache directory.  Only the passes themselves are timed; the output checks
run after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

from perfbench import calibration
from repro.design import DesignSpec, DeviceScan
from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine
from repro.io.results import ResultCache
from repro.resilience import CheckpointedSweep, FailurePolicy
from repro.scenarios import ScenarioRunner
from repro.scenarios.registry import get_scenario

#: The scenarios ``paper-cold`` runs, pinned so that a newly registered
#: scenario cannot silently change the workload.
PINNED_SCENARIOS = (
    "background_charge_logic",
    "coulomb_oscillations",
    "design_margin_map",
    "electrometer",
    "gain_vs_temperature",
    "power_dissipation",
    "room_temperature_set",
    "set_rng",
    "setmos_quantizer",
    "simulator_comparison",
    "speed_limits",
    "tolerance_yield",
)

#: The fast scenarios the tiny ``paper-cold`` of the tests runs.
SMALL_SCENARIOS = ("power_dissipation", "room_temperature_set", "set_rng",
                   "speed_limits")

#: Reference payload digests of the pinned scenarios, timing fields masked.
DIGESTS_PATH = Path(__file__).resolve().parent / "reference_digests.json"

#: Constraint set of the design grid (the one of ``bench_design_scan.py``);
#: ``on_off_ratio`` forces the two engine solves per point.
DESIGN_CONSTRAINTS = (
    {"type": "gain", "threshold": 1.0},
    {"type": "on_off_ratio", "threshold": 10.0},
    {"type": "max_temperature"},
)

#: The standard SET of the scenario library: 1 aF junctions, 2 aF gate.
STANDARD_SET = {"junction_capacitance": 1e-18, "gate_capacitance": 2e-18,
                "junction_resistance": 1e6}


@dataclass
class Iteration:
    """One execution of a workload: its timed parts and its checked outputs.

    ``parts`` maps each timed step (a pass, or one scenario of a pass) to
    its wall time in seconds, ``calibrated`` to the same time at the
    reference host speed (see :mod:`perfbench.calibration`).
    """

    parts: Dict[str, float]
    calibrated: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Wall time of the whole iteration, in seconds."""
        return sum(self.parts.values())

    @property
    def calibrated_s(self) -> float:
        """Time of the whole iteration at the reference host speed."""
        return sum(self.calibrated.values())


class _Stopwatch:
    """Times consecutive steps, measuring the host's speed between them."""

    def __init__(self) -> None:
        self.parts: Dict[str, float] = {}
        self.calibrated: Dict[str, float] = {}
        self._kernel_s = calibration.kernel_s()
        self._last = time.perf_counter()

    def lap(self, step: str) -> None:
        """Close ``step`` at the current time."""
        wall = time.perf_counter() - self._last
        kernel_s = calibration.kernel_s()
        self.parts[step] = wall
        self.calibrated[step] = calibration.scale(wall, self._kernel_s,
                                                  kernel_s)
        self._kernel_s = kernel_s
        self._last = time.perf_counter()

    def iteration(self, attempted: int, failed: int,
                  problems: List[str]) -> Iteration:
        """The finished iteration."""
        return Iteration(self.parts, self.calibrated, attempted, failed,
                         problems)


def scenario_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 of a scenario payload with its run-dependent timings masked.

    The ``runtime_s_*`` metrics and every table column whose header starts
    with ``runtime`` change from run to run; every other field repeats
    bit for bit.
    """
    masked = dict(payload)
    masked["metrics"] = {key: value
                         for key, value in payload["metrics"].items()
                         if not key.startswith("runtime_s_")}
    tables = []
    for table in payload["tables"]:
        timed = [position for position, header in enumerate(table["headers"])
                 if str(header).startswith("runtime")]
        rows = [[None if position in timed else cell
                 for position, cell in enumerate(row)]
                for row in table["rows"]]
        tables.append(dict(table, rows=rows))
    masked["tables"] = tables
    text = json.dumps(masked, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference_digests() -> Dict[str, str]:
    """The pinned digests, by scenario name."""
    return json.loads(DIGESTS_PATH.read_text())


class PaperCold:
    """The pinned scenarios, cold into an empty cache and warm from it."""

    name = "paper-cold"
    unit = "scenario"

    def prepare(self, seed: int, small: bool = False) -> Dict[str, Any]:
        """Resolve the pinned scenarios, in an order drawn from ``seed``."""
        names = list(SMALL_SCENARIOS if small else PINNED_SCENARIOS)
        for name in names:
            get_scenario(name)
        order = [names[i] for i in np.random.default_rng(seed).permutation(
            len(names))]
        return {"order": order, "digests": load_reference_digests(),
                "units": len(order)}

    def iterate(self, inputs: Dict[str, Any], cache_dir: Path) -> Iteration:
        """Run every scenario cold, then serve each from the cache."""
        order = inputs["order"]
        clock = _Stopwatch()
        runner = ScenarioRunner(cache_dir=cache_dir)
        passes = []
        for label in ("cold", "warm"):
            results = {}
            for name in order:
                try:
                    results[name] = runner.run(name)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    results[name] = error
                if label == "cold":
                    clock.lap(f"cold.{name}")
            passes.append(results)
        clock.lap("warm")

        problems: List[str] = []
        failed = 0
        cold, warm = passes
        for name in order:
            first, second = cold[name], warm[name]
            if isinstance(first, Exception) or isinstance(second, Exception):
                failed += 2
                problems.append(f"{name}: raised {first!r} / {second!r}")
                continue
            if first.meta.get("cache") != "miss":
                failed += 1
                problems.append(f"{name}: cold pass was not a cache miss")
            if second.meta.get("cache") != "hit":
                failed += 1
                problems.append(f"{name}: warm pass was not a cache hit")
            if scenario_digest(first.payload_dict()) \
                    != inputs["digests"].get(name):
                failed += 1
                problems.append(f"{name}: payload differs from its reference")
            if second.payload_json() != first.payload_json():
                failed += 1
                problems.append(f"{name}: warm payload differs from cold")
        return clock.iteration(2 * len(order), failed, problems)


class DesignGrid:
    """An analytic ``DeviceScan``, checkpointed cold and resumed in full."""

    name = "design-grid"
    unit = "grid point"

    def prepare(self, seed: int, small: bool = False) -> Dict[str, Any]:
        """The scan spec; ``seed`` shifts both capacitance ranges by <= 5%."""
        gate_scale, junction_scale = np.random.default_rng(seed).uniform(
            0.95, 1.05, size=2)
        shape = (4, 5, 2) if small else (40, 50, 6)
        spec = DesignSpec.from_dict({
            "name": "perfbench_grid",
            "engine": "analytic",
            "axes": [
                {"parameter": "gate_capacitance",
                 "start": 5e-19 * gate_scale, "stop": 8e-18 * gate_scale,
                 "points": shape[0], "spacing": "log"},
                {"parameter": "junction_capacitance",
                 "start": 2e-19 * junction_scale,
                 "stop": 4e-18 * junction_scale,
                 "points": shape[1], "spacing": "log"},
                {"parameter": "temperature",
                 "values": [float(t) for t in
                            np.linspace(0.5, 4.0, shape[2])]},
            ],
            "constraints": list(DESIGN_CONSTRAINTS),
            "chunk_size": 8 if small else 1000,
            "seed": seed,
        })
        get_engine(spec.engine)
        return {"spec": spec, "units": len(spec),
                "chunks": -(-len(spec) // spec.chunk_size)}

    def iterate(self, inputs: Dict[str, Any], cache_dir: Path) -> Iteration:
        """Scan into an empty checkpoint cache, then resume every chunk."""
        spec = inputs["spec"]
        clock = _Stopwatch()
        cache = ResultCache(cache_dir)
        cold_scan = DeviceScan(spec, cache=cache)
        cold = cold_scan.run()
        clock.lap("cold")
        resumed_scan = DeviceScan(spec, cache=cache)
        resumed = resumed_scan.run()
        clock.lap("resume")

        problems: List[str] = []
        chunks = inputs["chunks"]
        failed = sum(status != "ok" for feasibility in (cold, resumed)
                     for status in feasibility.statuses)
        if failed:
            problems.append(f"{failed} grid points not ok")
        if (cold_scan.chunks_computed, resumed_scan.chunks_resumed) \
                != (chunks, chunks):
            failed += 1
            problems.append(
                f"chunks computed/resumed {cold_scan.chunks_computed}/"
                f"{resumed_scan.chunks_resumed}, expected {chunks}/{chunks}")
        if _map_without_counters(cold) != _map_without_counters(resumed):
            failed += 1
            problems.append("resumed map differs from the cold map")
        return clock.iteration(2 * len(spec), failed, problems)


def _map_without_counters(feasibility) -> str:
    """A map's canonical JSON minus ``chunks_computed``/``chunks_resumed``."""
    payload = feasibility.to_payload()
    payload.pop("chunks_computed")
    payload.pop("chunks_resumed")
    return json.dumps(payload, sort_keys=True)


class MonteCarloSweep:
    """A policed ``CheckpointedSweep`` on ``montecarlo``, partly resumed."""

    name = "mc-sweep"
    unit = "gate point"

    #: Operating point of the sweep.  At 1 K every tunnel rate is positive,
    #: so each point runs its full event budget, in blockade too.
    temperature = 1.0
    drain_voltage = 5e-3

    def prepare(self, seed: int, small: bool = False) -> Dict[str, Any]:
        """Device, gate axis, policy and the chunks to delete, from ``seed``.

        The axis spans two gate periods.  The deleted chunks cover each
        phase of one period exactly once, each taken from the first or the
        second period at random, so the resumed work is the same for every
        seed.
        """
        rng = np.random.default_rng(seed)
        device = SETTransistor(**STANDARD_SET)
        period = device.gate_period
        points, chunk_size = (8, 2) if small else (128, 16)
        start = rng.uniform(0.0, 0.25) * period
        gates = np.linspace(start, start + 2.0 * period, points,
                            endpoint=False)
        chunks = points // chunk_size
        per_period = chunks // 2
        deleted = [phase + per_period * int(rng.integers(2))
                   for phase in range(per_period)]
        return {
            "engine": get_engine("montecarlo"),
            "device": device,
            "axes": SweepAxes(gates, self.drain_voltage),
            "policy": FailurePolicy(),
            "seed": seed,
            "chunk_size": chunk_size,
            "max_events": 200 if small else 2000,
            "warmup_events": 20 if small else 200,
            "deleted": deleted,
            "units": points,
            "chunks": chunks,
        }

    def _sweep(self, inputs: Dict[str, Any],
               cache: ResultCache) -> CheckpointedSweep:
        return CheckpointedSweep(
            inputs["engine"], inputs["device"], inputs["axes"], cache=cache,
            temperature=self.temperature, seed=inputs["seed"],
            chunk_size=inputs["chunk_size"], policy=inputs["policy"],
            max_events=inputs["max_events"],
            warmup_events=inputs["warmup_events"])

    def iterate(self, inputs: Dict[str, Any], cache_dir: Path) -> Iteration:
        """Sweep uninterrupted, delete some chunk files, resume the rest."""
        clock = _Stopwatch()
        cache = ResultCache(cache_dir)
        first = self._sweep(inputs, cache)
        uninterrupted = first.run()
        clock.lap("cold")
        plan = first.chunk_plan()
        for index in inputs["deleted"]:
            cache.path_for(plan[index].key).unlink()
        second = self._sweep(inputs, cache)
        resumed = second.run()
        clock.lap("resume")

        problems: List[str] = []
        failed = sum(record.status != "ok"
                     for result in (uninterrupted, resumed)
                     for record in (result.statuses or ()))
        if failed:
            problems.append(f"{failed} gate points not ok")
        deleted = len(inputs["deleted"])
        expected = (deleted, inputs["chunks"] - deleted)
        if (second.chunks_computed, second.chunks_resumed) != expected:
            failed += 1
            problems.append(
                f"resume computed/resumed {second.chunks_computed}/"
                f"{second.chunks_resumed}, expected {expected[0]}/"
                f"{expected[1]}")
        if not _same_bits(uninterrupted.currents, resumed.currents) \
                or not _same_bits(uninterrupted.stderrs, resumed.stderrs):
            failed += 1
            problems.append("resumed currents differ from the uninterrupted")
        if not np.all(np.isfinite(uninterrupted.currents)):
            failed += 1
            problems.append("non-finite current in the sweep")
        return clock.iteration(2 * len(inputs["axes"]), failed, problems)


def _same_bits(first: Sequence[float], second: Sequence[float]) -> bool:
    """Whether two float arrays (or two ``None``) are equal bit for bit."""
    if first is None or second is None:
        return first is second
    return np.asarray(first, float).tobytes() \
        == np.asarray(second, float).tobytes()


WORKLOADS = {workload.name: workload
             for workload in (PaperCold(), DesignGrid(), MonteCarloSweep())}
