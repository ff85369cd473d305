"""Device scans: checkpointed feasibility classification over design grids.

A :class:`DeviceScan` executes one :class:`~repro.design.spec.DesignSpec`:
it walks the Cartesian device/environment grid in row-major order, builds
the concrete device at every point, runs the on/off operating points
through the bound :class:`~repro.engines.base.Session` of any registered
engine, classifies the point against the spec's constraint set, and (when
the spec declares component tolerances) estimates the per-point
Monte-Carlo yield.  The result is a
:class:`~repro.design.feasibility.FeasibilityMap`.

Execution runs on the resilience layer's chunked executor
(:class:`~repro.resilience.chunked.ChunkedRun`):

* the grid is sharded into fixed-size **chunks**, each persisted through a
  :class:`~repro.io.results.ResultCache` under a content hash of
  everything that determines its numbers — a killed scan resumes
  bit-identically, and identical chunks across scans dedup;
* per-point failures **degrade** under an optional
  :class:`~repro.resilience.policy.FailurePolicy` through the same
  per-point loop as policy sweeps (retries with backoff, per-point
  timeouts, ``max_failures`` give-up; unknown verdict and NaN margins at
  abandoned points) instead of aborting the scan; a chunk-level crash
  under policy yields a *partial* map whose missing chunk stays uncached,
  so a re-run recomputes exactly that chunk;
* stochastic engines get SHA-256-derived per-point seeds
  (``derive_seed(root_seed, "design-point", flat_index)``) and the
  tolerance model draws from per-element seed streams — both independent
  of iteration order and worker count, so any execution schedule produces
  the same map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..constants import E_CHARGE
from ..devices.set_transistor import SETTransistor
from ..engines.base import BiasPoint, Engine
from ..errors import ValidationError
from ..io.results import ResultCache
from ..resilience.chunked import Chunk, ChunkedRun, Payload, derive_seed
from ..resilience.execution import run_points_with_policy
from ..resilience.faults import inject
from ..resilience.policy import STATUS_OK, FailurePolicy
from .constraints import Constraint, DesignPoint, build_constraints
from .feasibility import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    FeasibilityMap,
    merge_chunk_payloads,
)
from .spec import DEVICE_PARAMETERS, DesignSpec
from .tolerance import ToleranceModel

def resolve_engine(name: str) -> Engine:
    """Resolve a spec's engine name to an engine instance.

    Parameters
    ----------
    name:
        A registered engine name, or ``"auto"`` to pick by capability
        introspection: the cheapest *available* engine, deterministic
        engines first (device grids want closed-form throughput, not
        per-point statistics).

    Returns
    -------
    Engine
        The resolved engine.
    """
    from ..engines import get_engine, list_engines

    if name != "auto":
        return get_engine(name)
    candidates = [engine for engine in list_engines()
                  if engine.capabilities().available]
    if not candidates:
        raise ValidationError("no available engine to auto-select")
    candidates.sort(key=lambda engine: (
        engine.capabilities().stochastic,
        engine.capabilities().cost.per_point_s,
        engine.name))
    return candidates[0]


class _PointEvaluator:
    """Evaluates single grid points of one spec against one engine.

    Precomputes everything loop-invariant — axis grids, the constraint
    set, the tolerance model, capability flags — so the per-point work is
    just device construction, the engine solves, and the verdicts.
    """

    def __init__(self, spec: DesignSpec, engine: Engine) -> None:
        self.spec = spec
        self.engine = engine
        self.constraints: Tuple[Constraint, ...] = \
            build_constraints(spec.constraints)
        self.hard = tuple(c for c in self.constraints if c.kind == "hard")
        self.needs_currents = any(c.requires_currents
                                  for c in self.constraints)
        self.yield_needs_currents = any(c.requires_currents
                                        for c in self.hard)
        capabilities = engine.capabilities()
        self.stochastic = capabilities.stochastic
        self.tolerance = ToleranceModel.from_dict(spec.tolerances)
        self.base = spec.base_device()
        self.grids = [axis.grid() for axis in spec.axes]
        self.parameters = [axis.parameter for axis in spec.axes]
        # Row-major strides: first axis varies slowest.
        self.strides: List[int] = []
        stride = 1
        for grid in reversed(self.grids):
            self.strides.insert(0, stride)
            stride *= len(grid)

    # ------------------------------------------------------------- geometry

    def point_overrides(self, flat_index: int) -> Dict[str, float]:
        """Swept parameter values at one flat index (row-major)."""
        overrides = {}
        remainder = flat_index
        for parameter, grid, stride in zip(self.parameters, self.grids,
                                           self.strides):
            position, remainder = divmod(remainder, stride)
            overrides[parameter] = float(grid[position])
        return overrides

    def point_inputs(self, flat_index: int
                     ) -> Tuple[SETTransistor, float, float,
                                Optional[float]]:
        """``(device, temperature, drain_voltage, background_charge)``."""
        overrides = self.point_overrides(flat_index)
        temperature = overrides.pop("temperature", self.spec.temperature)
        drain_voltage = overrides.pop("drain_voltage",
                                      self.spec.drain_voltage)
        charge_e = overrides.pop("background_charge_e", None)
        background = None if charge_e is None else charge_e * E_CHARGE
        device = replace(self.base, **overrides) if overrides else self.base
        return device, float(temperature), float(drain_voltage), background

    # ------------------------------------------------------------ evaluation

    def solve_currents(self, device: SETTransistor, temperature: float,
                       drain_voltage: float,
                       background_charge: Optional[float],
                       seed: Optional[int]) -> Tuple[float, float]:
        """On/off drain currents of one concrete device."""
        budget = self.spec.budget
        session = self.engine.bind(device, temperature=temperature,
                                   seed=seed,
                                   background_charge=background_charge,
                                   max_events=budget.max_events,
                                   warmup_events=budget.warmup_events,
                                   replicas=budget.replicas)
        period = device.gate_period
        on = session.solve(BiasPoint(self.spec.on_gate_fraction * period,
                                     drain_voltage)).current
        off = session.solve(BiasPoint(self.spec.off_gate_fraction * period,
                                      drain_voltage)).current
        return float(on), float(off)

    def classify(self, device: SETTransistor, temperature: float,
                 drain_voltage: float, on: float,
                 off: float) -> Dict[str, Any]:
        """Run the constraint set over one evaluated device."""
        point = DesignPoint(device=device, temperature=temperature,
                            drain_voltage=drain_voltage, on_current=on,
                            off_current=off)
        verdicts = [constraint.evaluate(point)
                    for constraint in self.constraints]
        hard = [v for v, c in zip(verdicts, self.constraints)
                if c.kind == "hard"]
        if any(not v.satisfied and math.isfinite(v.margin) for v in hard):
            code = INFEASIBLE
        elif any(not math.isfinite(v.margin) for v in hard):
            code = UNKNOWN
        else:
            code = FEASIBLE
        finite = [v.margin for v in hard if math.isfinite(v.margin)]
        robustness = min(finite) if finite and code != UNKNOWN else math.nan
        return {"verdict": code, "robustness": robustness,
                "margins": [v.margin for v in verdicts],
                "verdicts": verdicts}

    def is_feasible(self, device: SETTransistor, temperature: float,
                    drain_voltage: float,
                    background_charge: Optional[float],
                    seed: Optional[int]) -> bool:
        """Whether one concrete device satisfies every hard constraint."""
        on = off = math.nan
        if self.yield_needs_currents:
            on, off = self.solve_currents(device, temperature,
                                          drain_voltage, background_charge,
                                          seed)
        point = DesignPoint(device=device, temperature=temperature,
                            drain_voltage=drain_voltage, on_current=on,
                            off_current=off)
        return all(constraint.evaluate(point).satisfied
                   for constraint in self.hard)

    def point_seed(self, flat_index: int) -> Optional[int]:
        """One point's engine seed (``None`` for deterministic engines)."""
        if not self.stochastic:
            return None
        return derive_seed(self.spec.seed, "design-point", flat_index)

    def feasible_samples(self, flat_index: int) -> int:
        """How many tolerance-MC samples of one point stay feasible.

        Each sample deviates the point's device through the spec's
        tolerance model (per-element SHA-256 seed streams — the draws are
        common random numbers across grid points, so neighbouring points
        see the same component lot) and re-checks the hard constraints.
        """
        device, temperature, drain_voltage, background = \
            self.point_inputs(flat_index)
        seed = self.point_seed(flat_index)
        feasible = 0
        for sample in range(self.spec.tolerance_samples):
            try:
                deviated = self.tolerance.sample_device(
                    device, self.spec.seed, sample)
                if self.is_feasible(deviated, temperature, drain_voltage,
                                    background, seed):
                    feasible += 1
            except Exception:  # noqa: BLE001 - an unbuildable deviated
                # device (e.g. a tolerance band crossing zero capacitance)
                # is an infeasible sample, not a scan abort.
                continue
        return feasible

    def evaluate(self, flat_index: int) -> Dict[str, Any]:
        """Fully evaluate one grid point (constraints + optional yield)."""
        inject("design.point")
        device, temperature, drain_voltage, background = \
            self.point_inputs(flat_index)
        on = off = math.nan
        if self.needs_currents:
            on, off = self.solve_currents(device, temperature,
                                          drain_voltage, background,
                                          self.point_seed(flat_index))
        outcome = self.classify(device, temperature, drain_voltage, on, off)
        outcome["on_current"] = on
        outcome["off_current"] = off
        if self.tolerance:
            outcome["yield"] = self.feasible_samples(flat_index) \
                / self.spec.tolerance_samples
        return outcome


def _unknown_point(n_constraints: int, with_yield: bool) -> Dict[str, Any]:
    """The payload slot of a failed/skipped point."""
    outcome: Dict[str, Any] = {
        "verdict": UNKNOWN, "robustness": math.nan,
        "margins": [math.nan] * n_constraints,
        "on_current": math.nan, "off_current": math.nan}
    if with_yield:
        outcome["yield"] = math.nan
    return outcome


class DeviceScan(ChunkedRun):
    """A checkpointed, policy-aware feasibility scan of one design spec.

    Parameters
    ----------
    spec:
        The design spec to execute.
    cache:
        Optional :class:`~repro.io.results.ResultCache` for chunk
        checkpoints; ``None`` disables persistence (no resume, no dedup).
    policy:
        Optional :class:`~repro.resilience.policy.FailurePolicy`.  With a
        policy, each point runs through the resilience layer's per-point
        loop: failures retry up to ``max_retries`` times (with
        ``backoff_s``), an attempt over ``point_timeout_s`` is abandoned as
        ``timeout``, and an abandoned point degrades to an ``unknown``
        verdict; at most ``max_failures`` abandoned points are tolerated
        per chunk before the chunk's remaining points are marked
        ``skipped``; a chunk-level crash marks the whole chunk ``skipped``
        (and uncached) instead of aborting.  Without a policy, the first
        failure propagates — but completed chunks stay persisted, so a
        re-run resumes.
    """

    def __init__(self, spec: DesignSpec, *,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[FailurePolicy] = None) -> None:
        super().__init__(resolve_engine(spec.engine), cache=cache,
                         total=len(spec), chunk_size=spec.chunk_size,
                         policy=policy)
        self.spec = spec
        self._evaluator = _PointEvaluator(spec, self.engine)

    # ------------------------------------------------------------- identity

    def _chunk_context(self, start: int, count: int) -> Dict[str, Any]:
        """Everything that determines one chunk's numbers, JSON-able."""
        return {
            "kind": "design-chunk",
            "spec": self.spec.to_dict(),
            "engine": self.engine.name,
            "start": start,
            "count": count,
            "policy": None if self.policy is None
            else self.policy.as_dict(),
        }

    def _point_fields(self) -> Dict[str, Tuple[int, ...]]:
        """Per-point payload fields; ``margins`` has one row per constraint."""
        fields: Dict[str, Tuple[int, ...]] = {
            "verdicts": (), "robustness": (), "on_currents": (),
            "off_currents": (), "statuses": (),
            "margins": (len(self._evaluator.constraints),)}
        if self._evaluator.tolerance:
            fields["yields"] = ()
        return fields

    # ------------------------------------------------------------ execution

    def _compute_chunk(self, chunk: Chunk) -> Payload:
        """Evaluate one chunk's points and assemble its payload."""
        inject("design.chunk")
        evaluator = self._evaluator
        n_constraints = len(evaluator.constraints)
        with_yield = bool(evaluator.tolerance)
        points = range(chunk.start, chunk.stop)
        if self.policy is None:
            outcomes = [evaluator.evaluate(flat_index)
                        for flat_index in points]
            statuses = [STATUS_OK] * chunk.count
        else:
            unknown = _unknown_point(n_constraints, with_yield)
            outcomes, statuses = [], []
            for _, outcome, record in run_points_with_policy(
                    evaluator.evaluate, points, self.policy):
                outcomes.append(unknown if outcome is None else outcome)
                statuses.append(record.status)
        payload: Payload = {
            "engine": self.engine.name,
            "start": chunk.start,
            "verdicts": [o["verdict"] for o in outcomes],
            "robustness": [o["robustness"] for o in outcomes],
            "margins": [[o["margins"][row] for o in outcomes]
                        for row in range(n_constraints)],
            "on_currents": [o["on_current"] for o in outcomes],
            "off_currents": [o["off_current"] for o in outcomes],
            "statuses": statuses,
        }
        if with_yield:
            payload["yields"] = [o["yield"] for o in outcomes]
        return payload

    def run(self, *, workers: int = 1) -> FeasibilityMap:
        """Run (or resume) the scan and return its feasibility map.

        Parameters
        ----------
        workers:
            Worker processes for chunk fan-out (``1`` = in-process).  The
            map is identical for any worker count: every chunk is a pure
            function of ``(spec, start, count)``.

        Returns
        -------
        FeasibilityMap
            The merged map; bit-identical whether or not the run resumed
            from checkpoints, and partial (``unknown`` verdicts,
            ``skipped`` statuses) when chunks were lost under the policy.
        """
        worker = partial(_compute_chunk_worker, self.spec.to_dict(),
                         None if self.policy is None
                         else self.policy.as_dict())
        chunks = self._run_chunks(self._compute_chunk, workers=workers,
                                  worker=worker)
        constraints = self._evaluator.constraints
        merged = merge_chunk_payloads(
            [payload for _, payload in chunks if payload is not None],
            len(self.spec), len(constraints))
        return FeasibilityMap(
            spec_hash=self.spec.content_hash(), engine=self.engine.name,
            axes=tuple((axis.parameter, tuple(axis.grid().tolist()))
                       for axis in self.spec.axes),
            constraints=tuple(
                {"name": c.type_name, "kind": c.kind,
                 "threshold": c.threshold} for c in constraints),
            chunks_computed=self.chunks_computed,
            chunks_resumed=self.chunks_resumed, **merged)


def _compute_chunk_worker(spec_payload: Mapping,
                          policy_payload: Optional[Mapping],
                          chunk: Chunk) -> Payload:
    """Process-pool entry point: rebuild the scan and compute one chunk."""
    spec = DesignSpec.from_dict(spec_payload)
    policy = None if policy_payload is None \
        else FailurePolicy(**dict(policy_payload))
    return DeviceScan(spec, policy=policy)._compute_chunk(chunk)


@dataclass(frozen=True)
class YieldReport:
    """Tolerance analysis of one design point: sampled yield plus corners.

    Parameters
    ----------
    point:
        The swept parameter values of the analysed grid point.
    samples:
        Monte-Carlo sample count.
    feasible_samples:
        Samples satisfying every hard constraint.
    yield_fraction:
        ``feasible_samples / samples``.
    corners:
        One entry per worst-case corner: the element assignment and
        whether the corner device stayed feasible.
    worst_case_feasible:
        Whether *every* corner stayed feasible (the classic worst-case
        pass/fail; stricter than any sampled yield).
    """

    point: Mapping[str, float]
    samples: int
    feasible_samples: int
    yield_fraction: float
    corners: Tuple[Mapping[str, Any], ...]
    worst_case_feasible: bool

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able payload of the report."""
        return {"point": dict(self.point), "samples": self.samples,
                "feasible_samples": self.feasible_samples,
                "yield_fraction": self.yield_fraction,
                "corners": [dict(c) for c in self.corners],
                "worst_case_feasible": self.worst_case_feasible}


def analyze_yield(spec: DesignSpec, flat_index: int = 0) -> YieldReport:
    """Full tolerance analysis of one grid point of a design spec.

    Parameters
    ----------
    spec:
        The design spec (must declare tolerances).
    flat_index:
        Row-major grid index of the point to analyse.

    Returns
    -------
    YieldReport
        Seeded Monte-Carlo yield plus the worst-case corner sweep.
    """
    evaluator = _PointEvaluator(spec, resolve_engine(spec.engine))
    if not evaluator.tolerance:
        raise ValidationError(
            "yield analysis needs a spec with component tolerances")
    feasible = evaluator.feasible_samples(flat_index)
    device, temperature, drain_voltage, background = \
        evaluator.point_inputs(flat_index)
    seed = evaluator.point_seed(flat_index)
    corners: List[Dict[str, Any]] = []
    worst_case = True
    for assignment, corner_device in \
            evaluator.tolerance.corner_devices(device):
        try:
            corner_ok = evaluator.is_feasible(corner_device, temperature,
                                              drain_voltage, background,
                                              seed)
        except Exception:  # noqa: BLE001 - unbuildable corner = infeasible
            corner_ok = False
        worst_case = worst_case and corner_ok
        corners.append({"assignment": dict(assignment),
                        "feasible": corner_ok})
    return YieldReport(
        point=evaluator.point_overrides(flat_index),
        samples=spec.tolerance_samples, feasible_samples=feasible,
        yield_fraction=feasible / spec.tolerance_samples,
        corners=tuple(corners), worst_case_feasible=worst_case)


__all__ = [
    "DeviceScan",
    "YieldReport",
    "analyze_yield",
    "resolve_engine",
]
