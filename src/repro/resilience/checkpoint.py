"""Checkpointed, resumable sweeps: content-hashed chunks in the result cache.

A :class:`CheckpointedSweep` shards one :class:`~repro.engines.base.SweepAxes`
into fixed-size chunks, computes each chunk in a freshly bound session, and
persists each finished chunk through a
:class:`~repro.io.results.ResultCache` under a content hash of *everything
that determines the chunk's numbers* — engine, device parameters, operating
conditions, root seed, chunk geometry, and failure policy.  A sweep that is
killed mid-run (worker crash, preemption, ``kill -9``) therefore resumes by
construction: re-running the same checkpointed sweep loads every finished
chunk from the cache and recomputes only the unfinished ones, and the merged
:class:`~repro.engines.base.SweepResult` is bit-identical to an
uninterrupted run.

Stochastic engines stay bit-reproducible because each chunk gets a
*deterministic derived seed* — SHA-256 of the root seed and the chunk's
start index (:func:`~repro.resilience.chunked.derive_seed`) — instead of
sharing one warm random stream whose state would depend on how many chunks
already ran.  Whatever chunk size you pick, the result is a pure function of
``(spec, root seed, chunk size)``; the chunk size is part of the content
hash, so results computed at different chunk sizes never alias in the
cache.

Under a failure policy a chunk that crashes degrades instead of aborting:
its points come back as NaN currents with ``skipped`` records, and the chunk
stays uncached so a re-run heals the result.  The plan/load/store/count
machinery is :class:`~repro.resilience.chunked.ChunkedRun`'s.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..devices.set_transistor import SETTransistor
from ..engines.base import Engine, SweepAxes, SweepResult
from ..io.results import ResultCache
from .chunked import Chunk, ChunkedRun, Payload
from .execution import run_policy_sweep
from .faults import inject
from .policy import FailurePolicy, PointRecord, empty_records


class CheckpointedSweep(ChunkedRun):
    """A resumable gate sweep persisted chunk by chunk through a result cache.

    Parameters
    ----------
    engine:
        Engine instance or registry name.
    device:
        The SET device to sweep.
    axes:
        Full gate axis plus fixed drain bias.
    cache:
        The artifact store checkpoints live in.
    temperature:
        Operating temperature in kelvin.
    seed:
        Root seed; each chunk derives its own via
        :func:`~repro.resilience.chunked.derive_seed`.
    chunk_size:
        Sweep points per chunk (the resume granularity).
    policy:
        Optional per-point :class:`FailurePolicy`; when given, chunks run
        through :func:`~repro.resilience.execution.run_policy_sweep`, the
        merged result carries per-point status records, and a crashed chunk
        degrades to ``skipped`` points instead of aborting the sweep.
    background_charge, max_events, warmup_events, replicas:
        Forwarded to :meth:`Engine.bind` (and folded into chunk identity).
    """

    def __init__(self, engine: Union[str, Engine], device: SETTransistor,
                 axes: SweepAxes, *, cache: ResultCache, temperature: float,
                 seed: Optional[int] = None, chunk_size: int = 64,
                 policy: Optional[FailurePolicy] = None,
                 background_charge: Optional[float] = None,
                 max_events: int = 20_000, warmup_events: int = 1_000,
                 replicas: int = 0) -> None:
        if isinstance(engine, str):
            from ..engines import get_engine

            engine = get_engine(engine)
        super().__init__(engine, cache=cache, total=len(axes),
                         chunk_size=chunk_size, policy=policy, seed=seed)
        self.device = device
        self.axes = axes
        self.temperature = float(temperature)
        self.seed = seed
        self.background_charge = background_charge
        self.max_events = int(max_events)
        self.warmup_events = int(warmup_events)
        self.replicas = int(replicas)

    # ------------------------------------------------------------ identity

    def _chunk_context(self, start: int, count: int) -> Dict[str, Any]:
        """Everything that determines one chunk's numbers, as a JSON-able dict."""
        return {
            "kind": "checkpoint-chunk",
            "engine": self.engine.name,
            "device": dataclasses.asdict(self.device),
            "temperature": self.temperature,
            "background_charge": self.background_charge,
            "root_seed": self.seed,
            "chunk_size": self.chunk_size,
            "start": start,
            "gate_voltages": list(
                self.axes.gate_voltages[start:start + count]),
            "drain_voltage": self.axes.drain_voltage,
            "max_events": self.max_events,
            "warmup_events": self.warmup_events,
            "replicas": self.replicas,
            "policy": None if self.policy is None else self.policy.as_dict(),
        }

    def _point_fields(self) -> Dict[str, Tuple[int, ...]]:
        """Per-point payload fields: currents, plus statuses under a policy."""
        if self.policy is None:
            return {"currents": ()}
        return {"currents": (), "statuses": ()}

    # ------------------------------------------------------------ execution

    def _compute_chunk(self, chunk: Chunk, *, workers: int) -> Payload:
        """Bind a fresh session for one chunk, run it, and return its payload."""
        inject("checkpoint.chunk")
        session = self.engine.bind(self.device, temperature=self.temperature,
                                   seed=chunk.seed,
                                   background_charge=self.background_charge,
                                   max_events=self.max_events,
                                   warmup_events=self.warmup_events,
                                   replicas=self.replicas)
        axes = SweepAxes(self.axes.gate_voltages[chunk.start:chunk.stop],
                         self.axes.drain_voltage)
        if self.policy is not None:
            result = run_policy_sweep(session, axes, self.policy,
                                      workers=workers)
        else:
            result = session.sweep(axes, workers=workers)
        payload: Payload = {
            "engine": result.engine,
            "currents": [float(value) for value in result.currents],
            "stderrs": None if result.stderrs is None
            else [float(value) for value in result.stderrs],
        }
        statuses = getattr(result, "statuses", None)
        if statuses is not None:
            payload["statuses"] = [record.as_dict() for record in statuses]
        return payload

    def run(self, *, workers: int = 1) -> SweepResult:
        """Run (or resume) the sweep, persisting each finished chunk.

        Parameters
        ----------
        workers:
            Worker processes forwarded to each chunk's sweep.

        Returns
        -------
        SweepResult
            The merged full-axes result; bit-identical whether or not the
            run resumed from checkpoints.  A chunk lost under the policy
            leaves NaN currents and ``skipped`` records at its points.
        """
        currents: List[float] = []
        stderrs: List[float] = []
        any_stderrs = False
        statuses: List[PointRecord] = []
        compute = partial(self._compute_chunk, workers=workers)
        for chunk, payload in self._run_chunks(compute):
            if payload is None:   # lost under the policy
                payload = {"currents": [math.nan] * chunk.count,
                           "statuses": [record.as_dict() for record
                                        in empty_records(chunk.count)]}
            currents.extend(payload["currents"])
            values = payload.get("stderrs")
            any_stderrs = any_stderrs or values is not None
            stderrs.extend([math.nan] * chunk.count if values is None
                           else values)
            for entry in payload.get("statuses") or ():
                record = PointRecord.from_dict(entry)
                statuses.append(dataclasses.replace(
                    record, index=record.index + chunk.start))
        return SweepResult(
            axes=self.axes, currents=np.asarray(currents, dtype=float),
            stderrs=np.asarray(stderrs, dtype=float) if any_stderrs
            else None, engine=self.engine.name,
            statuses=tuple(statuses) if self.policy is not None else None)


def run_checkpointed_sweep(engine: Union[str, Engine], device: SETTransistor,
                           axes: SweepAxes, *, cache: ResultCache,
                           temperature: float, seed: Optional[int] = None,
                           chunk_size: int = 64,
                           policy: Optional[FailurePolicy] = None,
                           workers: int = 1,
                           **bind_kwargs: Any) -> SweepResult:
    """One-call convenience wrapper around :class:`CheckpointedSweep`.

    Parameters
    ----------
    engine, device, axes, cache, temperature, seed, chunk_size, policy:
        See :class:`CheckpointedSweep`.
    workers:
        Worker processes forwarded to each chunk's sweep.
    bind_kwargs:
        ``background_charge``/``max_events``/``warmup_events``/``replicas``.

    Returns
    -------
    SweepResult
        The merged (possibly resumed) result.
    """
    sweep = CheckpointedSweep(engine, device, axes, cache=cache,
                              temperature=temperature, seed=seed,
                              chunk_size=chunk_size, policy=policy,
                              **bind_kwargs)
    return sweep.run(workers=workers)


__all__ = [
    "CheckpointedSweep",
    "run_checkpointed_sweep",
]
