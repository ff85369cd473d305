"""Chunked, resumable execution shared by checkpointed sweeps and scans.

A :class:`ChunkedRun` shards ``total`` points into fixed-size :class:`Chunk`
records and persists each finished chunk through a
:class:`~repro.io.results.ResultCache` under a content hash of everything
that determines the chunk's numbers.  A killed run resumes by construction:
the next run loads every cached chunk whose payload still has the chunk's
shape and recomputes only the others, so the merged result is bit-identical
to an uninterrupted run.

Clients (:class:`~repro.resilience.checkpoint.CheckpointedSweep`,
:class:`~repro.design.scan.DeviceScan`) supply the chunk's identity, the
per-point fields of its payload and how to compute one chunk.  The base
class owns the plan, the keys, the shape check, storage, the counters and
the chunk-level failure contract: without a failure policy the first chunk
failure propagates (finished chunks stay persisted, so a re-run resumes);
under a policy a failed chunk is counted in ``chunks_failed``, left
uncached and reported missing, so the client returns a partial result that
a re-run heals, and a crashed process pool is replaced by serial execution
of its unfinished chunks (one ``executor.pool`` -> ``recover:serial``
degradation event).

:func:`derive_seed` is the toolkit's one seed derivation: chunk seeds,
per-point design seeds and per-element tolerance streams are SHA-256
digests of ``root:part:...``, pure functions of their key and never of
execution order or worker count.
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import CheckpointError
from ..io.results import ResultCache, content_hash
from .events import emit_degradation
from .policy import FailurePolicy

if TYPE_CHECKING:  # pragma: no cover - annotation only (import cycle)
    from ..engines.base import Engine

_LOG = logging.getLogger("repro.resilience")

#: A chunk payload as stored in the cache (JSON-able).
Payload = Dict[str, Any]


def derive_seed(root: Any, *parts: Any) -> int:
    """Deterministic 32-bit seed keyed on a root seed and any parts.

    Parameters
    ----------
    root:
        The root seed.
    parts:
        The key below the root: ``(start,)`` for a checkpoint chunk,
        ``("design-point", flat_index)`` for a design point,
        ``(element, sample_index)`` for a tolerance draw.

    Returns
    -------
    int
        The first four bytes, big-endian, of SHA-256 of
        ``"{root}:{part}:{part}..."`` — stable across processes, platforms
        and Python versions.
    """
    token = f"{root}:" + ":".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Chunk:
    """One content-addressed unit of a chunked run.

    Parameters
    ----------
    index:
        Chunk ordinal (0-based).
    start:
        Flat index of the chunk's first point.
    count:
        Number of points in the chunk.
    seed:
        Derived chunk seed, ``derive_seed(root, start)`` (``None`` when the
        run is unseeded).
    key:
        Cache key the chunk's payload is stored under (empty when the run
        has no cache).
    """

    index: int
    start: int
    count: int
    seed: Optional[int]
    key: str

    @property
    def stop(self) -> int:
        """Flat index one past the chunk's last point."""
        return self.start + self.count


def _has_shape(values: Any, shape: Tuple[int, ...]) -> bool:
    """Whether ``values`` is a nest of lists of exactly ``shape``."""
    if not isinstance(values, list) or len(values) != shape[0]:
        return False
    return len(shape) == 1 or all(_has_shape(row, shape[1:])
                                  for row in values)


class ChunkedRun:
    """Base of the resumable executors: plan, load, compute, store, count.

    Parameters
    ----------
    engine:
        The resolved engine; its name is recorded in (and checked against)
        every payload.
    cache:
        Where chunk payloads persist; ``None`` disables persistence.
    total:
        Number of points in the whole run.
    chunk_size:
        Points per chunk (the resume granularity).
    policy:
        Optional :class:`~repro.resilience.policy.FailurePolicy`; selects
        the chunk-level failure contract (see the module docstring).
    seed:
        Root seed of the per-chunk seeds; ``None`` leaves them ``None``.

    Subclasses implement :meth:`_chunk_context` and :meth:`_point_fields`,
    hand :meth:`_run_chunks` how to compute one chunk, and merge the
    payloads it returns.
    """

    def __init__(self, engine: "Engine", *, cache: Optional[ResultCache],
                 total: int, chunk_size: int,
                 policy: Optional[FailurePolicy],
                 seed: Optional[int] = None) -> None:
        if chunk_size < 1:
            raise CheckpointError("chunk_size must be at least 1")
        self.engine = engine
        self.cache = cache
        self.policy = policy
        self.chunk_size = int(chunk_size)
        self._total = int(total)
        self._root_seed = seed
        #: Chunks recomputed / served from cache / lost to a chunk-level
        #: failure under the policy during the last run.
        self.chunks_computed = 0
        self.chunks_resumed = 0
        self.chunks_failed = 0

    # --------------------------------------------------------------- hooks

    def _chunk_context(self, start: int, count: int) -> Dict[str, Any]:
        """Everything that determines one chunk's numbers, JSON-able."""
        raise NotImplementedError

    def _point_fields(self) -> Dict[str, Tuple[int, ...]]:
        """Per-point payload fields, mapped to their leading dimensions.

        A field mapped to ``()`` is one list entry per point; ``(rows,)``
        is ``rows`` such lists.  A cached payload is resumed only when
        every field has that shape for the chunk.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ identity

    def chunk_plan(self) -> List[Chunk]:
        """The run's chunks, in order, with derived seeds and cache keys."""
        chunks: List[Chunk] = []
        for index, start in enumerate(range(0, self._total,
                                            self.chunk_size)):
            count = min(self.chunk_size, self._total - start)
            key = "" if self.cache is None else self.cache.key_for(
                content_hash(self._chunk_context(start, count)))
            seed = None if self._root_seed is None \
                else derive_seed(self._root_seed, start)
            chunks.append(Chunk(index=index, start=start, count=count,
                                seed=seed, key=key))
        return chunks

    def _valid_payload(self, chunk: Chunk,
                       payload: Optional[Mapping[str, Any]]) -> bool:
        """Whether a cached payload is this engine's, in the chunk's shape."""
        if payload is None or payload.get("engine") != self.engine.name:
            return False
        return all(_has_shape(payload.get(field), rows + (chunk.count,))
                   for field, rows in self._point_fields().items())

    # ----------------------------------------------------------- execution

    def _run_chunks(self, compute: Callable[[Chunk], Payload], *,
                    workers: int = 1,
                    worker: Optional[Callable[[Chunk], Payload]] = None,
                    ) -> List[Tuple[Chunk, Optional[Payload]]]:
        """Resume the cached chunks, compute the others, store and count.

        Parameters
        ----------
        compute:
            ``compute(chunk) -> payload`` in this process.
        workers:
            Worker processes for chunk fan-out; used only with ``worker``.
        worker:
            Picklable ``worker(chunk) -> payload`` run in a process pool
            when ``workers > 1`` and more than one chunk is pending.

        Returns
        -------
        list of (Chunk, payload or None)
            Every chunk in plan order; the payload is ``None`` for a chunk
            lost under the policy.
        """
        self.chunks_computed = 0
        self.chunks_resumed = 0
        self.chunks_failed = 0
        plan = self.chunk_plan()
        payloads: Dict[int, Optional[Payload]] = {}
        for chunk in plan:
            cached = None if self.cache is None \
                else self.cache.load(chunk.key)
            if self._valid_payload(chunk, cached):
                payloads[chunk.index] = cached
                self.chunks_resumed += 1
                _LOG.info("%s: resumed chunk %d [%s]", type(self).__name__,
                          chunk.index, chunk.key[:12])
        pending = [chunk for chunk in plan if chunk.index not in payloads]
        if worker is not None and workers > 1 and len(pending) > 1:
            self._compute_pooled(pending, payloads, worker, workers)
        for chunk in pending:
            if chunk.index not in payloads:
                payloads[chunk.index] = self._settle(chunk,
                                                     partial(compute, chunk))
        return [(chunk, payloads[chunk.index]) for chunk in plan]

    def _compute_pooled(self, pending: List[Chunk],
                        payloads: Dict[int, Optional[Payload]],
                        worker: Callable[[Chunk], Payload],
                        workers: int) -> None:
        """Fan pending chunks out over a process pool.

        A pool that breaks (a worker process died) under the policy leaves
        its unfinished chunks out of ``payloads``; the caller then computes
        them serially.
        """
        # Imported here: loading the process pool imports multiprocessing,
        # which in-process runs never need.
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [(chunk, pool.submit(worker, chunk))
                           for chunk in pending]
                for chunk, future in futures:
                    payloads[chunk.index] = self._settle(chunk,
                                                         future.result)
        except Exception as error:
            if self.policy is None:
                raise
            emit_degradation("executor.pool", "recover:serial", repr(error))

    def _settle(self, chunk: Chunk,
                compute: Callable[[], Payload]) -> Optional[Payload]:
        """Compute one chunk under the chunk-level failure contract."""
        try:
            payload = compute()
        except BrokenExecutor:
            raise   # the pool is gone, not this chunk: recover serially
        except Exception:
            if self.policy is None:
                raise
            self.chunks_failed += 1
            _LOG.warning("%s: chunk %d lost under policy; the result will "
                         "be partial", type(self).__name__, chunk.index)
            return None
        if self.cache is not None:
            self.cache.store(chunk.key, payload)
        self.chunks_computed += 1
        return payload


__all__ = [
    "Chunk",
    "ChunkedRun",
    "derive_seed",
]
