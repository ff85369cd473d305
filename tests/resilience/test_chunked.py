"""Tests for the shared chunked executor and the shared per-point loop."""

import pytest

from repro.io.results import ResultCache
from repro.resilience import ChunkedRun, FailurePolicy
from repro.resilience import execution
from repro.resilience.execution import run_points_with_policy


class _ToyEngine:
    name = "toy"


class _Indices(ChunkedRun):
    """A toy client: every point stores its index, flat and in two rows."""

    def __init__(self, total, chunk_size, *, cache=None):
        super().__init__(_ToyEngine(), cache=cache, total=total,
                         chunk_size=chunk_size, policy=None)

    def _chunk_context(self, start, count):
        return {"kind": "indices", "start": start, "count": count}

    def _point_fields(self):
        return {"flat": (), "rows": (2,)}

    def compute(self, chunk):
        points = list(range(chunk.start, chunk.stop))
        return {"engine": "toy", "flat": points, "rows": [points, points]}

    def run(self):
        return self._run_chunks(self.compute)


class TestChunkPlan:
    def test_geometry_covers_every_point_once(self):
        plan = _Indices(7, 3).chunk_plan()
        assert [(c.index, c.start, c.count, c.stop) for c in plan] == [
            (0, 0, 3, 3), (1, 3, 3, 6), (2, 6, 1, 7)]

    def test_no_cache_means_no_keys_and_no_seed_means_no_seeds(self):
        plan = _Indices(4, 2).chunk_plan()
        assert [c.key for c in plan] == ["", ""]
        assert [c.seed for c in plan] == [None, None]


class TestResume:
    @pytest.mark.parametrize("field, value", [
        ("engine", "someone-else"),
        ("flat", [0]),                    # one point short
        ("rows", [[0, 1]]),               # one row short
        ("rows", [[0, 1], [0]]),          # a row one point short
    ])
    def test_payload_of_the_wrong_shape_is_recomputed(self, tmp_path, field,
                                                      value):
        cache = ResultCache(tmp_path)
        first = _Indices(4, 2, cache=cache)
        expected = first.run()
        victim, payload = expected[0]
        cache.store(victim.key, dict(payload, **{field: value}))
        again = _Indices(4, 2, cache=cache)
        assert again.run() == expected
        assert (again.chunks_computed, again.chunks_resumed) == (1, 1)


class TestPerPointLoop:
    def test_retries_back_off_exponentially(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(execution.time, "sleep", sleeps.append)

        def failing(index):
            raise RuntimeError(f"point {index} failed")

        policy = FailurePolicy(max_retries=2, backoff_s=0.1)
        (_, value, record), = run_points_with_policy(failing, [7], policy)
        assert value is None
        assert (record.index, record.status, record.attempts) == \
            (7, "failed", 3)
        assert sleeps == pytest.approx([0.1, 0.2])
