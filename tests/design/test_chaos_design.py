"""Chaos tests: design scans must degrade, stay partial, and resume."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.design import UNKNOWN, DeviceScan
from repro.design.scan import _compute_chunk_worker
from repro.errors import FaultInjected
from repro.io.results import ResultCache
from repro.resilience import FailurePolicy, FaultInjector
from repro.resilience.events import capture_degradations
from repro.resilience.faults import SITES

from .conftest import make_spec
from .test_scan import comparable


def _worker_dying_on_chunk_1(spec_payload, policy_payload, chunk):
    """A pool worker whose process dies while computing chunk 1."""
    if chunk.index == 1:
        os._exit(1)
    return _compute_chunk_worker(spec_payload, policy_payload, chunk)


class TestFaultSites:
    def test_design_sites_are_registered(self):
        assert "design.point" in SITES
        assert "design.chunk" in SITES

    def test_arming_an_unknown_site_fails(self):
        with pytest.raises(Exception, match="unknown fault site"):
            FaultInjector(seed=1).arm("design.bogus")


class TestMidScanCrash:
    def test_crash_without_policy_propagates_but_checkpoints_survive(
            self, tmp_path):
        spec = make_spec()
        clean = comparable(DeviceScan(spec).run())
        cache = ResultCache(str(tmp_path))
        interrupted = DeviceScan(spec, cache=cache)
        chaos = FaultInjector(seed=3)
        chaos.arm("design.chunk", after=2, times=1)
        with pytest.raises(FaultInjected):
            with chaos:
                interrupted.run()
        assert interrupted.chunks_computed == 2
        resumer = DeviceScan(spec, cache=cache)
        resumed = resumer.run()
        assert resumer.chunks_resumed == 2
        assert resumer.chunks_computed == 1
        assert comparable(resumed) == clean
        # Two fully-resumed runs share even the chunk counters, so the
        # complete canonical JSON (NaN slots included) is byte-identical.
        assert DeviceScan(spec, cache=cache).run().payload_json() == \
            DeviceScan(spec, cache=cache).run().payload_json()

    def test_chunk_loss_under_policy_yields_a_partial_resumable_map(
            self, tmp_path):
        spec = make_spec()
        cache = ResultCache(str(tmp_path))
        policy = FailurePolicy.lenient()
        damaged_scan = DeviceScan(spec, cache=cache, policy=policy)
        chaos = FaultInjector(seed=3)
        chaos.arm("design.chunk", after=1, times=1)
        with chaos:
            damaged = damaged_scan.run()
        # No abort: the middle chunk is lost, its points stay unknown.
        assert damaged_scan.chunks_failed == 1
        assert damaged.is_partial
        assert damaged.counts()["unknown"] == 3
        assert damaged.statuses.count("skipped") == 3
        assert np.all(np.isnan(
            damaged.robustness[damaged.verdicts == UNKNOWN]))
        # The lost chunk was never cached, so a plain re-run completes the
        # map — and the completed map matches a never-faulted run exactly.
        healed_scan = DeviceScan(spec, cache=cache, policy=policy)
        healed = healed_scan.run()
        assert healed_scan.chunks_resumed == 2
        assert healed_scan.chunks_computed == 1
        assert not healed.is_partial
        assert comparable(healed) == comparable(
            DeviceScan(spec, policy=policy).run())

    def test_losing_every_chunk_under_policy_yields_an_empty_map(self):
        scan = DeviceScan(make_spec(), policy=FailurePolicy.lenient())
        chaos = FaultInjector(seed=3)
        chaos.arm("design.chunk", times=None)
        with chaos:
            lost = scan.run()
        assert scan.chunks_failed == 3
        assert scan.chunks_computed == 0
        assert lost.is_partial
        assert lost.counts()["unknown"] == 9
        assert lost.statuses == ("skipped",) * 9
        assert lost.margins.shape == (3, 9)
        assert np.all(np.isnan(lost.margins))

    def test_crashed_worker_is_recomputed_serially(self, monkeypatch):
        spec = make_spec()
        policy = FailurePolicy.lenient()
        serial = DeviceScan(spec, policy=policy).run()
        monkeypatch.setattr("repro.design.scan._compute_chunk_worker",
                            _worker_dying_on_chunk_1)
        scan = DeviceScan(spec, policy=policy)
        with capture_degradations() as events:
            recovered = scan.run(workers=2)
        assert scan.chunks_failed == 0
        assert scan.chunks_computed == 3
        assert recovered.payload_json() == serial.payload_json()
        assert [(e.site, e.action) for e in events] == \
            [("executor.pool", "recover:serial")]


class TestPointDegradation:
    def test_point_failures_degrade_to_unknown_verdicts(self):
        spec = make_spec()
        policy = FailurePolicy(max_retries=0)
        scan = DeviceScan(spec, policy=policy)
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=3, times=2,
                  error=RuntimeError("engine blew up"))
        with chaos:
            feasibility = scan.run()
        assert feasibility.statuses.count("failed") == 2
        assert feasibility.counts()["unknown"] == 2
        assert feasibility.is_partial
        # The surviving points still classified normally.
        assert feasibility.counts()["feasible"] > 0

    def test_retries_absorb_transient_point_failures(self):
        spec = make_spec()
        scan = DeviceScan(spec, policy=FailurePolicy(max_retries=1))
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=3, times=1,
                  error=RuntimeError("transient"))
        with chaos:
            feasibility = scan.run()
        assert feasibility.statuses.count("retried") == 1
        assert feasibility.statuses.count("ok") == 8
        assert not feasibility.is_partial
        # Apart from the one status, the map equals a never-faulted run's.
        clean = DeviceScan(spec, policy=FailurePolicy(max_retries=1)).run()
        assert comparable(replace(feasibility, statuses=clean.statuses)) \
            == comparable(clean)

    def test_point_over_its_timeout_is_recorded_timeout(self):
        spec = make_spec()
        scan = DeviceScan(spec, policy=FailurePolicy(max_retries=2,
                                                     point_timeout_s=0.05))
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=4, times=1, delay_s=0.2)
        with chaos:
            feasibility = scan.run()
        statuses = list(feasibility.statuses)
        assert statuses[4] == "timeout"
        assert statuses.count("ok") == 8
        assert feasibility.verdicts[4] == UNKNOWN
        assert feasibility.counts()["unknown"] == 1
        # A timed-out point is abandoned, not retried.
        assert chaos.calls("design.point") == 9

    def test_max_failures_skips_the_rest_of_the_chunk(self):
        spec = make_spec(chunk_size=9)
        policy = FailurePolicy(max_retries=0, max_failures=1)
        scan = DeviceScan(spec, policy=policy)
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=2, times=9,
                  error=RuntimeError("persistent"))
        with chaos:
            feasibility = scan.run()
        statuses = list(feasibility.statuses)
        assert statuses[:2] == ["ok", "ok"]
        assert statuses.count("failed") == 2   # budget is max_failures + 1
        assert statuses.count("skipped") == 5
        assert feasibility.counts()["unknown"] == 7

    def test_point_failure_without_policy_aborts(self):
        scan = DeviceScan(make_spec())
        chaos = FaultInjector(seed=4)
        chaos.arm("design.point", after=1, times=1,
                  error=RuntimeError("fatal"))
        with chaos:
            with pytest.raises(RuntimeError, match="fatal"):
                scan.run()
