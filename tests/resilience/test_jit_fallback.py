"""Tests for the native -> interpreted fallback of the Monte-Carlo event loop.

The ``jit.run_compiled`` site fires before every native call of the advance
loop.  A fault there moves the kernel to the interpreted loop, which
re-enters with the registers and random buffers the native call would
have used, so a faulted run is bit-identical to a clean one.
"""

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.engines import SweepAxes, get_engine
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo.jit import BACKEND_PYTHON, jit_backend, jit_compiled
from repro.resilience import FaultInjector
from repro.resilience.events import capture_degradations

from ..conftest import build_set_circuit

pytestmark = pytest.mark.skipif(
    not jit_compiled(), reason="no native jit backend loaded")

DRAIN_VOLTAGE = 2e-3
BIND_KWARGS = dict(temperature=1.0, seed=123, max_events=400,
                   warmup_events=50)


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture(scope="module")
def axes(device):
    gates = np.linspace(0.25, 0.75, 3) * device.gate_period
    return SweepAxes(gates, DRAIN_VOLTAGE)


def chaos_all_compiled_entries():
    injector = FaultInjector()
    injector.arm("jit.run_compiled",
                 error=RuntimeError("injected jit crash"), times=None)
    return injector


class TestJitFallback:
    def test_single_trajectory_fallback_is_bit_identical_to_numpy(
            self, device, axes):
        jit_session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        clean_session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        chaos = chaos_all_compiled_entries()
        with chaos, capture_degradations() as events:
            degraded = jit_session.sweep(axes)
        # Only the first native call faults: the kernel stays on the
        # interpreted loop afterwards.
        assert chaos.fired("jit.run_compiled") == 1
        assert [(e.site, e.action) for e in events] == \
            [("jit.run_compiled", "fallback:python")]
        reference = clean_session.sweep(axes)
        np.testing.assert_array_equal(degraded.currents, reference.currents)
        np.testing.assert_array_equal(degraded.stderrs, reference.stderrs)

    def test_fallback_disables_the_kernel_jit(self, device, axes):
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        assert session.simulator.kernel.backend == jit_backend()
        with chaos_all_compiled_entries():
            session.sweep(axes)
        assert session.simulator.kernel.backend == BACKEND_PYTHON

    def test_ensemble_fallback_is_bit_identical_to_numpy(self, device, axes):
        # The sequential ensemble continues on the interpreted loop too,
        # so a faulted run equals a clean ensemble-jit run.
        jit_session = get_engine("ensemble-jit").bind(device, replicas=3,
                                                      **BIND_KWARGS)
        clean_session = get_engine("ensemble-jit").bind(device, replicas=3,
                                                        **BIND_KWARGS)
        chaos = chaos_all_compiled_entries()
        with chaos, capture_degradations() as events:
            degraded = jit_session.sweep(axes)
        assert any(e.site == "jit.run_compiled"
                   and e.action == "fallback:python" for e in events)
        reference = clean_session.sweep(axes)
        np.testing.assert_array_equal(degraded.currents, reference.currents)
        np.testing.assert_array_equal(degraded.stderrs, reference.stderrs)

    def test_clean_compiled_run_emits_no_degradation(self, device, axes):
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        with capture_degradations() as events:
            session.sweep(axes)
        assert events == []
        assert session.simulator.kernel.backend == jit_backend()

    @pytest.mark.parametrize("after", [0, 5, 9])
    def test_fault_past_a_refill_continues_the_same_trajectory(self, after):
        # The native calls of this run alternate with random-block refills
        # and successor links; a fault on a later call must resume from
        # the refilled buffers at the right read position.
        def run(chaos=None):
            simulator = MonteCarloSimulator(
                build_set_circuit(drain_voltage=0.05, gate_voltage=0.04),
                temperature=1.0, seed=3)
            if chaos is None:
                return simulator.run(max_events=20_000)
            with chaos:
                return simulator.run(max_events=20_000)

        chaos = FaultInjector()
        chaos.arm("jit.run_compiled", error=RuntimeError("injected"),
                  after=after, times=1)
        with capture_degradations() as events:
            faulted = run(chaos)
        clean = run()
        assert chaos.fired("jit.run_compiled") == 1
        assert [e.action for e in events] == ["fallback:python"]
        assert faulted.event_count == clean.event_count == 20_000
        assert faulted.duration == clean.duration
        assert faulted.electron_transfers == clean.electron_transfers
        assert faulted.final_electrons == clean.final_electrons
