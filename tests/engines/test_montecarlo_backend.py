"""The ``montecarlo`` engine's event-loop backend and its oracle.

Every ``montecarlo`` session runs its events in the advance loop of the
backend resolved at bind time: compiled (numba or C) where one loaded,
interpreted otherwise.  The backends walk the same trajectory event for
event, so every entry point of a bound session must report exactly the
numbers of the same session bound on the interpreted loop at the same
seed.  ``tests/montecarlo/test_seeded_pins.py`` pins exact values.
"""

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.devices import SETTransistor
from repro.engines import BiasPoint, SweepAxes, get_engine
from repro.io.results import ResultCache
from repro.montecarlo.jit import (
    BACKEND_PYTHON,
    clear_backend_cache,
    jit_backend,
    jit_compiled,
)
from repro.resilience import CheckpointedSweep, FailurePolicy, FaultInjector

DRAIN_VOLTAGE = 2e-3
BIND_KWARGS = dict(temperature=1.0, seed=321, max_events=600,
                   warmup_events=60)


@pytest.fixture(scope="module")
def device():
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture(scope="module")
def axes(device):
    # Blockaded, flank and peak points, so the warm-started trajectory
    # crosses regimes with very different event rates.
    gates = np.linspace(0.0, 1.0, 6) * device.gate_period
    return SweepAxes(gates, DRAIN_VOLTAGE)


@pytest.fixture
def engine_and_oracle(device, on_interpreted_loop):
    """A bound ``montecarlo`` session and its interpreted-loop twin."""
    def bind(**overrides):
        kwargs = dict(BIND_KWARGS)
        kwargs.update(overrides)
        engine = get_engine("montecarlo")
        session = engine.bind(device, **kwargs)
        oracle = on_interpreted_loop(engine.bind, device, **kwargs)
        assert session.simulator.kernel.backend == jit_backend()
        assert oracle.simulator.kernel.backend == BACKEND_PYTHON
        return session, oracle
    return bind


def assert_same_sweep(observed, reference):
    np.testing.assert_array_equal(observed.currents, reference.currents)
    np.testing.assert_array_equal(observed.stderrs, reference.stderrs)


class TestBackendBinding:
    def test_bind_runs_the_compiled_loop_iff_a_native_backend_loaded(
            self, device):
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        kernel = session.simulator.kernel
        assert kernel.backend == jit_backend()
        assert (kernel.backend != BACKEND_PYTHON) == jit_compiled()

    def test_interpreted_backend_keeps_the_numpy_path(self, device,
                                                      python_backend):
        # Without a native backend the engine runs the interpreted loop
        # and prices its points accordingly.
        session = get_engine("montecarlo").bind(device, **BIND_KWARGS)
        assert session.simulator.kernel.backend == BACKEND_PYTHON
        capabilities = get_engine("montecarlo").capabilities()
        assert "event loop: python" in capabilities.description
        assert capabilities.cost.per_point_s == 5e-3

    def test_capabilities_name_the_backend_in_use(self):
        capabilities = get_engine("montecarlo").capabilities()
        assert f"event loop: {jit_backend()}" in capabilities.description
        assert capabilities.available


# T = 0 blockades part of the gate axis (the compiled loop's BLOCKED exit,
# the numpy loop's stall strikes); 10 K smears the oscillations out.
@pytest.mark.parametrize("temperature", [0.0, 1.0, 10.0])
class TestBitIdentityWithTheNumpyOracle:
    """The native session against its twin on the interpreted loop."""

    def test_solve(self, device, engine_and_oracle, temperature):
        engine, oracle = engine_and_oracle(temperature=temperature)
        bias = BiasPoint(0.5 * device.gate_period, DRAIN_VOLTAGE)
        for _ in range(2):  # the second solve continues the random stream
            observed, reference = engine.solve(bias), oracle.solve(bias)
            assert observed.current == reference.current
            assert observed.stderr == reference.stderr
            assert observed.extras == reference.extras

    def test_warm_started_sweep(self, engine_and_oracle, axes, temperature):
        engine, oracle = engine_and_oracle(temperature=temperature)
        assert_same_sweep(engine.sweep(axes), oracle.sweep(axes))
        # A second sweep reuses the warm rate memo and cursor.
        assert_same_sweep(engine.sweep(axes), oracle.sweep(axes))

    def test_background_charge_offset(self, device, engine_and_oracle, axes,
                                      temperature):
        engine, oracle = engine_and_oracle(
            temperature=temperature, background_charge=0.3 * E_CHARGE)
        assert_same_sweep(engine.sweep(axes), oracle.sweep(axes))
        # A per-point offset moves the compiled cursor to a new epoch.
        bias = BiasPoint(0.5 * device.gate_period, DRAIN_VOLTAGE,
                         offset_charge=-0.2 * E_CHARGE)
        assert engine.solve(bias).current == oracle.solve(bias).current

    def test_two_workers(self, engine_and_oracle, axes, temperature):
        engine, oracle = engine_and_oracle(temperature=temperature)
        assert_same_sweep(engine.sweep(axes, workers=2),
                          oracle.sweep(axes, workers=2))

    def test_policed_sweep(self, engine_and_oracle, axes, temperature):
        engine, oracle = engine_and_oracle(temperature=temperature)
        observed = engine.sweep(axes, policy=FailurePolicy())
        reference = oracle.sweep(axes, policy=FailurePolicy())
        assert_same_sweep(observed, reference)
        assert observed.statuses == reference.statuses
        assert observed.status_counts() == {"ok": len(axes.gates)}

    def test_stream(self, engine_and_oracle, axes, temperature):
        engine, oracle = engine_and_oracle(temperature=temperature)
        observed = [point.current for _, point in engine.stream(axes)]
        reference = [point.current for _, point in oracle.stream(axes)]
        assert observed == reference


class _Killed(BaseException):
    """A kill mid-sweep: unlike a chunk error, no failure policy absorbs it."""


class TestCheckpointsAcrossBackends:
    """Chunk keys name the engine, not its event loop.

    A checkpoint written on an install without a native backend is served
    unchanged to one with it (and the other way round), so the native and
    the interpreted loop must produce the same chunk payloads.
    """

    def sweep(self, device, axes, cache):
        return CheckpointedSweep("montecarlo", device, axes, cache=cache,
                                 temperature=1.0, seed=77, chunk_size=2,
                                 max_events=300, warmup_events=50,
                                 policy=FailurePolicy())

    def test_numpy_checkpoints_resume_bit_identically_on_the_compiled_loop(
            self, device, axes, tmp_path, monkeypatch):
        expected = self.sweep(device, axes,
                              ResultCache(tmp_path / "compiled")).run()

        cache = ResultCache(tmp_path / "mixed")
        interrupted = self.sweep(device, axes, cache)
        chaos = FaultInjector()
        chaos.arm("checkpoint.chunk", after=1, times=1, error=_Killed())
        with monkeypatch.context() as interpreted_only:
            interpreted_only.setenv("REPRO_JIT_BACKEND", BACKEND_PYTHON)
            clear_backend_cache()
            with chaos, pytest.raises(_Killed):
                interrupted.run()
        clear_backend_cache()
        assert interrupted.chunks_computed == 1

        resumed_sweep = self.sweep(device, axes, cache)
        resumed = resumed_sweep.run()
        assert resumed_sweep.chunks_resumed == 1
        assert resumed_sweep.chunks_computed == len(axes.gates) // 2 - 1
        assert_same_sweep(resumed, expected)
        assert resumed.statuses == expected.statuses
