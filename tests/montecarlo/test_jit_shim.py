"""The C advance loop's ctypes shim against the interpreted reference loop.

The C backend receives its arrays as raw addresses, which carry no dtype
or shape.  These tests feed the ``cc`` shim and :func:`_advance_py` the
same small hand-built rate table (with a trap-flip column) and buffers,
drive both through every re-entry (``NEED_EXP``, ``NEED_UNIFORM``,
``NEED_LINK``, and ``STEPPED`` in single-step mode) to completion, and
require byte-identical status, registers and transfer tallies after every
call.  The same comparison runs inside real kernels, on a trap circuit and
on a recorded run.  They also pin the other half of the contract: the
kernel hands the shim C-contiguous float64/int64 arrays only.
"""

import numpy as np
import pytest

from repro.constants import E_CHARGE
from repro.devices import SETTransistor
from repro.errors import SimulationError
from repro.montecarlo import MonteCarloSimulator, OccupationStatistics
from repro.montecarlo.jit import (
    BACKEND_CC,
    FREG_DURATION,
    FREG_PENDING_WAIT,
    FREG_SIZE,
    FREG_START,
    IREG_SIZE,
    REG_EXP_POS,
    REG_LAST_EVENT,
    REG_PENDING_EVENT,
    REG_SINGLE_STEP,
    REG_SLOT,
    REG_TRAP_FLIPS,
    REG_TRAP_START,
    REG_UNI_POS,
    STATUS_BLOCKED,
    STATUS_DONE,
    STATUS_NEED_EXP,
    STATUS_NEED_LINK,
    STATUS_NEED_UNIFORM,
    STATUS_STEPPED,
    _advance_py,
    resolve_advance,
)

from ..conftest import build_set_circuit

#: Per-configuration event rates (rows: configuration slots, columns:
#: events; the last column flips a trap).  Zero entries exercise the clamp
#: to the last positive-rate event; slot 3 has no event at all and
#: blockades the trajectory.
RATES = np.array([[1.0, 2.0, 0.0, 0.5, 0.4],
                  [0.3, 0.0, 1.2, 0.0, 0.2],
                  [2.0, 1.0, 1.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0]])

#: First trap-flip column of :data:`RATES`.
TRAP_START = 4

#: Per-event electron transfers through two junctions (a flip moves none).
TRANSFER_MATRIX = np.array([[1.0, 0.0], [-1.0, 0.0],
                            [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])

#: Buffer lengths short enough that every run refills both several times.
EXP_BLOCK = 3
UNIFORM_BLOCK = 2


@pytest.fixture(scope="module")
def cc_advance():
    try:
        return resolve_advance(BACKEND_CC)[1]
    except SimulationError:
        pytest.skip("no C compiler for the cc backend")


def successor_of(slot, event, blockade):
    """The slot that ``(slot, event)`` is linked to on ``NEED_LINK``."""
    if blockade and (slot, event) == (2, 3):
        return 3
    return (slot + event + 1) % 3


def drive(advance, *, duration, blockade, single_step, max_events=200,
          seed=5):
    """Run ``advance`` to completion, refilling and linking like the kernel.

    Returns one ``(status, ireg, freg, transfers)`` byte record per call.
    """
    rng = np.random.default_rng(seed)
    totals = RATES.sum(axis=1)
    cumulative = np.cumsum(RATES, axis=1)
    last_selectable = np.array(
        [np.flatnonzero(row).max(initial=0) for row in RATES],
        dtype=np.int64)
    successor_slots = np.full(RATES.shape, -1, dtype=np.int64)
    transfer_matrix = TRANSFER_MATRIX.copy()
    transfers = np.zeros(TRANSFER_MATRIX.shape[1])
    exp_buf = rng.standard_exponential(EXP_BLOCK)
    uni_buf = rng.random(UNIFORM_BLOCK)
    ireg = np.zeros(IREG_SIZE, dtype=np.int64)
    ireg[REG_PENDING_EVENT] = -1
    ireg[REG_LAST_EVENT] = -1
    ireg[REG_TRAP_START] = TRAP_START
    ireg[REG_SINGLE_STEP] = single_step
    freg = np.zeros(FREG_SIZE)
    freg[FREG_PENDING_WAIT] = -1.0
    freg[FREG_START] = 0.0
    freg[FREG_DURATION] = duration
    trace = []
    while True:
        status = advance(totals, cumulative, last_selectable,
                         successor_slots, transfer_matrix, transfers,
                         exp_buf, uni_buf, ireg, freg, max_events)
        trace.append((int(status), ireg.tobytes(), freg.tobytes(),
                      transfers.tobytes()))
        if status == STATUS_NEED_EXP:
            exp_buf = rng.standard_exponential(EXP_BLOCK)
            ireg[REG_EXP_POS] = 0
        elif status == STATUS_NEED_UNIFORM:
            uni_buf = rng.random(UNIFORM_BLOCK)
            ireg[REG_UNI_POS] = 0
        elif status == STATUS_NEED_LINK:
            slot, event = int(ireg[REG_SLOT]), int(ireg[REG_PENDING_EVENT])
            successor_slots[slot, event] = successor_of(slot, event, blockade)
        elif status != STATUS_STEPPED:
            return trace


CASES = pytest.mark.parametrize("duration, blockade, final", [
    (np.inf, False, STATUS_DONE),
    (np.inf, True, STATUS_BLOCKED),
    (12.0, False, STATUS_DONE),
    (12.0, True, STATUS_DONE),
], ids=["events", "events-blockade", "duration", "duration-blockade"])


def assert_same_trace(cc_advance, duration, blockade, final, single_step):
    native = drive(cc_advance, duration=duration, blockade=blockade,
                   single_step=single_step)
    reference = drive(_advance_py, duration=duration, blockade=blockade,
                      single_step=single_step)
    assert native == reference
    statuses = {status for status, *_ in reference}
    assert {STATUS_NEED_EXP, STATUS_NEED_UNIFORM, STATUS_NEED_LINK} \
        <= statuses
    assert (STATUS_STEPPED in statuses) == single_step
    assert reference[-1][0] == final
    registers = np.frombuffer(reference[-1][1], dtype=np.int64)
    assert registers[REG_TRAP_FLIPS] > 0


@CASES
def test_cc_shim_matches_the_reference_loop_byte_for_byte(
        cc_advance, duration, blockade, final):
    assert_same_trace(cc_advance, duration, blockade, final,
                      single_step=False)


@CASES
def test_cc_shim_matches_the_reference_loop_one_step_at_a_time(
        cc_advance, duration, blockade, final):
    assert_same_trace(cc_advance, duration, blockade, final,
                      single_step=True)


def in_lockstep(native):
    """An advance function running ``native`` and the reference side by side.

    Every call runs both on their own copies of the written arrays and
    asserts the same status and byte-identical transfers and registers;
    the statuses are collected in ``.statuses``.
    """
    written = (5, 8, 9)  # transfers, ireg, freg

    def advance(*arguments):
        mirror = list(arguments)
        for position in written:
            mirror[position] = arguments[position].copy()
        status = native(*arguments)
        assert _advance_py(*mirror) == status
        for position in written:
            assert mirror[position].tobytes() == arguments[position].tobytes()
        advance.statuses.append(int(status))
        return status

    advance.statuses = []
    return advance


def trap_simulator(seed):
    circuit = build_set_circuit(drain_voltage=0.05, gate_voltage=0.02)
    circuit.add_charge_trap("T1", "dot", 0.3 * E_CHARGE,
                            capture_time=2e-11, emission_time=5e-11)
    circuit.add_charge_trap("T2", "dot", -0.15 * E_CHARGE,
                            capture_time=7e-11, emission_time=3e-11)
    return MonteCarloSimulator(circuit, temperature=1.0, seed=seed)


def test_trap_circuit_runs_match_byte_for_byte(cc_advance):
    simulator = trap_simulator(seed=14)
    advance = in_lockstep(cc_advance)
    simulator.kernel._advance = advance
    result = simulator.run(max_events=4_000)
    result = simulator.run(duration=0.5 * result.duration)
    assert result.trap_flips > 0
    assert STATUS_NEED_LINK in advance.statuses


def test_recorded_runs_match_byte_for_byte(cc_advance):
    simulator = trap_simulator(seed=15)
    advance = in_lockstep(cc_advance)
    simulator.kernel._advance = advance
    occupation = OccupationStatistics()
    result = simulator.run(max_events=1_500, record_events=True,
                           occupation=occupation)
    result = simulator.run(duration=0.5 * result.duration,
                           record_events=True, occupation=occupation)
    assert any(record.label.startswith("trap:") for record in result.records)
    assert advance.statuses.count(STATUS_STEPPED) >= len(result.records)


def test_kernel_hands_the_shim_contiguous_float64_and_int64_arrays(
        cc_advance):
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=0.05,
                                       gate_voltage=0.04)
    simulator = MonteCarloSimulator(circuit, temperature=1.0, seed=9,
                                    sequential_replicas=True)
    expected = (np.float64, np.float64, np.int64, np.int64, np.float64,
                np.float64, np.float64, np.float64, np.int64, np.float64)
    calls = []

    def checked(*arrays_and_budget):
        arrays = arrays_and_budget[:-1]
        for array, dtype in zip(arrays, expected):
            assert array.dtype == dtype
            assert array.flags.c_contiguous
        calls.append(1)
        return cc_advance(*arrays_and_budget)

    simulator.kernel._advance = checked
    simulator.run(max_events=3_000)
    simulator.run(max_events=100, record_events=True)
    simulator.run_ensemble(replicas=3, max_events=500)
    assert len(calls) > 2
