"""The C advance loop's ctypes shim against the interpreted reference loop.

The C backend receives its arrays as raw addresses, which carry no dtype
or shape.  These tests feed the ``cc`` shim and :func:`_advance_py` the
same small hand-built rate table and buffers, drive both through every
re-entry (``NEED_EXP``, ``NEED_UNIFORM``, ``NEED_LINK``) to completion,
and require byte-identical status, registers and transfer tallies after
every call.  They also pin the other half of the contract: the kernel
hands the shim C-contiguous float64/int64 arrays only.
"""

import numpy as np
import pytest

from repro.devices import SETTransistor
from repro.errors import SimulationError
from repro.montecarlo import MonteCarloSimulator
from repro.montecarlo.jit import (
    BACKEND_CC,
    FREG_DURATION,
    FREG_PENDING_WAIT,
    FREG_SIZE,
    FREG_START,
    IREG_SIZE,
    REG_EXP_POS,
    REG_PENDING_EVENT,
    REG_SLOT,
    REG_UNI_POS,
    STATUS_BLOCKED,
    STATUS_DONE,
    STATUS_NEED_EXP,
    STATUS_NEED_LINK,
    STATUS_NEED_UNIFORM,
    _advance_py,
    resolve_advance,
)

#: Per-configuration event rates (rows: configuration slots, columns:
#: events).  Zero entries exercise the clamp to the last positive-rate
#: event; slot 3 has no event at all and blockades the trajectory.
RATES = np.array([[1.0, 2.0, 0.0, 0.5],
                  [0.3, 0.0, 1.2, 0.0],
                  [2.0, 1.0, 1.0, 1.0],
                  [0.0, 0.0, 0.0, 0.0]])

#: Per-event electron transfers through two junctions.
TRANSFER_MATRIX = np.array([[1.0, 0.0], [-1.0, 0.0],
                            [0.0, 1.0], [0.0, -1.0]])

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


def drive(advance, *, duration, blockade, max_events=200, seed=5):
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
        else:
            return trace


@pytest.mark.parametrize("duration, blockade, final", [
    (np.inf, False, STATUS_DONE),
    (np.inf, True, STATUS_BLOCKED),
    (12.0, False, STATUS_DONE),
    (12.0, True, STATUS_DONE),
], ids=["events", "events-blockade", "duration", "duration-blockade"])
def test_cc_shim_matches_the_reference_loop_byte_for_byte(
        cc_advance, duration, blockade, final):
    native = drive(cc_advance, duration=duration, blockade=blockade)
    reference = drive(_advance_py, duration=duration, blockade=blockade)
    assert native == reference
    statuses = {status for status, *_ in reference}
    assert {STATUS_NEED_EXP, STATUS_NEED_UNIFORM, STATUS_NEED_LINK} \
        <= statuses
    assert reference[-1][0] == final


def test_kernel_hands_the_shim_contiguous_float64_and_int64_arrays(
        cc_advance):
    transistor = SETTransistor(junction_capacitance=1e-18,
                               gate_capacitance=2e-18,
                               junction_resistance=1e6)
    circuit = transistor.build_circuit(drain_voltage=0.05,
                                       gate_voltage=0.04)
    simulator = MonteCarloSimulator(circuit, temperature=1.0, seed=9,
                                    jit=BACKEND_CC)
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

    kernel = simulator.kernel
    kernel._jit_advance = checked
    simulator.run(max_events=3_000)
    simulator.run_ensemble(replicas=3, max_events=500)
    assert kernel.jit_enabled and len(calls) > 2
