"""The Monte-Carlo event loop: one advance function, three backends.

Every single-trajectory run of the kinetic Monte-Carlo kernel, and every
sequential ensemble run, executes in this module's advance loop: rate-table
lookup, cumulative-row event selection, configuration update (charge
transfer or trap flip), transfer and trap-flip accounting and time
accumulation, over the flat arrays exported by the kernel's
``_EnsembleCursor`` mirrors.

Backend ladder
--------------
Three interchangeable implementations of the same advance loop exist, picked
at first use (override with ``REPRO_JIT_BACKEND``):

``numba``
    :func:`numba.njit` with ``cache=True`` applied to the *same* Python
    source as the interpreted fallback, so the compiled artefact shares the
    tested control flow line for line.  Optional — the import is gated, not
    ``try/except``-ed at call sites.
``cc``
    A line-for-line C translation compiled on demand with the system C
    compiler (``cc``/``gcc``) into a per-source-hash shared library loaded
    through :mod:`ctypes`.  No third-party dependency; IEEE semantics are
    preserved (no ``-ffast-math``), which is what makes the seeded replay
    tests bit-exact.
``python``
    The interpreted loop itself.  Always available; slow, but the
    canonical source the other two are checked against, and the event loop
    of installs without a compiler.

:func:`jit_compiled` reports whether a *native* backend (numba or cc) is
active.  The ``montecarlo`` engine's cost model and the ``ensemble-jit``
engine's availability follow it, so ``select_engine`` adopts the compiled
ensemble only when the speedup is real.

Re-entry protocol
-----------------
The loop cannot call back into Python (for RNG block refills or lazy
successor linking), so it runs until it either finishes or needs the
driver, returning a status code:

========================  ====================================================
``STATUS_DONE``           budget exhausted (events or duration)
``STATUS_BLOCKED``        no event has a positive rate and no time budget
``STATUS_NEED_EXP``       the exponential block buffer is exhausted
``STATUS_NEED_UNIFORM``   the uniform block buffer is exhausted
``STATUS_NEED_LINK``      a (configuration, event) transition is unlinked
``STATUS_STEPPED``        one step finished in single-step mode
========================  ====================================================

All resumable state lives in two small register arrays (``ireg``/``freg``,
see the ``REG_*``/``FREG_*`` indices) so the driver can refill a buffer or
link a successor and re-enter mid-event.  Buffer refills happen exactly at
the consumption points, so every backend consumes the generator's stream
in the same order.  With ``REG_SINGLE_STEP`` set the loop returns after
every *step* (an executed, censored or blockaded attempt at an event):
how records, occupation statistics and :meth:`MonteCarloKernel.step`
observe it.  Columns from ``REG_TRAP_START`` on flip a charge trap.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Status codes returned by every backend's advance loop.
STATUS_DONE = 0
STATUS_BLOCKED = 1
STATUS_NEED_EXP = 2
STATUS_NEED_UNIFORM = 3
STATUS_NEED_LINK = 4
STATUS_STEPPED = 5

#: ``ireg`` (int64) register layout shared by all backends.
REG_SLOT = 0            #: current cursor slot
REG_EVENTS = 1          #: events executed this run
REG_EXP_POS = 2         #: read position in the exponential block buffer
REG_UNI_POS = 3         #: read position in the uniform block buffer
REG_PENDING_EVENT = 4   #: selected-but-unapplied event index (-1: none)
REG_STALLS = 5          #: consecutive steps without an event
REG_LAST_EVENT = 6      #: index of the last executed event (-1: none)
REG_TRAP_START = 7      #: first trap-flip column (input)
REG_TRAP_FLIPS = 8      #: trap flips executed this run
REG_SINGLE_STEP = 9     #: 1: return STATUS_STEPPED after every step (input)
IREG_SIZE = 10

#: ``freg`` (float64) register layout shared by all backends.
FREG_TIME = 0           #: simulated clock
FREG_PENDING_WAIT = 1   #: drawn-but-unapplied waiting time (-1.0: none)
FREG_START = 2          #: clock value at run start
FREG_DURATION = 3       #: time budget (+inf: unbounded)
FREG_LAST_WAIT = 4      #: waiting time of the last executed event
FREG_SIZE = 5

#: Recognised ``REPRO_JIT_BACKEND`` values.
BACKEND_NUMBA = "numba"
BACKEND_CC = "cc"
BACKEND_PYTHON = "python"
_BACKENDS = (BACKEND_NUMBA, BACKEND_CC, BACKEND_PYTHON)

_ENV_BACKEND = "REPRO_JIT_BACKEND"
_ENV_CACHE_DIR = "REPRO_JIT_CACHE_DIR"

_INF = float("inf")


def _advance_py(totals, cumulative, last_selectable, successor_slots,
                transfer_matrix, transfers, exp_buf, uni_buf,
                ireg, freg, max_events):
    """Advance the trajectory until done or the driver is needed.

    One call executes as many events as the register state, the random
    block buffers and the linked successor matrix allow (one step in
    single-step mode), mutating ``transfers``/``ireg``/``freg`` in place
    and returning a ``STATUS_*`` code.  This is the canonical
    implementation: the numba backend compiles exactly this function and
    the C backend is its line-for-line translation, so all three consume
    the random stream identically.
    """
    n_events = cumulative.shape[1]
    n_junctions = transfer_matrix.shape[1]
    slot = ireg[REG_SLOT]
    events = ireg[REG_EVENTS]
    exp_pos = ireg[REG_EXP_POS]
    uni_pos = ireg[REG_UNI_POS]
    pending_event = ireg[REG_PENDING_EVENT]
    stalls = ireg[REG_STALLS]
    last_event = ireg[REG_LAST_EVENT]
    trap_start = ireg[REG_TRAP_START]
    trap_flips = ireg[REG_TRAP_FLIPS]
    single_step = ireg[REG_SINGLE_STEP] != 0
    time = freg[FREG_TIME]
    wait = freg[FREG_PENDING_WAIT]
    start = freg[FREG_START]
    duration = freg[FREG_DURATION]
    last_wait = freg[FREG_LAST_WAIT]
    exp_len = exp_buf.shape[0]
    uni_len = uni_buf.shape[0]
    bounded = duration < _INF
    status = STATUS_DONE
    while True:
        if wait < 0.0:
            # Start a new step: budget checks, stall limit, blockade
            # handling, waiting time.
            if events >= max_events:
                status = STATUS_DONE
                break
            if bounded and time - start >= duration:
                status = STATUS_DONE
                break
            if stalls > 3:
                # Several steps in a row without an event: blockaded at
                # T = 0 with no time budget to burn, or a remaining budget
                # that rounds to nothing.
                status = STATUS_DONE if bounded else STATUS_BLOCKED
                break
            total = totals[slot]
            if total <= 0.0:
                # Blockaded: burn the remaining budget, apply nothing.
                if bounded:
                    remaining = duration - (time - start)
                    time = time + remaining
                stalls += 1
                if single_step:
                    status = STATUS_STEPPED
                    break
                continue
            if exp_pos >= exp_len:
                status = STATUS_NEED_EXP
                break
            wait = exp_buf[exp_pos] / total
            exp_pos += 1
            if bounded:
                remaining = duration - (time - start)
                if wait > remaining:
                    # Censored: burn the remaining budget, apply nothing.
                    time = time + remaining
                    wait = -1.0
                    stalls += 1
                    if single_step:
                        status = STATUS_STEPPED
                        break
                    continue
        if pending_event < 0:
            if uni_pos >= uni_len:
                status = STATUS_NEED_UNIFORM
                break
            threshold = uni_buf[uni_pos] * totals[slot]
            uni_pos += 1
            # count(cumulative <= threshold) over the non-decreasing row is
            # exactly searchsorted(..., side="right"), clamped to the last
            # positive-rate event.
            index = 0
            while index < n_events and cumulative[slot, index] <= threshold:
                index += 1
            last = last_selectable[slot]
            if index > last:
                index = last
        else:
            index = pending_event
            pending_event = -1
        successor = successor_slots[slot, index]
        if successor < 0:
            pending_event = index
            status = STATUS_NEED_LINK
            break
        time = time + wait
        for junction in range(n_junctions):
            transfers[junction] = transfers[junction] \
                + transfer_matrix[index, junction]
        if index >= trap_start:
            trap_flips += 1
        slot = successor
        events += 1
        stalls = 0
        last_event = index
        last_wait = wait
        wait = -1.0
        if single_step:
            status = STATUS_STEPPED
            break
    ireg[REG_SLOT] = slot
    ireg[REG_EVENTS] = events
    ireg[REG_EXP_POS] = exp_pos
    ireg[REG_UNI_POS] = uni_pos
    ireg[REG_PENDING_EVENT] = pending_event
    ireg[REG_STALLS] = stalls
    ireg[REG_LAST_EVENT] = last_event
    ireg[REG_TRAP_FLIPS] = trap_flips
    freg[FREG_TIME] = time
    freg[FREG_PENDING_WAIT] = wait
    freg[FREG_LAST_WAIT] = last_wait
    return status


# ----------------------------------------------------------------- C backend

#: Line-for-line C translation of :func:`_advance_py`.  Compiled without any
#: fast-math flag: IEEE double semantics must match numpy scalar arithmetic
#: exactly for the seeded replay tests to hold bit for bit.
_C_SOURCE = r"""
#include <math.h>

long long repro_mc_advance(
    const double *totals,
    const double *cumulative,
    const long long *last_selectable,
    const long long *successor_slots,
    const double *transfer_matrix,
    double *transfers,
    const double *exp_buf, long long exp_len,
    const double *uni_buf, long long uni_len,
    long long *ireg, double *freg,
    long long max_events, long long n_events, long long n_junctions)
{
    long long slot = ireg[0];
    long long events = ireg[1];
    long long exp_pos = ireg[2];
    long long uni_pos = ireg[3];
    long long pending_event = ireg[4];
    long long stalls = ireg[5];
    long long last_event = ireg[6];
    long long trap_start = ireg[7];
    long long trap_flips = ireg[8];
    int single_step = ireg[9] != 0;
    double time = freg[0];
    double wait = freg[1];
    double start = freg[2];
    double duration = freg[3];
    double last_wait = freg[4];
    int bounded = isfinite(duration);
    long long status = 0;  /* DONE */
    for (;;) {
        if (wait < 0.0) {
            if (events >= max_events) { status = 0; break; }
            if (bounded && time - start >= duration) { status = 0; break; }
            if (stalls > 3) {
                status = bounded ? 0 : 1;  /* DONE : BLOCKED */
                break;
            }
            double total = totals[slot];
            if (total <= 0.0) {
                if (bounded) {
                    double remaining = duration - (time - start);
                    time = time + remaining;
                }
                stalls += 1;
                if (single_step) { status = 5; break; }  /* STEPPED */
                continue;
            }
            if (exp_pos >= exp_len) { status = 2; break; }  /* NEED_EXP */
            wait = exp_buf[exp_pos] / total;
            exp_pos += 1;
            if (bounded) {
                double remaining = duration - (time - start);
                if (wait > remaining) {
                    time = time + remaining;
                    wait = -1.0;
                    stalls += 1;
                    if (single_step) { status = 5; break; }  /* STEPPED */
                    continue;
                }
            }
        }
        long long index;
        if (pending_event < 0) {
            if (uni_pos >= uni_len) { status = 3; break; }  /* NEED_UNIFORM */
            double threshold = uni_buf[uni_pos] * totals[slot];
            uni_pos += 1;
            const double *row = cumulative + slot * n_events;
            index = 0;
            while (index < n_events && row[index] <= threshold) index += 1;
            long long last = last_selectable[slot];
            if (index > last) index = last;
        } else {
            index = pending_event;
            pending_event = -1;
        }
        long long successor = successor_slots[slot * n_events + index];
        if (successor < 0) {
            pending_event = index;
            status = 4;  /* NEED_LINK */
            break;
        }
        time = time + wait;
        const double *transfer_row = transfer_matrix + index * n_junctions;
        for (long long junction = 0; junction < n_junctions; junction++)
            transfers[junction] = transfers[junction]
                + transfer_row[junction];
        if (index >= trap_start) trap_flips += 1;
        slot = successor;
        events += 1;
        stalls = 0;
        last_event = index;
        last_wait = wait;
        wait = -1.0;
        if (single_step) { status = 5; break; }  /* STEPPED */
    }
    ireg[0] = slot;
    ireg[1] = events;
    ireg[2] = exp_pos;
    ireg[3] = uni_pos;
    ireg[4] = pending_event;
    ireg[5] = stalls;
    ireg[6] = last_event;
    ireg[8] = trap_flips;
    freg[0] = time;
    freg[1] = wait;
    freg[4] = last_wait;
    return status;
}
"""


def _cc_cache_dir() -> Path:
    """Directory holding compiled shared libraries, keyed by source hash."""
    override = os.environ.get(_ENV_CACHE_DIR)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-jit"


def _find_compiler() -> Optional[str]:
    """The system C compiler to use, or ``None`` when none is on PATH."""
    import shutil

    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile_cc_library() -> Optional[Path]:
    """Compile (or reuse) the shared library of the C advance loop.

    Returns the library path, or ``None`` when no compiler is available or
    the build fails — the caller then falls through to the next backend.
    """
    compiler = _find_compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    for directory in (_cc_cache_dir(), Path(tempfile.gettempdir()) / "repro-jit"):
        library = directory / f"mc_advance_{digest}.so"
        if library.exists():
            return library
        try:
            directory.mkdir(parents=True, exist_ok=True)
            source = directory / f"mc_advance_{digest}.c"
            source.write_text(_C_SOURCE)
            scratch = directory / f".mc_advance_{digest}.{os.getpid()}.so"
            subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", "-o", str(scratch),
                 str(source), "-lm"],
                check=True, capture_output=True, timeout=120)
            os.replace(scratch, library)  # atomic against concurrent builds
            return library
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def _load_cc_advance() -> Optional[Callable]:
    """Build, load, and wrap the C backend; ``None`` on any failure."""
    library_path = _compile_cc_library()
    if library_path is None:
        return None
    try:
        library = ctypes.CDLL(str(library_path))
        native = library.repro_mc_advance
    except (OSError, AttributeError):
        return None
    # Pointer arguments are raw addresses, with no dtype: callers must pass
    # C-contiguous float64/int64 arrays exactly as the kernel builds them.
    # ``arr.ctypes.data`` costs about as much as the native call, so each
    # thread reuses the addresses of the arrays its previous call passed
    # (holding them keeps the addresses valid).
    pointer = ctypes.c_void_p
    int64 = ctypes.c_longlong
    native.restype = int64
    native.argtypes = [pointer, pointer, pointer, pointer, pointer,
                       pointer, pointer, int64, pointer, int64,
                       pointer, pointer, int64, int64, int64]
    local = threading.local()

    def advance(totals, cumulative, last_selectable, successor_slots,
                transfer_matrix, transfers, exp_buf, uni_buf,
                ireg, freg, max_events):
        """ctypes shim matching :func:`_advance_py`'s signature."""
        arrays = (totals, cumulative, last_selectable, successor_slots,
                  transfer_matrix, transfers, exp_buf, uni_buf, ireg, freg)
        previous = getattr(local, "arrays", None)
        if previous is None:
            previous = local.arrays = [None] * len(arrays)
            local.addresses = [0] * len(arrays)
        addresses = local.addresses
        for position, array in enumerate(arrays):
            if array is not previous[position]:
                previous[position] = array
                addresses[position] = array.ctypes.data
        return native(
            addresses[0], addresses[1], addresses[2], addresses[3],
            addresses[4], addresses[5],
            addresses[6], exp_buf.shape[0],
            addresses[7], uni_buf.shape[0],
            addresses[8], addresses[9],
            max_events, cumulative.shape[1], transfer_matrix.shape[1])

    return advance


def _load_numba_advance() -> Optional[Callable]:
    """Compile :func:`_advance_py` with numba; ``None`` when unavailable."""
    try:
        import numba
    except ImportError:
        return None
    try:
        return numba.njit(cache=True)(_advance_py)
    except Exception:  # pragma: no cover - defensive against numba quirks
        return None


# -------------------------------------------------------- backend resolution

_LOADERS: Dict[str, Callable[[], Optional[Callable]]] = {
    BACKEND_NUMBA: _load_numba_advance,
    BACKEND_CC: _load_cc_advance,
    BACKEND_PYTHON: lambda: _advance_py,
}

#: Resolved ``(name, callable)`` per requested backend (``None`` key = auto).
_resolved: Dict[Optional[str], Tuple[str, Callable]] = {}


def resolve_advance(backend: Optional[str] = None) -> Tuple[str, Callable]:
    """The advance loop of ``backend`` (default: the best available).

    Resolution order for the default request is numba, then the C backend,
    then the interpreted Python loop (which always succeeds), overridable
    globally through ``$REPRO_JIT_BACKEND``.  Results are cached per
    process, so repeated kernels share one compiled artefact.

    Parameters
    ----------
    backend:
        One of ``"numba"``, ``"cc"``, ``"python"``, or ``None`` for the
        environment-resolved default.

    Returns
    -------
    (name, callable):
        The backend that actually loaded and its advance function.

    Raises
    ------
    repro.errors.SimulationError
        For an unknown backend name, or when an explicitly requested
        native backend cannot be loaded.
    """
    from ..errors import SimulationError

    cached = _resolved.get(backend)
    if cached is not None:
        return cached
    request = backend
    if request is None:
        request = os.environ.get(_ENV_BACKEND) or None
    if request is not None and request not in _BACKENDS:
        raise SimulationError(
            f"unknown jit backend {request!r}; choose from {_BACKENDS}")
    candidates = (request,) if request is not None else (
        BACKEND_NUMBA, BACKEND_CC, BACKEND_PYTHON)
    for name in candidates:
        advance = _LOADERS[name]()
        if advance is not None:
            if request is None and name == BACKEND_PYTHON:
                # Auto-resolution exhausted every native backend: record the
                # degradation so operators see why the JIT engines are slow.
                from ..resilience.events import emit_degradation

                emit_degradation("jit.run_compiled", "fallback:python",
                                 "no native advance backend (numba/cc) "
                                 "could be loaded")
            _resolved[backend] = (name, advance)
            return name, advance
    raise SimulationError(
        f"jit backend {request!r} is not available in this environment "
        "(set REPRO_JIT_BACKEND=python for the interpreted fallback)")


def jit_backend() -> str:
    """Name of the advance-loop backend the default resolution picks."""
    return resolve_advance()[0]


def jit_compiled() -> bool:
    """Whether a *native* (numba or C) advance loop is active.

    Every kernel runs its events in the advance loop whatever the backend;
    this only says whether that loop is compiled.  The ``montecarlo``
    engine prices its points by it, and the ``ensemble-jit`` engine reports
    it as its availability: with only the interpreted loop on offer that
    engine still works but advertises ``available=False`` so
    capability-based selection keeps preferring the lockstep numpy
    ensemble.
    """
    try:
        return jit_backend() != BACKEND_PYTHON
    except Exception:
        return False


def clear_backend_cache() -> None:
    """Forget resolved backends (tests flip ``REPRO_JIT_BACKEND`` at runtime)."""
    _resolved.clear()


__all__ = [
    "BACKEND_CC",
    "BACKEND_NUMBA",
    "BACKEND_PYTHON",
    "FREG_DURATION",
    "FREG_LAST_WAIT",
    "FREG_PENDING_WAIT",
    "FREG_SIZE",
    "FREG_START",
    "FREG_TIME",
    "IREG_SIZE",
    "REG_EVENTS",
    "REG_EXP_POS",
    "REG_LAST_EVENT",
    "REG_PENDING_EVENT",
    "REG_SINGLE_STEP",
    "REG_SLOT",
    "REG_STALLS",
    "REG_TRAP_FLIPS",
    "REG_TRAP_START",
    "REG_UNI_POS",
    "STATUS_BLOCKED",
    "STATUS_DONE",
    "STATUS_NEED_EXP",
    "STATUS_NEED_LINK",
    "STATUS_NEED_UNIFORM",
    "STATUS_STEPPED",
    "clear_backend_cache",
    "jit_backend",
    "jit_compiled",
    "resolve_advance",
]
