"""Host-speed calibration of timed work.

The benchmark's host is shared, and the speed it gives one process drifts:
on a 2-core Intel Xeon virtual machine the kernel below ran in 6 to 15 ms
over ten minutes, in phases of seconds to minutes.  A raw timing therefore
says as much about the neighbours as about the program.  Each timed part
is divided by the time of a fixed kernel measured right before and right
after it, and multiplied by :data:`REFERENCE_S`.  The result is the part's
time on a host that runs the kernel in :data:`REFERENCE_S` seconds.  The
kernel calls no ``repro`` code, so a change to the program moves the result
and a change of host speed does not.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time of the reference host: a 2-core Intel Xeon virtual machine
#: with NumPy 2.4 on Python 3.11, in its faster phases.
REFERENCE_S = 0.007


def _kernel() -> None:
    """Event selection as the Monte-Carlo loop does it: small NumPy calls
    driven from Python, with a random draw per step."""
    rng = np.random.default_rng(0)
    rates = rng.random(64)
    for _ in range(1500):
        cumulative = np.cumsum(rates)
        np.searchsorted(cumulative, rng.random() * cumulative[-1])


def kernel_s(repeats: int = 3) -> float:
    """Mean time of ``repeats`` runs of the kernel, in seconds.

    The mean, not the fastest run: a timed part lives through the host's
    slow moments too, and the mean tracks them.
    """
    started = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - started) / repeats


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at reference speed, from the kernel times around it."""
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
