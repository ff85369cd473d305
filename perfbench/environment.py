"""Process environment shared by every benchmark process.

:func:`configure` must run before NumPy is imported, because the BLAS reads
its thread count when it loads.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lives here, inside the checkout.
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: One BLAS thread: the load is a single closed-loop client on a 2-core
#: host, and a second BLAS thread would only contend with it.
BLAS_THREADS = "1"


def configure() -> Path:
    """Pin BLAS threads and the CPU, keep caches in the checkout, find ``repro``.

    Returns
    -------
    Path
        The scratch directory for temporary caches.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    # One CPU for the run and every process it starts, so that the host
    # speed calibrated between timed parts is that of the CPU doing them.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = WORK_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    # The compiled Monte-Carlo kernel is built once into the checkout, and
    # the scenario cache never falls back to the user's ~/.cache.
    os.environ["REPRO_JIT_CACHE_DIR"] = str(WORK_DIR / "jit")
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "scenarios")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return scratch
