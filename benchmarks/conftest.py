"""Shared helpers for the experiment benchmarks.

Each benchmark file regenerates the rows behind one quantitative claim of the
paper (experiments E1-E10 in DESIGN.md / EXPERIMENTS.md), prints them, and
asserts the qualitative shape of the result — who wins, by roughly what
factor, where thresholds fall.  Run them with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
import platform
import subprocess
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.devices import SETTransistor

REPO_ROOT = Path(__file__).resolve().parent.parent


def standard_transistor() -> SETTransistor:
    """The reference SET used by most experiments (1 aF, 2 aF gate, 1 Mohm)."""
    return SETTransistor(junction_capacitance=1e-18, gate_capacitance=2e-18,
                         junction_resistance=1e6)


@pytest.fixture
def transistor() -> SETTransistor:
    """Reference SET device fixture."""
    return standard_transistor()


def print_experiment_header(identifier: str, claim: str) -> None:
    """Uniform banner so benchmark output reads like EXPERIMENTS.md."""
    print()
    print("=" * 78)
    print(f"{identifier}: {claim}")
    print("=" * 78)


@contextmanager
def advance_backend(name: str):
    """Kernels built inside the block run the advance loop on ``name``.

    A kernel resolves its backend when it is built, so a simulator built
    here keeps the backend after the block restores ``REPRO_JIT_BACKEND``.
    """
    from repro.montecarlo.jit import clear_backend_cache

    previous = os.environ.get("REPRO_JIT_BACKEND")
    os.environ["REPRO_JIT_BACKEND"] = name
    clear_backend_cache()
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_JIT_BACKEND"]
        else:
            os.environ["REPRO_JIT_BACKEND"] = previous
        clear_backend_cache()


def machine() -> dict:
    """What a benchmark payload was measured on."""
    import numpy

    from repro.montecarlo.jit import jit_backend

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jit_backend": jit_backend(),
        "git_sha": sha,
    }
