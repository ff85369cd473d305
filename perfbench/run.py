"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``README.md`` in this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.environment import BLAS_THREADS, ROOT, WORK_DIR, configure  # noqa: E402

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Fresh interpreters started per run to measure set-up.
SETUP_PROBES = 7

PROBE = Path(__file__).resolve().parent / "probe.py"


class SetupProbes:
    """Set-up time of fresh interpreters, sampled at even steps of the run.

    Spreading the probes over the run, instead of starting them back to
    back, keeps one slow phase of the host from covering all of them.  Each
    probe is calibrated like a timed part (see ``calibration.py``).
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.command = [sys.executable, str(PROBE), workload, str(seed)]
        self.calibrated: List[float] = []
        self.phases: List[Dict[str, float]] = []

    def _probe(self) -> None:
        from perfbench import calibration

        before = calibration.kernel_s()
        started = time.perf_counter()
        with subprocess.Popen(self.command, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - started
            child.stdout.read()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        self.calibrated.append(
            calibration.scale(wall, before, calibration.kernel_s()))
        self.phases.append(json.loads(line))

    def due(self, fraction: float) -> None:
        """Probe until ``fraction`` of the probes (of the run) are done."""
        while len(self.calibrated) < SETUP_PROBES \
                and len(self.calibrated) <= fraction * SETUP_PROBES:
            self._probe()

    def result(self) -> Tuple[float, Dict[str, float]]:
        """The median calibrated set-up, and the raw phases of that probe."""
        self.due(1.0)
        order = sorted(range(SETUP_PROBES), key=self.calibrated.__getitem__)
        middle = order[SETUP_PROBES // 2]
        return self.calibrated[middle], self.phases[middle]


def iterate(workload, inputs, scratch: Path):
    """One iteration into a fresh cache directory, removed afterwards."""
    gc.collect()
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    try:
        return workload.iterate(inputs, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def measure(seconds: float, probes: SetupProbes,
            step: Callable[[], None]) -> None:
    """Closed loop, one client: repeat ``step`` while another fits in time.

    The set-up probes run at even steps of the same ``seconds``.
    """
    started = time.perf_counter()
    last = 0.0
    while True:
        probes.due((time.perf_counter() - started) / seconds)
        before = time.perf_counter()
        if last and before - started + last > seconds:
            return
        step()
        last = time.perf_counter() - before


def typical_s(iterations: List[Any]) -> float:
    """The run's time: the median calibrated iteration."""
    return statistics.median(iteration.calibrated_s
                             for iteration in iterations)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine() -> Dict[str, Any]:
    """What the numbers were measured on."""
    import numpy
    import scipy
    from repro.montecarlo.jit import jit_backend

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "jit_backend": jit_backend(),
        "git_sha": git_sha(),
    }


def traced_run(workload, inputs, scratch: Path, seconds: float,
               probes: SetupProbes, spans_path: Path
               ) -> Tuple[List[Any], List[Any], Dict[str, float]]:
    """A ``--trace 1`` run: untraced and traced iterations, alternating.

    Alternating lets both kinds sample the same phases of the host, so
    ``trace.overhead_fraction`` compares like with like.  Returns the
    untraced and the traced iterations and the per-layer metrics.
    """
    from perfbench import layers
    from perfbench.spans import Recorder

    recorder = Recorder()
    totals = layers.LayerTotals()
    cache_bytes = layers.CacheBytes()
    untraced: List[Any] = []
    traced: List[Any] = []
    last_spans: List[Any] = []

    def step() -> None:
        untraced.append(iterate(workload, inputs, scratch))
        with recorder.installed(lambda r: layers.install(r, cache_bytes)):
            traced.append(iterate(workload, inputs, scratch))
        last_spans[:] = recorder.drain()
        totals.add(last_spans)

    measure(seconds, probes, step)
    stats: Dict[str, int] = {}
    for cache in cache_bytes.caches.values():
        for key, value in cache.stats().items():
            stats[key] = stats.get(key, 0) + value
    metrics = layers.layer_metrics(
        totals, len(traced), stats, probes.result()[1],
        typical_s(traced) / typical_s(untraced) - 1.0,
        sum(iteration.wall_s for iteration in traced))
    spans_path.write_text(json.dumps(
        [[span.name, span.start, span.end, span.parent]
         for span in last_spans]))
    return untraced, traced, metrics


def main(argv=None) -> int:
    """Parse arguments, run the workload, print metrics; 0 on success."""
    scratch = configure()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    from repro.montecarlo.jit import jit_backend

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Build the compiled kernel before any timing, so that no compile lands
    # in a probe's set-up time.
    jit_backend()
    probes = SetupProbes(args.workload, args.seed)

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    # One untimed iteration lets lazy imports and in-process tables fill.
    iterations = [iterate(workload, inputs, scratch)]
    if args.trace:
        spans_path = WORK_DIR / f"spans-{args.workload}.json"
        untraced, traced, layer_values = traced_run(
            workload, inputs, scratch, args.seconds, probes, spans_path)
        iterations += untraced + traced
    else:
        untraced = []
        measure(args.seconds, probes,
                lambda: untraced.append(iterate(workload, inputs, scratch)))
        iterations += untraced

    attempted = sum(iteration.attempted for iteration in iterations)
    failed = sum(iteration.failed for iteration in iterations)
    for problem in sorted({p for it in iterations for p in it.problems}):
        print(f"check failed: {problem}")
    print("machine " + json.dumps(machine(), sort_keys=True))

    if args.trace:
        from perfbench.layers import PER_LAYER

        spec = [(name, unit) for name, unit, _ in PER_LAYER]
        values = layer_values
        print(f"spans of the last traced iteration: {spans_path}")
    else:
        wall_s = typical_s(untraced)
        values = {
            "setup_s": probes.result()[0],
            "wall_s": wall_s,
            "points_per_s": inputs["units"] / wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        spec = [(name, unit) for name, unit, _ in END_TO_END]
        raw_s = statistics.median(it.wall_s for it in untraced)
        print(f"iterations {len(untraced)} timed + 1 warm-up; "
              f"{inputs['units']} {workload.unit}s per iteration; "
              f"median raw wall {raw_s:.6g} s, host at "
              f"{raw_s / wall_s:.3g}x the reference time")
    for name, unit in spec:
        print(f"{name:<40} {values[name]:.6g} {unit}")
    print(f"{'failed_fraction':<40} {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
