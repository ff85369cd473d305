"""Set-up probe: one fresh interpreter brought to the point of running.

``run.py`` starts this script as a child process and times it from the
start until its one output line arrives; the line holds the child's own
split of that time::

    python3 perfbench/probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.environment import configure  # noqa: E402


def main() -> None:
    """Import, resolve the JIT backend, build the inputs, report, exit."""
    workload, seed = sys.argv[1], int(sys.argv[2])
    configure()
    started = time.perf_counter()
    from perfbench.workloads import WORKLOADS  # imports repro, numpy, scipy
    imported = time.perf_counter()
    from repro.montecarlo.jit import jit_backend

    jit_backend()
    resolved = time.perf_counter()
    WORKLOADS[workload].prepare(seed)
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - started,
                      "jit_resolve_s": resolved - imported,
                      "inputs_s": ready - resolved}), flush=True)


if __name__ == "__main__":
    main()
