"""Pin the reference payload digests of the ``paper-cold`` scenarios.

``paper-cold`` checks every scenario's payload, timing fields masked,
against ``reference_digests.json``.  Re-pin only for a change that is meant
to alter a scenario's numbers::

    python3 perfbench/pin_digests.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.environment import configure  # noqa: E402


def main() -> None:
    """Run the pinned scenarios cold and write their digests."""
    configure()
    from repro.scenarios import ScenarioRunner

    from perfbench.workloads import (DIGESTS_PATH, PINNED_SCENARIOS,
                                     scenario_digest)

    with tempfile.TemporaryDirectory() as cache_dir:
        runner = ScenarioRunner(cache_dir=cache_dir)
        digests = {name: scenario_digest(runner.run(name).payload_dict())
                   for name in PINNED_SCENARIOS}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"pinned {len(digests)} digests in {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
