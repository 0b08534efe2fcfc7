"""Regenerate ``bench/expected.json``: ``python -m bench.pin``.

Simulates every point of every pool once -- the 5 busy and 4 sleepy
points on the full ``small_config`` and all 116 fig7 points at
``--channels 4`` -- and pins the sha256 of each
``store.result_to_dict(result)`` (sorted keys). The benchmark checks
every point it runs against these pins. Re-pinning is a change to the
benchmark, made on its own.
"""

import json
import sys

from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import result_to_dict
from repro.orchestrator.orchestrator import SweepOrchestrator
from repro.orchestrator.sweep import Sweep

from bench.measure import EXPECTED_PATH, digest
from bench.pools import (
    BUSY_POOL,
    SLEEPY_POOL,
    fig7_gpu,
    fig7_pool,
    pin_id,
)


def main() -> int:
    """Simulate every pooled point and write the pins."""
    digests = {}
    runner = ExperimentRunner()
    for label, key in BUSY_POOL + SLEEPY_POOL:
        digests[pin_id("small", label)] = digest(
            result_to_dict(runner.run(key)))
    points = fig7_pool()
    report = SweepOrchestrator(
        ExperimentRunner(base_gpu=fig7_gpu()), workers=2,
    ).run(Sweep.of("fig7", points))
    for failure in report.failures:
        print(f"FAILED {failure.label}: {failure.error}", file=sys.stderr)
    if report.failures:
        return 1
    for label, key in points:
        digests[pin_id("ch4", label)] = digest(
            result_to_dict(report.results[key]))
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(digests)} points in {EXPECTED_PATH}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
