"""Digest of what a checkout simulates, for parent-vs-change checks.

    python benchmarks/equivalence_digest.py [--strict]

Run it from the root of each checkout (it puts that checkout's
``src/`` first on ``sys.path``) and diff the output. It runs KMEANS on
a 2-channel ``small_config`` under four configurations: memory-side
UBA and SM-side UBA (both with first-touch placement), and NUBA
without replication and with MDR. For each it prints the sha256 of the
run's ``RunResult`` fields, stats snapshot, full tracer event stream
and final cycle, plus the event count and final cycle. A change that
claims bit-identical results must print the same lines as its parent.
"""

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import asdict

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import repro.sim.request as request_mod  # noqa: E402
from repro.config.presets import small_config  # noqa: E402
from repro.config.topology import (  # noqa: E402
    Architecture,
    PagePolicy,
    ReplicationPolicy,
)
from repro.experiments.runner import ExperimentRunner, RunKey  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.workloads.suite import get_benchmark  # noqa: E402

CONFIGS = {
    "mem-side-uba": RunKey("KMEANS", Architecture.MEM_SIDE_UBA,
                           page_policy=PagePolicy.FIRST_TOUCH),
    "sm-side-uba": RunKey("KMEANS", Architecture.SM_SIDE_UBA,
                          page_policy=PagePolicy.FIRST_TOUCH),
    "nuba-norep": RunKey("KMEANS", Architecture.NUBA,
                         replication=ReplicationPolicy.NONE),
    "nuba-mdr": RunKey("KMEANS", Architecture.NUBA,
                       replication=ReplicationPolicy.MDR),
}


def digest(key: RunKey, strict: bool):
    """(sha256, event count, final cycle) of one traced run."""
    request_mod._req_ids = itertools.count()
    runner = ExperimentRunner(base_gpu=small_config(num_channels=2),
                              strict=strict)
    system = runner.build(key)
    tracer = Tracer.attach(system)
    workload = get_benchmark(key.benchmark).instantiate(system.gpu)
    result = system.run_workload(workload, max_cycles=runner.max_cycles)
    events = [[e.name, e.cat, e.track, e.cycle, e.dur,
               sorted(e.args.items())] for e in tracer.events]
    payload = [asdict(result), system.stats_snapshot().as_dict(), events,
               system.sim.cycle]
    text = json.dumps(payload, sort_keys=True, default=repr)
    return (hashlib.sha256(text.encode()).hexdigest(), len(events),
            system.sim.cycle)


def main() -> None:
    """Print one digest line per configuration."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--strict", action="store_true",
                        help="run with quiescence skipping disabled")
    args = parser.parse_args()
    for name, key in CONFIGS.items():
        sha, events, cycle = digest(key, args.strict)
        print(f"{name:<13} {sha} events={events} cycle={cycle}")


if __name__ == "__main__":
    main()
