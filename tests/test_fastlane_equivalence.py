"""Fast-lane vs. plain-path equivalence (docs/PERFORMANCE.md, "Busy path").

The busy-path fast lane (``repro.sim.fastlane``) -- TLB MRU front
caches, warp-body interning, the request freelist and precomputed
address routing -- must be *result-neutral*: a default run (fast lane
on, quiescence engine) has to produce field-identical results, stats
snapshots and tracer event streams compared to ``Simulator(strict=True)``
with every fast-lane flag off, which is the unoptimised reference path.

Request ids come from a process-global counter that ends up in tracer
event args, so each measured run reseeds it (same reasoning as
tests/test_engine_quiescence.py).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest

import repro.sim.request as request_mod
from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
)
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.obs import Tracer
from repro.sim import fastlane
from repro.workloads.suite import get_benchmark

CHANNELS = 2

#: One point per architecture the figure catalog exercises; the NUBA
#: rows cover both the plain partitioned path and the MDR machinery
#: (sampler, epochs, replica routing) the fast lane threads through.
CONFIGS = [
    pytest.param(
        RunKey("KMEANS", Architecture.MEM_SIDE_UBA,
               page_policy=PagePolicy.FIRST_TOUCH),
        id="mem-side-uba",
    ),
    pytest.param(
        RunKey("KMEANS", Architecture.SM_SIDE_UBA,
               page_policy=PagePolicy.FIRST_TOUCH),
        id="sm-side-uba",
    ),
    pytest.param(
        RunKey("KMEANS", Architecture.NUBA,
               replication=ReplicationPolicy.NONE),
        id="nuba-norep",
    ),
    pytest.param(
        RunKey("KMEANS", Architecture.NUBA,
               replication=ReplicationPolicy.MDR),
        id="nuba-mdr",
    ),
]


def _run(key: RunKey, strict: bool):
    """Build and run one system; returns (result, stats, events, cycle).

    The caller controls the fast-lane flags; construction happens here,
    inside whatever flag context is active, because several consumers
    snapshot a flag at construction time.
    """
    request_mod._req_ids = itertools.count()
    fastlane.reset()
    runner = ExperimentRunner(
        base_gpu=small_config(num_channels=CHANNELS), strict=strict,
    )
    system = runner.build(key)
    tracer = Tracer.attach(system)
    workload = get_benchmark(key.benchmark).instantiate(system.gpu)
    result = system.run_workload(workload, max_cycles=runner.max_cycles)
    events = [
        (e.name, e.cat, e.track, e.cycle, e.dur,
         tuple(sorted(e.args.items())))
        for e in tracer.events
    ]
    return (
        asdict(result),
        system.stats_snapshot().as_dict(),
        events,
        system.sim.cycle,
    )


@pytest.mark.parametrize("key", CONFIGS)
def test_fast_lane_is_bit_identical_to_plain_path(key: RunKey) -> None:
    """Default run == strict engine with every fast-lane flag off."""
    assert fastlane.FLAGS.snapshot() == {
        "tlb_mru": True, "intern_bodies": True,
        "request_pool": True, "route_table": True,
    }
    fast = _run(key, strict=False)
    with fastlane.disabled():
        plain = _run(key, strict=True)
    f_result, f_stats, f_events, f_cycle = fast
    p_result, p_stats, p_events, p_cycle = plain
    assert f_cycle == p_cycle
    assert f_result == p_result
    assert f_stats == p_stats
    assert len(f_events) == len(p_events)
    assert f_events == p_events


def test_disabled_context_restores_flags_and_clears_caches() -> None:
    """``disabled()`` must leave no trace: flags restored, caches
    (request pool, interned bodies) emptied on both entry and exit."""
    before = fastlane.FLAGS.snapshot()
    # Populate the request pool so the exit-side clear is observable.
    request = request_mod.acquire(request_mod.AccessKind.LOAD, 0, 0)
    request_mod.release(request)
    assert request_mod._pool
    with fastlane.disabled():
        assert not any(fastlane.FLAGS.snapshot().values())
        assert not request_mod._pool  # cleared on entry
        # With the pool flag off, released requests are not retained.
        inner = request_mod.acquire(request_mod.AccessKind.LOAD, 1, 0)
        request_mod.release(inner)
        assert not request_mod._pool
    assert fastlane.FLAGS.snapshot() == before
    assert not request_mod._pool  # cleared on exit
