"""Busy-path caches vs. their miss paths (docs/PERFORMANCE.md, "Busy-path
caches").

The simulator keeps three host-side caches on the busy path -- interned
warp bodies (``repro.workloads.patterns``), the ``MemoryRequest``
freelist (``repro.sim.request``) and the per-frame routing memos
(``repro.vm.address_map.AddressMap``).  They must be *result-neutral*:
a default run (caches live, quiescence engine) has to produce
field-identical results, stats snapshots and tracer event streams
compared to ``Simulator(strict=True)`` with every cache forced onto the
code it runs on a miss, which is the unoptimised reference path.

``strict=True`` alone is not that reference: a strict run uses the
caches too.  The plain path here is built inside the test, by making
each cache keep nothing (an empty freelist with a zero limit, intern
tables and route memos that drop every store), so every request comes
from the constructor, every instruction is built directly and every
route is computed by the formula.

Request ids come from a process-global counter that ends up in tracer
event args, so each measured run reseeds it (same reasoning as
tests/test_engine_quiescence.py).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest

import repro.sim.request as request_mod
import repro.workloads.patterns as patterns
from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
)
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.obs import Tracer
from repro.vm.address_map import AddressMap
from repro.workloads.suite import get_benchmark

CHANNELS = 2

#: One point per architecture the figure catalog exercises; the NUBA
#: rows cover both the plain partitioned path and the MDR machinery
#: (sampler, epochs, replica routing) the caches thread through.
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


class _KeepsNothing(dict):
    """A memo table that never stores: every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


def _force_miss_paths(monkeypatch: pytest.MonkeyPatch) -> None:
    """Put every busy-path cache on its miss path until the test ends."""
    monkeypatch.setattr(request_mod, "_pool", [])
    monkeypatch.setattr(request_mod, "_POOL_LIMIT", 0)
    monkeypatch.setattr(patterns, "_mem_interned", _KeepsNothing())
    monkeypatch.setattr(patterns, "_compute_interned", _KeepsNothing())
    original_init = AddressMap.__init__

    def init_without_memos(self, gpu) -> None:
        original_init(self, gpu)
        self._route_cache = _KeepsNothing()
        self._bank_cache = _KeepsNothing()

    monkeypatch.setattr(AddressMap, "__init__", init_without_memos)


def _run(key: RunKey, strict: bool):
    """Build and run one system; returns (result, stats, events, cycle,
    address map).

    Construction happens here, after the caller has chosen the cache
    paths, because the route memos are made with the address map.
    """
    request_mod._req_ids = itertools.count()
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
        system.address_map,
    )


@pytest.mark.parametrize("key", CONFIGS)
def test_fast_lane_is_bit_identical_to_plain_path(
        key: RunKey, monkeypatch: pytest.MonkeyPatch) -> None:
    """Default run == strict engine with every cache on its miss path."""
    fast = _run(key, strict=False)
    # The default run must actually have used each cache, or the
    # comparison proves nothing about them.
    assert request_mod._pool
    assert patterns._mem_interned and patterns._compute_interned
    assert fast[4]._route_cache and fast[4]._bank_cache

    _force_miss_paths(monkeypatch)
    plain = _run(key, strict=True)
    assert not request_mod._pool
    assert not patterns._mem_interned and not patterns._compute_interned
    assert not plain[4]._route_cache and not plain[4]._bank_cache

    f_result, f_stats, f_events, f_cycle, _ = fast
    p_result, p_stats, p_events, p_cycle, _ = plain
    assert f_cycle == p_cycle
    assert f_result == p_result
    assert f_stats == p_stats
    assert len(f_events) == len(p_events)
    assert f_events == p_events
