"""`fastlane.reset()` coverage: the reset registry actually restores a
cold start.

The lint framework's F002 rule enforces that every module-level
fast-lane memo registers a clearer; this suite proves the other half of
the contract -- that after toggling flags and running a point,
``reset()`` verifiably empties every registered cache (request pool,
interned warp bodies), the per-object caches (address-map route/bank
memos) flush with their owners, and a re-run from the reset
state is bit-identical.

Request ids come from a process-global counter, so each measured run
reseeds it (same reasoning as tests/test_fastlane_equivalence.py).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest

import repro.sim.request as request_mod
import repro.workloads.patterns as patterns
from repro.config.presets import small_config
from repro.config.topology import Architecture, ReplicationPolicy
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.sim import fastlane
from repro.workloads.suite import get_benchmark

KEY = RunKey("KMEANS", Architecture.NUBA,
             replication=ReplicationPolicy.MDR)

FLAG_NAMES = ("intern_bodies", "request_pool", "route_table")


def _run_point():
    """Run the reference point; returns (system, result, stats)."""
    request_mod._req_ids = itertools.count()
    fastlane.reset()
    runner = ExperimentRunner(
        base_gpu=small_config(num_channels=2), strict=False,
    )
    system = runner.build(KEY)
    workload = get_benchmark(KEY.benchmark).instantiate(system.gpu)
    result = system.run_workload(workload, max_cycles=runner.max_cycles)
    return system, asdict(result), system.stats_snapshot().as_dict()


@pytest.fixture
def restored_flags():
    saved = fastlane.FLAGS.snapshot()
    yield
    fastlane.FLAGS.restore(saved)
    fastlane.reset()


class TestResetEmptiesCaches:
    def test_registry_covers_every_flag(self):
        assert set(FLAG_NAMES) == set(fastlane.FLAGS.snapshot())

    def test_run_populates_then_reset_empties(self, restored_flags):
        fastlane.FLAGS.set_all(True)
        request_mod._req_ids = itertools.count()
        fastlane.reset()
        runner = ExperimentRunner(
            base_gpu=small_config(num_channels=2), strict=False,
        )
        system = runner.build(KEY)
        workload = get_benchmark(KEY.benchmark).instantiate(system.gpu)
        system.run_workload(workload, max_cycles=runner.max_cycles)

        # The run populated the process-wide registered caches...
        assert request_mod._pool, "request freelist never populated"
        assert patterns._mem_interned or patterns._compute_interned, \
            "warp-body intern table never populated"
        # ...and the per-object ones.
        assert (system.address_map._route_cache
                or system.address_map._bank_cache), \
            "no route/bank memo populated"

        # Toggle every flag off and reset: every registered cache must
        # be verifiably empty.
        fastlane.FLAGS.set_all(False)
        fastlane.reset()
        assert not request_mod._pool
        assert not patterns._mem_interned
        assert not patterns._compute_interned

        # Per-object caches die with their owners (that is why they are
        # not in the registry); their flush hooks must empty them too.
        system.address_map.flush_routes()
        assert not system.address_map._route_cache
        assert not system.address_map._bank_cache

    def test_reset_is_idempotent(self, restored_flags):
        fastlane.reset()
        fastlane.reset()
        assert not request_mod._pool
        assert not patterns._mem_interned


class TestRerunAfterResetBitIdentical:
    def test_back_to_back_runs_identical(self, restored_flags):
        fastlane.FLAGS.set_all(True)
        _, first_result, first_stats = _run_point()
        _, second_result, second_stats = _run_point()
        assert first_result == second_result
        assert first_stats == second_stats

    @pytest.mark.parametrize("flag", FLAG_NAMES)
    def test_toggling_each_flag_is_result_neutral(self, flag,
                                                  restored_flags):
        """Flip one flag off (reset in between): bit-identical result --
        stale cache state leaking across the toggle would show up
        here."""
        fastlane.FLAGS.set_all(True)
        _, base_result, base_stats = _run_point()
        setattr(fastlane.FLAGS, flag, False)
        _, toggled_result, toggled_stats = _run_point()
        assert toggled_result == base_result, flag
        assert toggled_stats == base_stats, flag
