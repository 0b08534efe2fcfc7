"""Result-store tests (JSON persistence + runner integration)."""

import dataclasses
import json

import pytest

from repro.config.presets import small_config
from repro.config.topology import Architecture, ReplicationPolicy
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import (
    SCHEMA_VERSION,
    ResultConflictError,
    ResultStore,
    key_fingerprint,
    result_from_dict,
    result_to_dict,
)


@pytest.fixture
def runner():
    return ExperimentRunner(base_gpu=small_config(num_channels=2,
                                                  warps_per_sm=4))


class TestFingerprint:
    def test_stable(self):
        assert key_fingerprint(RunKey("AN")) == key_fingerprint(RunKey("AN"))

    def test_distinguishes_configs(self):
        a = key_fingerprint(RunKey("AN"))
        b = key_fingerprint(RunKey("AN", Architecture.NUBA))
        c = key_fingerprint(RunKey("AN", noc_gbps=100.0))
        assert len({a, b, c}) == 3

    def test_filename_safe(self):
        fp = key_fingerprint(RunKey("2MM", Architecture.NUBA))
        assert "/" not in fp and " " not in fp

    def test_distinguishes_runner_settings(self):
        # mdr_epoch and max_cycles change results, so they must change
        # the fingerprint too.
        key = RunKey("AN")
        a = key_fingerprint(key, {"mdr_epoch": 2000,
                                  "max_cycles": 3_000_000})
        b = key_fingerprint(key, {"mdr_epoch": 500,
                                  "max_cycles": 3_000_000})
        c = key_fingerprint(key, {"mdr_epoch": 2000,
                                  "max_cycles": 1_000_000})
        d = key_fingerprint(key)
        assert len({a, b, c, d}) == 4

    def test_settings_order_irrelevant(self):
        key = RunKey("AN")
        a = key_fingerprint(key, {"mdr_epoch": 1, "max_cycles": 2})
        b = key_fingerprint(key, {"max_cycles": 2, "mdr_epoch": 1})
        assert a == b


class TestSerialization:
    def test_round_trip(self, runner):
        result = runner.run(RunKey("KMEANS"))
        data = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(data)
        assert restored.cycles == result.cycles
        assert restored.energy.total == pytest.approx(result.energy.total)
        assert restored.tracker == result.tracker

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_matches_asdict_in_key_order(self, runner, arch):
        # Store files and the pins in bench/expected.json hash this
        # dict: it must stay what dataclasses.asdict gave.
        result = runner.run(RunKey("AN", arch))
        expected = dataclasses.asdict(result)
        expected["_schema"] = SCHEMA_VERSION
        data = result_to_dict(result)
        assert data == expected
        assert json.dumps(data) == json.dumps(expected)  # key order too

    def test_schema_mismatch_rejected(self, runner):
        result = runner.run(RunKey("KMEANS"))
        data = result_to_dict(result)
        data["_schema"] = -1
        assert result_from_dict(data) is None


class TestStore:
    def test_save_and_load(self, runner, tmp_path):
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        result = runner.run(key)
        store.save(key, result)
        assert len(store) == 1
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.cycles == result.cycles

    def test_miss_on_unknown_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(RunKey("AN")) is None
        assert store.misses == 1

    def test_corrupt_file_treated_as_miss(self, runner, tmp_path):
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        store.save(key, runner.run(key))
        next(tmp_path.glob("*.json")).write_text("{not json")
        assert store.load(key) is None

    def test_clear(self, runner, tmp_path):
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        store.save(key, runner.run(key))
        store.clear()
        assert len(store) == 0

    def test_attach_avoids_resimulation(self, tmp_path):
        gpu = small_config(num_channels=2, warps_per_sm=4)
        key = RunKey("KMEANS", Architecture.NUBA,
                     replication=ReplicationPolicy.NONE)

        first = ExperimentRunner(base_gpu=gpu)
        store = ResultStore(tmp_path)
        store.attach(first)
        first.run(key)
        assert first.simulations_run == 1

        second = ExperimentRunner(base_gpu=gpu)
        store.attach(second)
        result = second.run(key)
        assert second.simulations_run == 0  # loaded from disk
        assert result.cycles > 0
        assert store.hits >= 1

    def test_save_leaves_no_temp_files(self, runner, tmp_path):
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        store.save(key, runner.run(key))
        store.save(key, runner.run(key))  # overwrite is atomic too
        assert len(list(tmp_path.glob("*.tmp"))) == 0
        assert len(store) == 1

    def test_truncated_entry_is_a_miss_then_healed(self, runner,
                                                   tmp_path):
        # A sweep killed mid-write used to leave a truncated JSON that
        # counted as a permanent miss; now corrupt entries are dropped
        # and the next save replaces them.
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        result = runner.run(key)
        store.save(key, result)
        path = next(tmp_path.glob("*.json"))
        path.write_text(path.read_text()[:20])  # simulate a cut write
        assert store.load(key) is None
        assert not path.exists()  # corrupt entry dropped
        store.save(key, result)
        assert store.load(key).cycles == result.cycles


class TestRunnerStoreIntegration:
    def test_constructor_store(self, tmp_path):
        gpu = small_config(num_channels=2, warps_per_sm=4)
        key = RunKey("KMEANS")
        first = ExperimentRunner(base_gpu=gpu,
                                 store=ResultStore(tmp_path))
        first.run(key)
        assert first.simulations_run == 1

        second = ExperimentRunner(base_gpu=gpu,
                                  store=ResultStore(tmp_path))
        result = second.run(key)
        assert second.simulations_run == 0
        assert result.cycles > 0

    def test_different_settings_not_shared(self, tmp_path):
        gpu = small_config(num_channels=2, warps_per_sm=4)
        key = RunKey("KMEANS", Architecture.NUBA,
                     replication=ReplicationPolicy.MDR)
        first = ExperimentRunner(base_gpu=gpu, mdr_epoch=2000,
                                 store=ResultStore(tmp_path))
        first.run(key)

        other = ExperimentRunner(base_gpu=gpu, mdr_epoch=500,
                                 store=ResultStore(tmp_path))
        other.run(key)
        assert other.simulations_run == 1  # no stale sharing

    def test_run_system_publishes_to_store(self, tmp_path):
        gpu = small_config(num_channels=2, warps_per_sm=4)
        key = RunKey("KMEANS")
        first = ExperimentRunner(base_gpu=gpu,
                                 store=ResultStore(tmp_path))
        system, result = first.run_system(key)
        assert first.simulations_run == 1
        # The RunResult half went through the cache path: run() hits.
        assert first.run(key) is not None
        assert first.simulations_run == 1
        # ...and so does a fresh runner on the same store.
        second = ExperimentRunner(base_gpu=gpu,
                                  store=ResultStore(tmp_path))
        assert second.run(key).cycles == result.cycles
        assert second.simulations_run == 0

    def test_run_system_repeated_uses_system_cache(self):
        gpu = small_config(num_channels=2, warps_per_sm=4)
        runner = ExperimentRunner(base_gpu=gpu)
        key = RunKey("KMEANS")
        system_a, _ = runner.run_system(key)
        system_b, _ = runner.run_system(key)
        assert system_a is system_b
        assert runner.simulations_run == 1


class TestConflicts:
    """Concurrent-writer semantics: equality, not last-writer-wins.

    Distributed sweeps make double-publishes routine (two shards into
    one store over NFS, a worker and the coordinator racing on the same
    point), so ``save`` must be an idempotent no-op for identical
    payloads and a hard error for divergent ones.
    """

    def test_identical_resave_is_noop(self, runner, tmp_path):
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        result = runner.run(key)
        store.save(key, result)
        before = next(tmp_path.glob("*.json")).stat().st_mtime_ns
        store.save(key, result)  # concurrent identical writer
        assert len(store) == 1
        assert next(tmp_path.glob("*.json")).stat().st_mtime_ns \
            == before  # no rewrite at all

    def test_divergent_resave_raises_and_preserves(self, runner,
                                                   tmp_path):
        import dataclasses
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        result = runner.run(key)
        store.save(key, result)
        divergent = dataclasses.replace(result,
                                        cycles=result.cycles + 1)
        with pytest.raises(ResultConflictError) as excinfo:
            store.save(key, divergent)
        assert excinfo.value.path.exists()
        # The first writer's entry survives untouched.
        assert store.load(key).cycles == result.cycles

    def test_corrupt_entry_is_overwritten(self, runner, tmp_path):
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        result = runner.run(key)
        store.save(key, result)
        path = next(tmp_path.glob("*.json"))
        path.write_text("{not json")
        store.save(key, result)  # heals, no conflict
        assert store.load(key).cycles == result.cycles

    def test_stale_schema_entry_is_overwritten(self, runner, tmp_path):
        store = ResultStore(tmp_path)
        key = RunKey("KMEANS")
        result = runner.run(key)
        store.save(key, result)
        path = next(tmp_path.glob("*.json"))
        stale = json.loads(path.read_text())
        stale["_schema"] = -1
        path.write_text(json.dumps(stale))
        store.save(key, result)  # old schema never conflicts
        assert store.load(key).cycles == result.cycles


class TestMaintenance:
    """stats/gc/sweep_tmp: the service-era upkeep surface."""

    def _seed(self, runner, tmp_path, *benches):
        store = ResultStore(tmp_path)
        for bench in benches:
            key = RunKey(bench)
            store.save(key, runner.run(key))
        return store

    def test_stats_counts_entries_and_bytes(self, runner, tmp_path):
        store = self._seed(runner, tmp_path, "KMEANS", "AN")
        store.load(RunKey("KMEANS"))
        store.load(RunKey("HISTO"))  # miss
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0

    def test_gc_ttl_evicts_only_old_entries(self, runner, tmp_path):
        import os
        import time as _time
        store = self._seed(runner, tmp_path, "KMEANS", "AN")
        old = _time.time() - 7200
        victim = next(tmp_path.glob("KMEANS*.json"))
        os.utime(victim, (old, old))
        outcome = store.gc(max_age_seconds=3600)
        assert outcome["evicted"] == 1
        assert outcome["entries"] == 1
        assert not victim.exists()
        assert store.evictions == 1
        assert store.load(RunKey("AN")) is not None

    def test_gc_lru_bound_keeps_recently_used(self, runner, tmp_path):
        import os
        import time as _time
        store = self._seed(runner, tmp_path, "KMEANS", "AN", "2MM")
        # Age all entries, then touch KMEANS through a load hit -- the
        # hit must bump its mtime so LRU eviction spares it.
        base = _time.time() - 1000
        for index, path in enumerate(sorted(tmp_path.glob("*.json"))):
            os.utime(path, (base + index, base + index))
        assert store.load(RunKey("KMEANS")) is not None
        outcome = store.gc(max_entries=1)
        assert outcome["evicted"] == 2
        assert store.load(RunKey("KMEANS")) is not None
        assert len(store) == 1

    def test_entries_lists_lru_first(self, runner, tmp_path):
        import os
        import time as _time
        store = self._seed(runner, tmp_path, "KMEANS", "AN")
        old = _time.time() - 500
        target = next(tmp_path.glob("AN*.json"))
        os.utime(target, (old, old))
        listing = store.entries()
        assert [len(listing), listing[0]["name"].startswith("AN")] \
            == [2, True]
        assert listing[0]["idle_seconds"] > listing[1]["idle_seconds"]

    def test_stale_tmp_swept_on_open(self, tmp_path):
        import os
        import time as _time
        stale = tmp_path / "KMEANS_x.deadbeef.tmp"
        stale.write_text('{"partial":')
        old = _time.time() - 3600
        os.utime(stale, (old, old))
        fresh = tmp_path / "AN_x.cafe.tmp"
        fresh.write_text('{"writing":')
        ResultStore(tmp_path)  # open sweeps stale temporaries
        assert not stale.exists()
        assert fresh.exists()  # inside the grace period: a live write

    def test_gc_sweeps_stale_tmp(self, tmp_path):
        import os
        import time as _time
        store = ResultStore(tmp_path)
        stale = tmp_path / "KMEANS_x.beef.tmp"
        stale.write_text("{")
        old = _time.time() - 3600
        os.utime(stale, (old, old))
        outcome = store.gc()
        assert outcome["tmp_swept"] == 1
        assert not stale.exists()

    def test_clear_sweeps_tmp_regardless_of_age(self, tmp_path):
        store = ResultStore(tmp_path)
        fresh = tmp_path / "AN_x.cafe.tmp"
        fresh.write_text("{")
        store.clear()
        assert not fresh.exists()

    def test_load_hit_bumps_mtime(self, runner, tmp_path):
        import os
        import time as _time
        store = self._seed(runner, tmp_path, "KMEANS")
        path = next(tmp_path.glob("*.json"))
        old = _time.time() - 900
        os.utime(path, (old, old))
        assert store.load(RunKey("KMEANS")) is not None
        assert _time.time() - path.stat().st_mtime < 60
