"""Backend-conformance suite for the executor protocol.

Every backend (inline, local pool, sharded, remote service) plugs into
the same :class:`~repro.orchestrator.orchestrator.SweepOrchestrator`
loop, so every backend must honor the same semantics: bitwise parity
with the serial path, resume from a partial store, bounded retry with
``attempts == retries + 1``, and cooperative cancellation mid-sweep.
The parametrized tests here enforce exactly that; backend-specific
behaviour (shard partitioning, remote backpressure and degradation)
gets its own classes below.
"""

import contextlib
import dataclasses
import hashlib
import threading

import pytest

from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import ResultStore, key_fingerprint
from repro.orchestrator import (
    BackendError,
    Backpressure,
    Completion,
    ExecutorBackend,
    ProgressReporter,
    ShardedExecutor,
    RemoteExecutor,
    Sweep,
    SweepOrchestrator,
    shard_of,
)
from repro.core.system import RunResult
from repro.power.energy import EnergyBreakdown
from repro.service import JobManager, ServiceClient, ServiceServer
from repro.service import manager as manager_module

from tests.test_orchestrator import (
    TINY_SWEEP_KEYS,
    make_runner,
    tiny_gpu,
    tiny_sweep,
)

BACKEND_KINDS = ["inline", "pool", "sharded", "remote"]

RETRY_SWEEP_KEYS = [RunKey("KMEANS"), RunKey("NOPE")]


@contextlib.contextmanager
def backend_env(kind, store_dir, **orchestrator_kwargs):
    """Yield a factory building orchestrators for one backend kind.

    Every orchestrator from one env shares the same store directory, so
    multi-run tests (resume, merge) see each other's published results.
    The remote env spins up a real in-process HTTP service whose runner
    shares the same store dir -- which also exercises the store's
    save-time equality check when both sides publish the same point.
    """
    server = None

    def factory(**overrides):
        kwargs = dict(orchestrator_kwargs)
        kwargs.update(overrides)
        kwargs.setdefault("backoff", 0.0)
        runner = make_runner(store_dir)
        if kind == "inline":
            return SweepOrchestrator(runner, workers=1, **kwargs)
        if kind == "pool":
            return SweepOrchestrator(runner, workers=2, **kwargs)
        if kind == "sharded":
            # One shard of one: accepts every key, delegates inline.
            return SweepOrchestrator(runner, workers=1,
                                     backend=ShardedExecutor(0, 1),
                                     **kwargs)
        if kind == "remote":
            backend = RemoteExecutor([server.url], steal_after=None,
                                     poll_interval=0.05)
            return SweepOrchestrator(runner, workers=2, backend=backend,
                                     **kwargs)
        raise AssertionError(f"unknown backend kind {kind}")

    if kind == "remote":
        manager = JobManager(make_runner(store_dir), workers=2,
                             retries=0, backoff=0.0, queue_limit=64)
        server = ServiceServer(manager, port=0).start()
        try:
            yield factory
        finally:
            server.stop()
    else:
        yield factory


def serial_reference():
    """Serial, storeless results for the tiny sweep: the parity oracle."""
    runner = make_runner()
    return {key: runner.run(key) for key in TINY_SWEEP_KEYS}


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestConformance:
    def test_parity_with_serial(self, kind, tmp_path):
        with backend_env(kind, tmp_path / "store") as factory:
            report = factory().run(tiny_sweep())
        assert report.ok
        assert report.simulated == 3
        assert not report.mode.endswith("+inline")
        reference = serial_reference()
        assert set(report.results) == set(reference)
        for key, expected in reference.items():
            assert dataclasses.asdict(report.results[key]) == \
                dataclasses.asdict(expected)

    def test_resume_from_partial_store(self, kind, tmp_path):
        store_dir = tmp_path / "store"
        seeded = make_runner(store_dir)
        seeded.run(TINY_SWEEP_KEYS[0])
        with backend_env(kind, store_dir) as factory:
            report = factory().run(tiny_sweep())
        assert report.ok
        assert report.cache_hits == 1
        assert report.simulated == 2
        assert set(report.results) == set(TINY_SWEEP_KEYS)

    def test_bounded_retry_isolates_failures(self, kind, tmp_path):
        sweep = Sweep.of("mixed", RETRY_SWEEP_KEYS)
        with backend_env(kind, tmp_path / "store") as factory:
            report = factory(retries=1).run(sweep)
        assert RunKey("KMEANS") in report.results
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.key == RunKey("NOPE")
        assert failure.attempts == 2  # retries + 1
        assert report.retries == 1

    def test_cancel_mid_sweep(self, kind, tmp_path):
        stop = threading.Event()
        progress = ProgressReporter(
            stream=None,
            on_event=lambda event: (
                stop.set() if event["type"] == "point_done" else None
            ),
        )
        with backend_env(kind, tmp_path / "store") as factory:
            orchestrator = factory(progress=progress, stop=stop)
            report = orchestrator.run(tiny_sweep())
        assert report.cancelled
        assert len(report.results) < 3
        # What completed before the abort was still published: a rerun
        # resumes from the store instead of resimulating it.
        with backend_env(kind, tmp_path / "store") as factory:
            rerun = factory().run(tiny_sweep())
        assert rerun.ok and not rerun.cancelled
        assert rerun.cache_hits >= len(report.results)
        assert set(rerun.results) == set(TINY_SWEEP_KEYS)


class TestSharding:
    def test_shard_of_is_pinned(self):
        # Literal expectations: the partition must stay stable across
        # hosts and releases, or --shard i/N double-simulates points.
        assert shard_of("abc", 1) == 0
        assert shard_of("abc", 4) == 3
        digest = hashlib.sha256(b"abc").hexdigest()
        assert shard_of("abc", 7) == int(digest[:8], 16) % 7

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of("abc", 0)

    def test_bad_shard_spec_rejected(self):
        with pytest.raises(ValueError):
            ShardedExecutor(2, 2)
        with pytest.raises(ValueError):
            ShardedExecutor(-1, 2)

    def test_partition_covers_each_key_once(self):
        settings = make_runner().cache_settings()
        for key in TINY_SWEEP_KEYS:
            fp = key_fingerprint(key, settings)
            owners = [index for index in range(3)
                      if shard_of(fp, 3) == index]
            assert len(owners) == 1

    def test_two_shards_dedup_into_one_store(self, tmp_path):
        """The acceptance spine: shard 0/2 + shard 1/2 into one store,
        then an unsharded merge pass == a single-host sweep, bitwise."""
        store_dir = tmp_path / "shared"
        reports = []
        for index in (0, 1):
            orchestrator = SweepOrchestrator(
                make_runner(store_dir), workers=1,
                backend=ShardedExecutor(index, 2),
            )
            reports.append(orchestrator.run(tiny_sweep()))
        assert all(report.ok for report in reports)
        assert [report.shard for report in reports] == ["0/2", "1/2"]
        # Every key simulated exactly once, by exactly one shard.
        claimed = [set(report.results) for report in reports]
        assert not claimed[0] & claimed[1]
        assert claimed[0] | claimed[1] == set(TINY_SWEEP_KEYS)
        assert sum(r.simulated for r in reports) == 3
        assert sum(r.skipped for r in reports) == 3

        merge = SweepOrchestrator(make_runner(store_dir),
                                  workers=1).run(tiny_sweep())
        assert merge.ok
        assert merge.cache_hits == 3 and merge.simulated == 0
        reference = serial_reference()
        for key, expected in reference.items():
            assert dataclasses.asdict(merge.results[key]) == \
                dataclasses.asdict(expected)

    def test_dead_shard_completed_by_merge_pass(self, tmp_path):
        # Only shard 0 ran (shard 1's host "died"): the unsharded merge
        # pass resumes from the store and simulates the stragglers.
        store_dir = tmp_path / "shared"
        partial = SweepOrchestrator(
            make_runner(store_dir), workers=1,
            backend=ShardedExecutor(0, 2),
        ).run(tiny_sweep())
        assert partial.ok
        merge = SweepOrchestrator(make_runner(store_dir),
                                  workers=1).run(tiny_sweep())
        assert merge.ok
        assert merge.cache_hits == len(partial.results)
        assert merge.simulated == 3 - len(partial.results)


# ----------------------------------------------------------------------
# Protocol-level semantics, pinned with a scripted backend (no
# processes, no sockets, fully deterministic).
# ----------------------------------------------------------------------


class _ScriptedBackend(ExecutorBackend):
    """Runs points synchronously but injects one scripted hiccup."""

    name = "scripted"
    capacity = 2

    def __init__(self, backpressure_once=False, lose_once=False):
        self._backpressure = backpressure_once
        self._lose = lose_once
        self._done = []
        self.submissions = 0
        self.restarts = 0

    def submit(self, key, label=None):
        if self._backpressure:
            self._backpressure = False
            raise Backpressure("scripted 429", retry_after=0.5)
        self.submissions += 1
        if self._lose:
            self._lose = False
            self._done.append(Completion(key, key,
                                         error="substrate died",
                                         lost=True))
            return key
        self._done.append(
            Completion(key, key, result=self.orchestrator.runner.run(key))
        )
        return key

    def poll(self, timeout):
        done, self._done = self._done, []
        return done

    def restart(self):
        self.restarts += 1
        return True


class _RefusingBackend(ExecutorBackend):
    """Fails to start; records every close()."""

    name = "refusing"

    def __init__(self):
        self.closes = 0

    def start(self):
        raise BackendError("scripted: transport down")

    def close(self):
        self.closes += 1


class TestProtocolSemantics:
    def test_failed_start_still_closes_the_backend(self):
        """close() always runs, also when start() raised: the sweep
        degrades to inline and completes, and the backend was closed
        exactly once."""
        backend = _RefusingBackend()
        orchestrator = SweepOrchestrator(make_runner(), workers=1,
                                         backend=backend, backoff=0.0)
        report = orchestrator.run(tiny_sweep())
        assert report.ok
        assert report.mode == "inline"
        assert len(report.results) == 3
        assert backend.closes == 1

    def test_backpressure_pauses_without_charging_attempts(self):
        backend = _ScriptedBackend(backpressure_once=True)
        orchestrator = SweepOrchestrator(make_runner(), workers=1,
                                         backend=backend, backoff=0.0)
        report = orchestrator.run(tiny_sweep())
        assert report.ok
        assert report.retries == 0  # 429 never costs an attempt
        assert backend.submissions == 3

    def test_lost_completion_requeues_and_restarts(self):
        backend = _ScriptedBackend(lose_once=True)
        orchestrator = SweepOrchestrator(make_runner(), workers=1,
                                         backend=backend, backoff=0.0)
        report = orchestrator.run(tiny_sweep())
        assert report.ok
        assert report.pool_restarts == 1
        assert backend.restarts == 1
        assert report.retries == 1  # the lost point was re-queued
        assert len(report.results) == 3


# ----------------------------------------------------------------------
# Remote-specific behaviour.
# ----------------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    manager = JobManager(make_runner(tmp_path / "server"), workers=2,
                         retries=0, backoff=0.0, queue_limit=64)
    server = ServiceServer(manager, port=0).start()
    yield server
    server.stop()


class TestRemoteExecutor:
    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(ValueError):
            RemoteExecutor([])

    def test_settings_mismatch_degrades_to_inline(self, tmp_path):
        manager = JobManager(
            ExperimentRunner(base_gpu=tiny_gpu(), mdr_epoch=123),
            workers=1, backoff=0.0,
        )
        server = ServiceServer(manager, port=0).start()
        try:
            backend = RemoteExecutor([server.url], steal_after=None)
            orchestrator = SweepOrchestrator(
                make_runner(tmp_path / "local"), workers=1,
                backend=backend, backoff=0.0,
            )
            report = orchestrator.run(
                Sweep.of("one", [RunKey("KMEANS")])
            )
        finally:
            server.stop()
        # Refused the mismatched endpoint, ran locally instead -- the
        # point still completes and lands in the LOCAL fingerprint.
        assert report.ok
        assert report.mode == "inline"
        assert report.simulated == 1

    def test_dead_endpoint_is_skipped(self, service, tmp_path):
        backend = RemoteExecutor(
            ["http://127.0.0.1:9", service.url],
            steal_after=None, poll_interval=0.05, request_timeout=2.0,
        )
        orchestrator = SweepOrchestrator(make_runner(tmp_path / "local"),
                                         workers=2, backend=backend,
                                         backoff=0.0)
        report = orchestrator.run(tiny_sweep())
        assert report.ok
        assert report.mode == "remote"
        assert set(report.results) == set(TINY_SWEEP_KEYS)

    def test_backpressured_service_still_completes(self, tmp_path):
        manager = JobManager(make_runner(tmp_path / "server"),
                             workers=1, retries=0, backoff=0.0,
                             queue_limit=1)
        server = ServiceServer(manager, port=0).start()
        try:
            backend = RemoteExecutor([server.url], steal_after=None,
                                     poll_interval=0.05)
            orchestrator = SweepOrchestrator(
                make_runner(tmp_path / "local"), workers=2,
                backend=backend, backoff=0.0,
            )
            report = orchestrator.run(tiny_sweep())
        finally:
            server.stop()
        assert report.ok
        assert set(report.results) == set(TINY_SWEEP_KEYS)

    def test_remote_parity_shares_store_without_conflict(self, service,
                                                         tmp_path):
        # Local and server runners share one store dir: both publish
        # each result, and the store's save-time equality check proves
        # the wire round-trip is bitwise faithful.
        store_dir = tmp_path / "server"
        backend = RemoteExecutor([service.url], steal_after=None,
                                 poll_interval=0.05)
        orchestrator = SweepOrchestrator(make_runner(store_dir),
                                         workers=2, backend=backend,
                                         backoff=0.0)
        report = orchestrator.run(tiny_sweep())
        assert report.ok
        reference = serial_reference()
        for key, expected in reference.items():
            assert dataclasses.asdict(report.results[key]) == \
                dataclasses.asdict(expected)

    def test_sweep_closes_its_clients(self, service, tmp_path):
        backend = RemoteExecutor([service.url], steal_after=None,
                                 poll_interval=0.05)
        orchestrator = SweepOrchestrator(make_runner(tmp_path / "local"),
                                         workers=2, backend=backend,
                                         backoff=0.0)
        assert orchestrator.run(tiny_sweep()).ok
        assert backend._clients
        assert all(not client._open for client in backend._clients)

    def test_cached_answer_completes_without_the_job(self, tmp_path,
                                                     monkeypatch):
        # The endpoint holds the point: the submission answer carries
        # its result and counts as the fetch, so the server may forget
        # the job before the next poll; the poll must not need it.
        monkeypatch.setattr(manager_module, "FINISHED_JOBS_KEPT", 4)
        key = RunKey("KMEANS")
        held = RunResult("nuba", 7, 1, 1, 0.0, 0.0, 0.0, 0, 0, 0,
                         EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0), {})
        runner = make_runner()
        runner.publish(key, held)
        runner.publish(RunKey("AN"), held)
        server = ServiceServer(JobManager(runner, workers=1),
                               port=0).start()
        backend = RemoteExecutor([server.url], steal_after=None,
                                 poll_interval=0.05)
        backend.bind(SweepOrchestrator(make_runner(), workers=1))
        try:
            backend.start()
            handle = backend.submit(key, "p")
            with ServiceClient(server.url) as other:
                for _ in range(manager_module.FINISHED_JOBS_KEPT):
                    job = other.submit(points=[(None, RunKey("AN"))])
                    other.result(job["id"])
            [completion] = backend.poll(5.0)
        finally:
            backend.close()
            server.stop()
        assert completion.handle == handle
        assert completion.error is None
        assert completion.result == held
