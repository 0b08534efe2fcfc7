"""Service-layer tests: dedup, backpressure, streaming, cancellation.

The acceptance spine of the service PR lives here:

* N concurrent clients submitting the same point cause exactly ONE
  simulation while all N receive the identical RunResult;
* a full queue rejects with 429 + Retry-After (QueueFullError at the
  manager level);
* killing a job mid-run leaves the store consistent -- no partial
  entries, and the stale ``*.tmp`` strandings of SIGKILLed workers are
  swept by gc.
"""

import dataclasses
import gc
import http.client
import json
import socket
import sys
import threading
import time
import urllib.request
import weakref

import pytest

from repro.config.presets import small_config
from repro.config.topology import Architecture, ReplicationPolicy
from repro.core.system import RunResult
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import ResultStore
from repro.power.energy import EnergyBreakdown
from repro.service import (
    CodecError,
    EventLog,
    JobManager,
    QueueFullError,
    ServiceClient,
    ServiceError,
    ServiceHandler,
    ServiceServer,
    UnknownJobError,
    points_from_wire,
    runkey_from_dict,
    runkey_to_dict,
)
from repro.service import client as client_module
from repro.service import manager as manager_module
from repro.service.manager import FINISHED_JOBS_KEPT


def tiny_gpu():
    return small_config(num_channels=2, warps_per_sm=4)


def make_runner(tmp_path=None):
    store = ResultStore(tmp_path) if tmp_path is not None else None
    return ExperimentRunner(base_gpu=tiny_gpu(), store=store)


def _dummy_result() -> RunResult:
    return RunResult("dummy", 7, 1, 1, 0.0, 0.0, 0.0, 0, 0, 0,
                     EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0), {})


# Module-level gate/counter for in-flight coalescing tests. The gated
# task blocks every execution until the test releases it, guaranteeing
# later submissions arrive while the first is still in flight.
_GATE = threading.Event()
_CALLS = []
_CALL_LOCK = threading.Lock()


def _gated_task(key: RunKey) -> RunResult:
    with _CALL_LOCK:
        _CALLS.append(key)
    assert _GATE.wait(20), "test forgot to release the gate"
    return _dummy_result()


def _pool_sleep_task(key: RunKey) -> RunResult:
    """Pool-mode task that outlives any test: must die by pool kill."""
    time.sleep(60)
    return _dummy_result()


def _failing_task(key: RunKey) -> RunResult:
    raise ValueError("injected service fault")


@pytest.fixture(autouse=True)
def _reset_gate():
    _GATE.clear()
    del _CALLS[:]
    yield
    _GATE.set()  # unstick any worker still waiting


@pytest.fixture
def manager_factory():
    managers = []

    def build(runner, **kwargs):
        kwargs.setdefault("backoff", 0.0)
        manager = JobManager(runner, **kwargs)
        managers.append(manager)
        return manager

    yield build
    _GATE.set()
    for manager in managers:
        manager.shutdown(cancel_running=True)


@pytest.fixture
def server_factory(manager_factory):
    servers = []

    def build(runner, **kwargs):
        manager = manager_factory(runner, **kwargs)
        server = ServiceServer(manager, port=0).start()
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.stop(shutdown_manager=False)


@pytest.fixture
def client_factory():
    """ServiceClients closed at teardown: each holds open connections."""
    clients = []

    def build(url, **kwargs):
        client = ServiceClient(url, **kwargs)
        clients.append(client)
        return client

    yield build
    for client in clients:
        client.close()


class TestCodec:
    def test_round_trip(self):
        key = RunKey("AN", Architecture.NUBA,
                     replication=ReplicationPolicy.MDR, noc_gbps=700.0)
        assert runkey_from_dict(runkey_to_dict(key)) == key

    def test_architecture_aliases(self):
        key = runkey_from_dict({"benchmark": "AN", "architecture": "uba"})
        assert key.architecture is Architecture.MEM_SIDE_UBA

    def test_unknown_field_rejected(self):
        with pytest.raises(CodecError, match="unknown RunKey field"):
            runkey_from_dict({"benchmark": "AN", "bogus": 1})

    def test_bad_enum_value_rejected(self):
        with pytest.raises(CodecError, match="bad replication"):
            runkey_from_dict({"benchmark": "AN", "replication": "xerox"})

    def test_missing_benchmark_rejected(self):
        with pytest.raises(CodecError, match="missing 'benchmark'"):
            runkey_from_dict({"architecture": "nuba"})

    def test_points_from_wire_labels(self):
        points = points_from_wire([
            {"benchmark": "AN", "label": "mine"},
            {"benchmark": "KMEANS"},
        ])
        assert points[0] == ("mine", RunKey("AN"))
        assert points[1][0] is None

    def test_empty_points_rejected(self):
        with pytest.raises(CodecError, match="must not be empty"):
            points_from_wire([])


class TestEventLog:
    def test_append_stamps_seq_and_snapshot(self):
        log = EventLog()
        log.append({"type": "a"})
        log.append({"type": "b"})
        events = log.snapshot()
        assert [e["seq"] for e in events] == [0, 1]
        assert log.snapshot(since=1)[0]["type"] == "b"

    def test_follow_drains_then_stops_on_close(self):
        log = EventLog()
        log.append({"type": "a"})
        seen = []

        def consume():
            for event in log.follow():
                seen.append(event["type"])

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.1)
        log.append({"type": "b"})
        log.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen == ["a", "b"]

    def test_follow_timeout_bounds_wait(self):
        log = EventLog()
        begun = time.monotonic()
        assert list(log.follow(timeout=0.2)) == []
        assert time.monotonic() - begun < 5.0


class TestManagerBasics:
    def test_submit_executes_and_delivers(self, manager_factory):
        runner = make_runner()
        manager = manager_factory(runner, workers=1)
        job = manager.submit([(None, RunKey("KMEANS"))])
        manager.wait(job.id, timeout=60)
        assert job.state == "done"
        assert runner.simulations_run == 1
        (result,) = job.results.values()
        assert result.cycles > 0
        states = [s.state for s in job.point_status.values()]
        assert states == ["done"]

    def test_second_job_is_cache_hit(self, manager_factory):
        runner = make_runner()
        manager = manager_factory(runner, workers=1)
        first = manager.submit([(None, RunKey("KMEANS"))])
        manager.wait(first.id, timeout=60)
        second = manager.submit([(None, RunKey("KMEANS"))])
        assert second.state == "done"  # resolved at submission time
        assert [s.state for s in second.point_status.values()] == ["cached"]
        assert runner.simulations_run == 1
        assert dataclasses.asdict(next(iter(second.results.values()))) \
            == dataclasses.asdict(next(iter(first.results.values())))

    def test_failed_point_fails_job_with_error(self, manager_factory):
        runner = make_runner()
        manager = manager_factory(runner, workers=1, retries=0,
                                  task_fn=_failing_task)
        job = manager.submit([("p", RunKey("KMEANS"))])
        manager.wait(job.id, timeout=60)
        assert job.state == "failed"
        assert "injected service fault" in job.point_status["p"].error

    def test_unknown_job_raises(self, manager_factory):
        manager = manager_factory(make_runner(), workers=1)
        with pytest.raises(UnknownJobError):
            manager.get("job-nope")

    def test_duplicate_points_in_one_job_run_once(self, manager_factory):
        runner = make_runner()
        manager = manager_factory(runner, workers=1)
        key = RunKey("KMEANS")
        job = manager.submit([("a", key), ("b", key)])
        manager.wait(job.id, timeout=60)
        assert job.state == "done"
        assert runner.simulations_run == 1
        assert set(job.results) == {"a", "b"}
        assert dataclasses.asdict(job.results["a"]) == \
            dataclasses.asdict(job.results["b"])


class TestDedupProof:
    """The acceptance criterion: N clients, one simulation."""

    N = 6

    def test_concurrent_clients_one_simulation(self, server_factory,
                                               client_factory):
        runner = make_runner()
        server = server_factory(runner, workers=2, queue_limit=16)
        key = RunKey("KMEANS", Architecture.NUBA,
                     replication=ReplicationPolicy.MDR)
        outcomes = [None] * self.N
        barrier = threading.Barrier(self.N)

        def client_thread(index: int) -> None:
            client = client_factory(server.url)
            barrier.wait(timeout=10)
            job = client.submit(points=[("p", key)])
            outcomes[index] = client.result(job["id"], wait=60.0)

        threads = [threading.Thread(target=client_thread, args=(i,))
                   for i in range(self.N)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)

        # Exactly one simulation ran...
        assert runner.simulations_run == 1
        # ...and every client got the identical RunResult.
        assert all(outcome is not None for outcome in outcomes)
        payloads = [outcome["results"]["p"] for outcome in outcomes]
        assert all(payload == payloads[0] for payload in payloads)
        assert all(outcome["state"] == "done" for outcome in outcomes)
        counters = server.manager.counters
        assert counters["points_executed"] == 1
        assert (counters["points_coalesced"]
                + counters["points_cached"]) == self.N - 1

    def test_inflight_submissions_coalesce(self, manager_factory):
        """With the execution gated, later submissions MUST coalesce
        (not cache-hit): one task call, N subscribers."""
        runner = make_runner()
        manager = manager_factory(runner, workers=2,
                                  task_fn=_gated_task)
        key = RunKey("AN")
        first = manager.submit([(None, key)], tenant="t1")
        # Wait until the gated task actually holds the worker.
        deadline = time.monotonic() + 10
        while not _CALLS and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _CALLS, "execution never started"
        others = [manager.submit([(None, key)], tenant=f"t{i}")
                  for i in range(2, 5)]
        assert all(
            [s.state for s in job.point_status.values()] == ["coalesced"]
            for job in others
        )
        _GATE.set()
        for job in [first] + others:
            manager.wait(job.id, timeout=60)
            assert job.state == "done"
        assert len(_CALLS) == 1
        assert manager.counters["points_coalesced"] == 3
        results = [dataclasses.asdict(next(iter(job.results.values())))
                   for job in [first] + others]
        assert all(result == results[0] for result in results)


class TestBackpressure:
    def test_queue_full_raises_manager_level(self, manager_factory):
        manager = manager_factory(make_runner(), workers=1,
                                  queue_limit=1, task_fn=_gated_task)
        running = manager.submit([(None, RunKey("AN"))])
        deadline = time.monotonic() + 10
        while not _CALLS and time.monotonic() < deadline:
            time.sleep(0.01)
        queued = manager.submit([(None, RunKey("KMEANS"))])
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit([(None, RunKey("2MM"))])
        assert excinfo.value.retry_after >= 1.0
        assert manager.counters["jobs_rejected"] == 1
        _GATE.set()
        for job in (running, queued):
            manager.wait(job.id, timeout=60)
            assert job.state == "done"

    def test_queue_full_is_http_429_with_retry_after(self,
                                                     server_factory,
                                                     client_factory):
        server = server_factory(make_runner(), workers=1,
                                queue_limit=1, task_fn=_gated_task)
        client = client_factory(server.url)
        client.submit(points=[(None, RunKey("AN"))])
        deadline = time.monotonic() + 10
        while not _CALLS and time.monotonic() < deadline:
            time.sleep(0.01)
        client.submit(points=[(None, RunKey("KMEANS"))])
        with pytest.raises(ServiceError) as excinfo:
            client.submit(points=[(None, RunKey("2MM"))])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1.0
        _GATE.set()

    def test_rejected_submission_enqueues_nothing(self, manager_factory):
        manager = manager_factory(make_runner(), workers=1,
                                  queue_limit=1, task_fn=_gated_task)
        manager.submit([(None, RunKey("AN"))])
        deadline = time.monotonic() + 10
        while not _CALLS and time.monotonic() < deadline:
            time.sleep(0.01)
        # A two-point job over the limit must be rejected atomically.
        with pytest.raises(QueueFullError):
            manager.submit([(None, RunKey("KMEANS")),
                            (None, RunKey("2MM"))])
        assert manager.stats()["queue_depth"] == 0
        _GATE.set()


class TestCancellation:
    def test_cancel_queued_job(self, manager_factory):
        manager = manager_factory(make_runner(), workers=1,
                                  queue_limit=8, task_fn=_gated_task)
        blocker = manager.submit([(None, RunKey("AN"))])
        deadline = time.monotonic() + 10
        while not _CALLS and time.monotonic() < deadline:
            time.sleep(0.01)
        victim = manager.submit([(None, RunKey("KMEANS"))])
        assert manager.cancel(victim.id)
        assert victim.state == "cancelled"
        assert manager.stats()["queue_depth"] == 0
        _GATE.set()
        manager.wait(blocker.id, timeout=60)
        assert blocker.state == "done"
        # Only the blocker's task ever ran.
        assert len(_CALLS) == 1

    def test_cancel_mid_run_leaves_store_consistent(self, manager_factory,
                                                    tmp_path):
        """Acceptance: a killed mid-run job must not corrupt the store.

        sim_workers=2 puts the execution on a real process pool, so
        cancellation kills a live worker process -- the harshest path.
        """
        runner = make_runner(tmp_path)
        manager = manager_factory(runner, workers=1, sim_workers=2,
                                  task_fn=_pool_sleep_task)
        job = manager.submit([(None, RunKey("KMEANS"))])
        deadline = time.monotonic() + 30
        while job.state != "running" and time.monotonic() < deadline:
            with manager._lock:
                running = any(s.state == "running"
                              for s in job.point_status.values())
            if running:
                break
            time.sleep(0.05)
        assert manager.cancel(job.id)
        manager.wait(job.id, timeout=60)
        assert job.state == "cancelled"
        assert not job.results
        # Store consistency: every entry (if any) is complete JSON,
        # and the cancelled point was never half-written.
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text())  # must not raise
        assert runner.lookup(RunKey("KMEANS")) is None

        # A SIGKILLed worker's stranded temporary is swept by gc.
        stranded = tmp_path / "KMEANS_x.deadbeef.tmp"
        stranded.write_text('{"partial":')
        outcome = runner.store.gc()
        assert stranded.exists()  # still inside the grace period
        import os
        old = time.time() - 3600
        os.utime(stranded, (old, old))
        outcome = runner.store.gc()
        assert outcome["tmp_swept"] == 1
        assert not stranded.exists()

    def test_cancel_spares_point_other_jobs_want(self, manager_factory):
        manager = manager_factory(make_runner(), workers=1,
                                  task_fn=_gated_task)
        key = RunKey("AN")
        keeper = manager.submit([(None, key)], tenant="keeper")
        deadline = time.monotonic() + 10
        while not _CALLS and time.monotonic() < deadline:
            time.sleep(0.01)
        quitter = manager.submit([(None, key)], tenant="quitter")
        assert manager.cancel(quitter.id)
        assert quitter.state == "cancelled"
        _GATE.set()
        manager.wait(keeper.id, timeout=60)
        # The shared execution survived the quitter's cancellation.
        assert keeper.state == "done"
        assert len(_CALLS) == 1


class TestTenantBounds:
    def test_one_tenant_cannot_hog_all_workers(self, manager_factory):
        manager = manager_factory(make_runner(), workers=2, per_tenant=1,
                                  queue_limit=8, task_fn=_gated_task)
        # Tenant A floods first; tenant B arrives second but must still
        # get a worker because A is capped at one.
        manager.submit([(None, RunKey("AN"))], tenant="a")
        manager.submit([(None, RunKey("KMEANS"))], tenant="a")
        manager.submit([(None, RunKey("2MM"))], tenant="b")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with manager._lock:
                by_tenant = dict(manager._tenant_running)
            if by_tenant.get("b"):
                break
            time.sleep(0.02)
        assert by_tenant.get("a", 0) == 1
        assert by_tenant.get("b", 0) == 1
        _GATE.set()


class TestHttpSurface:
    def test_healthz_and_stats(self, server_factory, client_factory):
        server = server_factory(make_runner(), workers=1)
        client = client_factory(server.url)
        assert client.healthz() == {"ok": True}
        stats = client.stats()
        assert stats["workers"] == 1
        assert "counters" in stats

    def test_job_lifecycle_over_http(self, server_factory, client_factory):
        runner = make_runner()
        server = server_factory(runner, workers=1)
        client = client_factory(server.url)
        job = client.submit(points=[("mine", RunKey("KMEANS"))],
                            name="smoke")
        assert job["state"] in ("queued", "running", "done")
        events = list(client.events(job["id"]))
        types = [event["type"] for event in events]
        assert types[0] == "start"
        assert "point_done" in types
        assert types[-1] == "job"
        done = [e for e in events if e["type"] == "point_done"]
        assert done[0]["point"] == "mine"
        assert done[0]["eta_seconds"] == 0.0
        payload = client.result(job["id"])
        assert payload["state"] == "done"
        assert payload["results"]["mine"]["cycles"] > 0
        status = client.job(job["id"])
        assert status["state"] == "done"
        assert status["points"][0]["state"] == "done"
        assert client.jobs()[0]["id"] == job["id"]

    def test_sse_content_type(self, server_factory, client_factory):
        runner = make_runner()
        server = server_factory(runner, workers=1)
        client = client_factory(server.url)
        job = client.submit(points=[(None, RunKey("KMEANS"))])
        client.result(job["id"], wait=60.0)
        request = urllib.request.Request(
            f"{server.url}/jobs/{job['id']}/events",
            headers={"Accept": "text/event-stream"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            body = response.read().decode()
        lines = [line for line in body.splitlines() if line]
        assert all(line.startswith("data: ") for line in lines)
        assert json.loads(lines[0][len("data: "):])["type"] == "start"

    def test_result_before_done_is_409(self, server_factory, client_factory):
        server = server_factory(make_runner(), workers=1,
                                task_fn=_gated_task)
        client = client_factory(server.url)
        job = client.submit(points=[(None, RunKey("AN"))])
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        _GATE.set()

    def test_figure_submission_expands_points(self, server_factory,
                                              client_factory):
        runner = make_runner()
        server = server_factory(runner, workers=2, queue_limit=64)
        client = client_factory(server.url)
        job = client.submit(figure="fig13", subset=["KMEANS"])
        assert job["points_total"] == 2  # uba + nuba per benchmark
        payload = client.result(job["id"], wait=120.0)
        assert payload["state"] == "done"
        assert set(payload["results"]) == {"KMEANS/uba", "KMEANS/nuba"}

    def test_cancel_over_http(self, server_factory, client_factory):
        server = server_factory(make_runner(), workers=1,
                                task_fn=_gated_task)
        client = client_factory(server.url)
        blocker = client.submit(points=[(None, RunKey("AN"))])
        victim = client.submit(points=[(None, RunKey("KMEANS"))])
        outcome = client.cancel(victim["id"])
        assert outcome["state"] == "cancelled"
        _GATE.set()
        assert client.result(blocker["id"], wait=60.0)["state"] == "done"

    def test_unknown_job_is_404(self, server_factory, client_factory):
        server = server_factory(make_runner(), workers=1)
        client = client_factory(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-nope")
        assert excinfo.value.status == 404

    def test_bad_submission_is_400(self, server_factory, client_factory):
        server = server_factory(make_runner(), workers=1)
        client = client_factory(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", body={"points": [
                {"benchmark": "AN", "bogus": True},
            ]})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", body={})
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, server_factory, client_factory):
        server = server_factory(make_runner(), workers=1)
        client = client_factory(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_finished_job_clock_stops(self, server_factory,
                                      client_factory):
        server = server_factory(warm_runner("AN"), workers=1)
        client = client_factory(server.url)
        job = client.submit(points=[(None, RunKey("AN"))])
        first = client.job(job["id"])["progress"]
        time.sleep(0.2)
        second = client.job(job["id"])["progress"]
        assert first["wall_seconds"] == second["wall_seconds"]
        assert first["utilization"] == second["utilization"]


class TestStoreIntegration:
    def test_results_persist_across_managers(self, manager_factory,
                                             tmp_path):
        first_runner = make_runner(tmp_path)
        first = manager_factory(first_runner, workers=1)
        job = first.submit([(None, RunKey("KMEANS"))])
        first.wait(job.id, timeout=60)
        assert first_runner.simulations_run == 1

        second_runner = make_runner(tmp_path)
        second = manager_factory(second_runner, workers=1)
        rerun = second.submit([(None, RunKey("KMEANS"))])
        assert rerun.state == "done"  # straight from the store
        assert second_runner.simulations_run == 0

    def test_maintenance_applies_ttl_policy(self, manager_factory,
                                            tmp_path):
        import os
        runner = make_runner(tmp_path)
        manager = manager_factory(runner, workers=1,
                                  store_ttl_seconds=3600.0)
        job = manager.submit([(None, RunKey("KMEANS"))])
        manager.wait(job.id, timeout=60)
        entry = next(tmp_path.glob("*.json"))
        old = time.time() - 7200
        os.utime(entry, (old, old))
        outcome = manager.maintain()
        assert outcome["evicted"] == 1
        assert not list(tmp_path.glob("*.json"))


def warm_runner(*benchmarks):
    """A runner whose cache already holds a result for each benchmark,
    so submissions of them finish at once as cache hits."""
    runner = make_runner()
    for benchmark in benchmarks:
        runner.publish(RunKey(benchmark), _dummy_result())
    return runner


class TestJobHistory:
    """A finished job is kept until its result is fetched (or its grace
    runs out); then the oldest past a fixed bound are forgotten."""

    def test_fetched_jobs_are_bounded(self, manager_factory):
        manager = manager_factory(warm_runner("AN"), workers=1)
        extra = 3
        jobs = []
        for _ in range(FINISHED_JOBS_KEPT + extra):
            jobs.append(manager.submit([(None, RunKey("AN"))]))
            manager.result_fetched(jobs[-1])
        assert all(job.state == "done" for job in jobs)
        assert len(manager.jobs()) == FINISHED_JOBS_KEPT
        for job in jobs[:extra]:
            with pytest.raises(UnknownJobError):
                manager.get(job.id)
        assert [job.id for job in manager.jobs()] == \
            [job.id for job in jobs[extra:]]
        # Session counters count every job, remembered or not.
        assert manager.counters["jobs_submitted"] == len(jobs)
        assert manager.counters["points_cached"] == len(jobs)

    def test_unfetched_jobs_are_kept_for_their_grace(self, manager_factory,
                                                     monkeypatch):
        manager = manager_factory(warm_runner("AN"), workers=1)
        jobs = [manager.submit([(None, RunKey("AN"))])
                for _ in range(FINISHED_JOBS_KEPT + 2)]
        assert len(manager.jobs()) == len(jobs)
        # Past its grace an unfetched job is forgettable like a fetched
        # one; the next finished job applies the bound.
        monkeypatch.setattr(manager_module, "UNFETCHED_GRACE_SECONDS", 0.0)
        jobs.append(manager.submit([(None, RunKey("AN"))]))
        assert len(manager.jobs()) == FINISHED_JOBS_KEPT
        with pytest.raises(UnknownJobError):
            manager.get(jobs[2].id)

    def test_unfinished_job_is_never_forgotten(self, manager_factory):
        manager = manager_factory(warm_runner("AN"), workers=1,
                                  task_fn=_gated_task)
        running = manager.submit([(None, RunKey("KMEANS"))])
        deadline = time.monotonic() + 10
        while not _CALLS and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _CALLS, "execution never started"
        cached = []
        for _ in range(FINISHED_JOBS_KEPT + 2):
            cached.append(manager.submit([(None, RunKey("AN"))]))
            manager.result_fetched(cached[-1])
        assert manager.get(running.id) is running
        assert len(manager.jobs()) == FINISHED_JOBS_KEPT + 1
        _GATE.set()
        manager.wait(running.id, timeout=60)
        assert running.state == "done"
        # Finished but not fetched: still kept beside the bound.
        assert manager.get(running.id) is running
        manager.result_fetched(running)
        # Now the newest forgettable job: it stays, the oldest goes.
        assert manager.get(running.id) is running
        assert len(manager.jobs()) == FINISHED_JOBS_KEPT
        with pytest.raises(UnknownJobError):
            manager.get(cached[2].id)

    def test_forgotten_job_is_freed_at_once(self, manager_factory):
        # No reference cycle may hold a job: a forgotten one is freed
        # by reference counting, not left for the cyclic collector.
        manager = manager_factory(warm_runner("AN"), workers=1)
        job = manager.submit([(None, RunKey("AN"))])
        manager.result_fetched(job)
        forgotten = weakref.ref(job)
        del job
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(FINISHED_JOBS_KEPT):
                manager.result_fetched(
                    manager.submit([(None, RunKey("AN"))]))
            assert forgotten() is None
        finally:
            if collecting:
                gc.enable()

    def test_cached_job_finishes_once(self, manager_factory):
        manager = manager_factory(warm_runner("AN"), workers=1)
        job = manager.submit([(None, RunKey("AN"))])
        types = [event["type"] for event in job.events.snapshot()]
        assert types == ["start", "cache_hit", "finish", "job"]

    def test_unfetched_job_outlives_newer_jobs(self, server_factory):
        # A client that submits without ``wait`` and fetches later still
        # gets its result however many jobs other clients finish in
        # between.
        server = server_factory(warm_runner("AN"), workers=1)
        with ServiceClient(server.url) as mine, \
                ServiceClient(server.url) as others:
            job = mine._request("POST", "/jobs",
                                body=wire_body("mine", RunKey("AN")))
            assert job["state"] == "done" and "results" not in job
            for _ in range(FINISHED_JOBS_KEPT + 1):
                other = others.submit(points=[(None, RunKey("AN"))])
                others.result(other["id"])
            assert list(mine.result(job["id"])["results"]) == ["mine"]

    def test_kept_answer_outlives_newer_jobs(self, server_factory):
        # ServiceClient takes a cache hit's results with its submission
        # (which counts as the fetch) and keeps them for result(), so
        # the server may forget the job meanwhile.
        server = server_factory(warm_runner("AN"), workers=1)
        with ServiceClient(server.url) as mine, \
                ServiceClient(server.url) as others:
            job = mine.submit(points=[("mine", RunKey("AN"))])
            for _ in range(FINISHED_JOBS_KEPT + 1):
                other = others.submit(points=[(None, RunKey("AN"))])
                others.result(other["id"])
            with pytest.raises(UnknownJobError):
                server.manager.get(job["id"])
            assert list(mine.result(job["id"])["results"]) == ["mine"]

    def test_forgotten_job_is_404_over_http(self, server_factory):
        server = server_factory(warm_runner("AN"), workers=1)
        with ServiceClient(server.url) as client:
            first = client.submit(points=[(None, RunKey("AN"))])
            client.result(first["id"])
            for _ in range(FINISHED_JOBS_KEPT):
                job = client.submit(points=[(None, RunKey("AN"))])
                client.result(job["id"])
            with pytest.raises(ServiceError) as excinfo:
                client.result(first["id"])
        assert excinfo.value.status == 404


def count_dispatches(monkeypatch):
    """Record ``(method, path)`` of every request the server routes."""
    calls = []
    dispatch = ServiceHandler._dispatch

    def counting(handler, method):
        calls.append((method, handler.path))
        dispatch(handler, method)

    monkeypatch.setattr(ServiceHandler, "_dispatch", counting)
    return calls


def record_fetches(monkeypatch, manager):
    """Record the id of every job the server counts as fetched."""
    fetched = []
    result_fetched = manager.result_fetched

    def recording(job):
        fetched.append(job.id)
        result_fetched(job)

    monkeypatch.setattr(manager, "result_fetched", recording)
    return fetched


def wire_body(label, key):
    """A ``POST /jobs`` body for one labelled point."""
    return {"points": [dict(runkey_to_dict(key), label=label)]}


class TestOneRoundTrip:
    """``POST /jobs?wait=`` answers a finished submission with its
    results, and ``ServiceClient`` keeps them for ``result()``."""

    def test_cache_hit_is_one_request(self, server_factory,
                                      client_factory, monkeypatch):
        server = server_factory(warm_runner("AN"), workers=1)
        client = client_factory(server.url)
        calls = count_dispatches(monkeypatch)
        job = client.submit(points=[("p", RunKey("AN"))])
        payload = client.result(job["id"])
        assert payload["state"] == "done"
        assert payload["results"]["p"]["cycles"] == 7
        assert calls == [("post", "/jobs?wait=0")]

    def test_wait_answer_carries_the_result_payload(self, server_factory,
                                                    client_factory,
                                                    monkeypatch):
        server = server_factory(warm_runner("AN"), workers=1)
        client = client_factory(server.url)
        fetched = record_fetches(monkeypatch, server.manager)
        body = json.dumps(wire_body("p", RunKey("AN"))).encode()
        response, raw, _ = _raw_exchange(
            server,
            b"POST /jobs?wait=0 HTTP/1.1\r\nHost: x\r\nConnection: close"
            b"\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        assert response.status == 201
        answer = json.loads(raw)
        assert answer["state"] == "done"
        assert answer["points"][0]["state"] == "cached"
        assert fetched == [answer["id"]]
        again = client._request("GET", f"/jobs/{answer['id']}/result")
        assert answer["results"] == again["results"]
        assert answer["failures"] == again["failures"] == {}

    def test_no_wait_carries_no_results(self, server_factory,
                                        client_factory, monkeypatch):
        server = server_factory(warm_runner("AN"), workers=1)
        client = client_factory(server.url)
        fetched = record_fetches(monkeypatch, server.manager)
        answer = client._request("POST", "/jobs",
                                 body=wire_body("p", RunKey("AN")))
        assert answer["state"] == "done"
        assert "results" not in answer and "failures" not in answer
        assert fetched == []

    @pytest.mark.parametrize("wait", ["abc", "nan", "inf"])
    def test_bad_wait_is_400(self, server_factory, client_factory, wait):
        server = server_factory(warm_runner("AN"), workers=1)
        client = client_factory(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", f"/jobs?wait={wait}",
                            body=wire_body("p", RunKey("AN")))
        assert excinfo.value.status == 400
        job = client._request("POST", "/jobs",
                              body=wire_body("p", RunKey("AN")))
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/jobs/{job['id']}/result?wait={wait}")
        assert excinfo.value.status == 400

    def test_cold_point_is_fetched_later(self, server_factory,
                                         client_factory, monkeypatch):
        server = server_factory(make_runner(), workers=1,
                                task_fn=_gated_task)
        client = client_factory(server.url)
        calls = count_dispatches(monkeypatch)
        job = client.submit(points=[("p", RunKey("AN"))])
        assert job["state"] in ("queued", "running")
        assert "results" not in job
        _GATE.set()
        payload = client.result(job["id"], wait=30.0)
        assert payload["state"] == "done"
        assert payload["results"]["p"]["cycles"] == 7
        assert [method for method, _ in calls] == ["post", "get"]

    def test_kept_answers_are_bounded(self, server_factory,
                                      client_factory, monkeypatch):
        monkeypatch.setattr(client_module, "ANSWERS_KEPT", 2)
        server = server_factory(warm_runner("AN"), workers=1)
        client = client_factory(server.url)
        jobs = [client.submit(points=[(f"p{i}", RunKey("AN"))])
                for i in range(3)]
        assert list(client._answers) == [job["id"] for job in jobs[1:]]
        calls = count_dispatches(monkeypatch)
        # The oldest answer was dropped: its result comes from the
        # server (which still holds the fetched job in its history).
        assert list(client.result(jobs[0]["id"])["results"]) == ["p0"]
        assert calls == [("get", f"/jobs/{jobs[0]['id']}/result")]
        assert list(client.result(jobs[2]["id"])["results"]) == ["p2"]
        assert len(calls) == 1
        # A kept answer is returned once, then forgotten.
        assert list(client._answers) == [jobs[1]["id"]]

    def test_oversized_body_gets_its_413(self, server_factory,
                                         client_factory):
        server = server_factory(make_runner(), workers=1)
        client = client_factory(server.url)
        label = "x" * (5 * 1024 * 1024)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(points=[(label, RunKey("AN"))])
        assert excinfo.value.status == 413
        assert client.healthz() == {"ok": True}

    def test_repro_submit_prints_a_cached_result(self, server_factory,
                                                 capsys):
        from repro.cli import main

        key = RunKey("AN", Architecture.NUBA,
                     replication=ReplicationPolicy.MDR)
        runner = make_runner()
        runner.publish(key, _dummy_result())
        server = server_factory(runner, workers=1)
        assert main(["submit", "--url", server.url, "--bench", "AN",
                     "--arch", "nuba"]) == 0
        head, body = capsys.readouterr().out.split("\n", 1)
        assert head.endswith(": done, 1 point(s)")
        payload = json.loads(body)
        assert payload["state"] == "done"
        [result] = payload["results"].values()
        assert result["cycles"] == 7


class TestClientDeadlines:
    @pytest.mark.parametrize("answered", [0, 1])
    def test_request_deadline_raises_without_retry(self, answered):
        # A server that answers ``answered`` requests on a connection,
        # then hangs: the next request must time out on the reaper's
        # schedule and must not be retried on a fresh connection.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        accepted = []
        stop = threading.Event()

        def serve() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                accepted.append(conn)
                if len(accepted) == 1 and answered:
                    conn.recv(4096)
                    body = b'{"ok": true}'
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: "
                                 + str(len(body)).encode()
                                 + b"\r\n\r\n" + body)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            port = listener.getsockname()[1]
            with ServiceClient(f"http://127.0.0.1:{port}",
                               timeout=0.5) as client:
                if answered:
                    assert client.healthz() == {"ok": True}
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.healthz()
                elapsed = time.monotonic() - started
                assert not client._open  # the connection was discarded
        finally:
            stop.set()
            thread.join(timeout=10)
            for conn in accepted:
                conn.close()
            listener.close()
        assert not thread.is_alive()
        assert 0.5 <= elapsed < 1.5
        assert len(accepted) == 1

    def test_request_sockets_block(self, server_factory, client_factory):
        server = server_factory(make_runner(), workers=1)
        client = client_factory(server.url)
        assert client.healthz() == {"ok": True}
        [sock] = client._open
        assert sock.gettimeout() is None


def _connect(server, timeout: float = 10.0) -> socket.socket:
    """A raw TCP connection to a running ServiceServer."""
    return socket.create_connection((server.host, server.port), timeout)


def _raw_exchange(server, request: bytes):
    """Send raw request bytes; return (response, body, closed) where
    ``closed`` says whether the server then closed the connection."""
    with _connect(server) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock, method="POST")
        response.begin()
        body = response.read()
        sock.settimeout(5)
        closed = sock.recv(1) == b""
    return response, body, closed


class TestMalformedContentLength:
    @pytest.mark.parametrize("path", ["/jobs", "/claims"])
    def test_is_400_and_closes(self, server_factory, path):
        server = server_factory(make_runner(), workers=0)
        response, body, closed = _raw_exchange(
            server,
            f"POST {path} HTTP/1.1\r\nHost: x\r\n"
            "Content-Length: abc\r\n\r\n{}".encode())
        assert response.status == 400
        assert "Content-Length" in json.loads(body)["error"]
        assert response.getheader("Connection") == "close"
        assert closed


class TestExpectContinue:
    def test_interim_100_arrives_before_the_body(self, server_factory):
        server = server_factory(make_runner(), workers=0)
        body = json.dumps({"worker": "w"}).encode()
        with _connect(server, timeout=5.0) as sock:
            sock.sendall(
                f"POST /claims HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Expect: 100-continue\r\n\r\n".encode())
            # The server must answer before it sees the body.
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            assert response.status == 200
            assert json.loads(response.read()) == {"claimed": False}


class TestPersistentConnections:
    """HTTP/1.1 keep-alive between ServiceClient and ServiceServer."""

    @staticmethod
    def count_connections(server):
        """Wrap the server's accept hook; returns the list it fills
        with one entry per accepted connection."""
        accepted = []
        process = server.httpd.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            process(request, client_address)

        server.httpd.process_request = counting
        return accepted

    def test_calls_from_one_thread_share_one_connection(self,
                                                        server_factory):
        server = server_factory(warm_runner("AN"), workers=1)
        accepted = self.count_connections(server)
        with ServiceClient(server.url) as client:
            assert client.healthz() == {"ok": True}
            job = client.submit(points=[("p", RunKey("AN"))])
            assert client.result(job["id"], wait=5.0)["state"] == "done"
            assert client.job(job["id"])["state"] == "done"
            client.stats()
        assert len(accepted) == 1

    def test_read_body_400_keeps_the_connection(self, server_factory):
        server = server_factory(make_runner(), workers=1)
        accepted = self.count_connections(server)
        with ServiceClient(server.url) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/jobs", body={})
            assert excinfo.value.status == 400
            assert client.healthz() == {"ok": True}
        assert len(accepted) == 1

    def test_rejected_body_closes_the_connection(self, server_factory,
                                                 monkeypatch):
        monkeypatch.setattr(ServiceHandler, "max_body_bytes", 16)
        server = server_factory(make_runner(), workers=1)
        accepted = self.count_connections(server)
        with ServiceClient(server.url) as client:
            assert client.healthz() == {"ok": True}
            with pytest.raises(ServiceError) as excinfo:
                client.submit(points=[(None, RunKey("AN"))])
            assert excinfo.value.status == 413
            assert client.healthz() == {"ok": True}
        assert len(accepted) == 2

    def test_get_with_body_closes_the_connection(self, server_factory):
        server = server_factory(make_runner(), workers=1)
        accepted = self.count_connections(server)
        with ServiceClient(server.url) as client:
            assert client._request("GET", "/healthz",
                                   body={"unread": True}) == {"ok": True}
            assert client.healthz() == {"ok": True}
        assert len(accepted) == 2

    def test_event_stream_closes_and_client_continues(self,
                                                      server_factory):
        server = server_factory(warm_runner("AN"), workers=1)
        accepted = self.count_connections(server)
        with ServiceClient(server.url) as client:
            job = client.submit(points=[("p", RunKey("AN"))])
            # The stream is close-delimited: it ends only at EOF.
            types = [event["type"] for event in client.events(job["id"])]
            assert types[-1] == "job"
            assert client.result(job["id"])["state"] == "done"
            assert client.healthz() == {"ok": True}
        assert len(accepted) == 2  # the client's, and the stream's own

    def test_stop_ends_open_connections(self, server_factory):
        server = server_factory(make_runner(), workers=1)
        client = ServiceClient(server.url, timeout=5.0)
        try:
            assert client.healthz() == {"ok": True}
            server.stop(shutdown_manager=False)
            with pytest.raises(OSError):
                client.healthz()
        finally:
            client.close()

    def test_reconnects_after_idle_close(self, server_factory,
                                         monkeypatch):
        monkeypatch.setattr(ServiceHandler, "idle_timeout", 0.2)
        server = server_factory(make_runner(), workers=1)
        accepted = self.count_connections(server)
        with ServiceClient(server.url) as client:
            assert client.healthz() == {"ok": True}
            # The accept loop checks every 0.5 s; wait for the close.
            deadline = time.monotonic() + 10
            while server.httpd._live and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not server.httpd._live
            assert client.healthz() == {"ok": True}
        assert len(accepted) == 2

    def test_garbage_response_is_an_oserror(self):
        # RemoteExecutor marks an endpoint dead on OSError, so a reply
        # http.client cannot parse must surface as one.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)

        def answer_garbage() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(b"garbage\r\n\r\n")

        thread = threading.Thread(target=answer_garbage)
        thread.start()
        try:
            port = listener.getsockname()[1]
            with ServiceClient(f"http://127.0.0.1:{port}",
                               timeout=5.0) as client:
                with pytest.raises(OSError):
                    client.healthz()
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()

    def test_one_client_shared_by_many_threads(self, server_factory):
        # More jobs than the manager remembers: none may be forgotten
        # between a thread's submit and its result.
        server = server_factory(warm_runner("AN", "KMEANS"), workers=1)
        threads_n = 8
        rounds = FINISHED_JOBS_KEPT // threads_n + 4
        errors = []
        client = ServiceClient(server.url, timeout=30.0)

        def worker(index: int) -> None:
            try:
                for round_ in range(rounds):
                    labels = [f"t{index}-r{round_}-an",
                              f"t{index}-r{round_}-km"]
                    job = client.submit(points=[
                        (labels[0], RunKey("AN")),
                        (labels[1], RunKey("KMEANS")),
                    ], tenant=f"t{index}")
                    payload = client.result(job["id"], wait=30.0)
                    if sorted(payload["results"]) != sorted(labels):
                        errors.append((index, sorted(payload["results"])))
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append((index, repr(exc)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
            client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        counters = server.manager.counters
        assert counters["jobs_submitted"] == threads_n * rounds
        assert len(server.manager.jobs()) == FINISHED_JOBS_KEPT

    def test_control_characters_in_a_job_id_are_refused(self,
                                                       server_factory):
        server = server_factory(make_runner(), workers=1)
        accepted = self.count_connections(server)
        with ServiceClient(server.url) as client:
            for job_id in ("job\r\nX-Injected: 1", "job 1", "job\x00"):
                with pytest.raises(ValueError):
                    client.result(job_id)
                with pytest.raises(ValueError):
                    list(client.events(job_id))
            assert client.healthz() == {"ok": True}
        assert len(accepted) == 1  # no refused request reached it
