"""Claim-loop tests: the service as coordinator of a worker fleet.

Covers the manager-level lease lifecycle (claim / complete / fail /
expiry, bounded by the same retry budget as local execution), the HTTP
claims API through :class:`~repro.service.worker.ServiceWorker`, and
the distributed acceptance test: a ``workers=0`` coordinator drained by
two workers produces stores bit-identical to a single-host sweep.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import ResultStore
from repro.orchestrator import RemoteExecutor, SweepOrchestrator
from repro.service import (
    JobManager,
    ServiceClient,
    ServiceServer,
    ServiceWorker,
    SettingsMismatchError,
)

from tests.test_orchestrator import (
    TINY_SWEEP_KEYS,
    make_runner,
    tiny_gpu,
    tiny_sweep,
)


@pytest.fixture
def coordinator_factory():
    """Builds workers=0 managers: queues drain only via claims."""
    managers = []

    def build(runner=None, **kwargs):
        kwargs.setdefault("workers", 0)
        kwargs.setdefault("backoff", 0.0)
        manager = JobManager(runner if runner is not None
                             else make_runner(), **kwargs)
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.shutdown(cancel_running=True)


def _submit_one(manager, key=None):
    job = manager.submit([(None, key or RunKey("KMEANS"))])
    (fingerprint,) = set(job.fingerprints.values())
    return job, fingerprint


class TestManagerClaims:
    def test_claim_empty_queue_returns_none(self, coordinator_factory):
        assert coordinator_factory().claim("w1") is None

    def test_coordinator_does_not_execute_locally(self,
                                                  coordinator_factory):
        manager = coordinator_factory()
        job, _ = _submit_one(manager)
        time.sleep(0.3)
        assert job.state == "queued"  # nothing drains a workers=0 queue

    def test_claim_complete_delivers_to_job(self, coordinator_factory):
        manager = coordinator_factory()
        job, _ = _submit_one(manager)
        execution = manager.claim("w1")
        assert execution is not None
        assert execution.claimed_by == "w1"
        assert execution.attempts == 1
        result = make_runner().run(execution.key)
        assert manager.complete_claim(execution.fingerprint,
                                      result) is not None
        assert job.state == "done"
        assert manager.counters["points_claimed"] == 1
        assert manager.counters["claims_completed"] == 1

    def test_fail_claim_requeues_then_fails(self, coordinator_factory):
        manager = coordinator_factory(retries=1)
        job, fingerprint = _submit_one(manager)
        first = manager.claim("w1")
        assert manager.fail_claim(fingerprint, "boom") == "requeued"
        assert job.state == "queued"
        second = manager.claim("w2")
        assert second is first  # same execution, new lease
        assert second.attempts == 2
        assert manager.fail_claim(fingerprint, "boom again") == "failed"
        assert job.state == "failed"
        label, _ = job.points[0]
        assert "boom again" in job.point_status[label].error

    def test_unknown_lease_rejected(self, coordinator_factory):
        manager = coordinator_factory()
        assert manager.complete_claim("deadbeef", object()) is None
        assert manager.fail_claim("deadbeef", "oops") is None

    def test_expired_lease_requeues_point(self, coordinator_factory):
        manager = coordinator_factory(retries=1,
                                      claim_ttl_seconds=0.1)
        _submit_one(manager)
        first = manager.claim("dying-worker")
        assert first is not None
        time.sleep(0.15)
        # Reap runs on the next queue access: the lease is gone and the
        # point is claimable again, charged one attempt.
        second = manager.claim("healthy-worker")
        assert second is first
        assert second.attempts == 2
        assert manager.counters["claims_expired"] == 1

    def test_expired_lease_exhausts_retry_budget(self,
                                                 coordinator_factory):
        manager = coordinator_factory(retries=0,
                                      claim_ttl_seconds=0.1)
        job, _ = _submit_one(manager)
        assert manager.claim("dying-worker") is not None
        time.sleep(0.15)
        manager.stats()  # any queue access reaps expired leases
        assert job.state == "failed"
        label, _ = job.points[0]
        assert "lease expired" in job.point_status[label].error

    def test_late_result_after_expiry_is_dropped(self,
                                                 coordinator_factory):
        manager = coordinator_factory(retries=1,
                                      claim_ttl_seconds=0.1)
        _submit_one(manager)
        execution = manager.claim("slow-worker")
        time.sleep(0.15)
        manager.stats()  # reap: the point was requeued
        late = make_runner().run(execution.key)
        assert manager.complete_claim(execution.fingerprint,
                                      late) is None

    def test_stats_exposes_claims_and_settings(self,
                                               coordinator_factory):
        manager = coordinator_factory()
        _submit_one(manager)
        manager.claim("w1")
        stats = manager.stats()
        assert stats["claims"]["active"] == 1
        assert stats["claims"]["workers"] == ["w1"]
        assert stats["settings"] == dict(
            manager.runner.cache_settings()
        )


@pytest.fixture
def coordinator_server(coordinator_factory, tmp_path):
    manager = coordinator_factory(
        runner=make_runner(tmp_path / "server"),
        retries=1, per_tenant=4,
    )
    server = ServiceServer(manager, port=0).start()
    yield server
    server.stop(shutdown_manager=False)


@pytest.fixture
def client(coordinator_server):
    """A client of the coordinator, closed after the test."""
    with ServiceClient(coordinator_server.url) as client:
        yield client


class TestServiceWorkerHTTP:
    def test_worker_drains_job_end_to_end(self, coordinator_server,
                                          client):
        job = client.submit(points=[(None, key)
                                    for key in TINY_SWEEP_KEYS])
        with ServiceWorker.from_service(coordinator_server.url,
                                        base_gpu=tiny_gpu(),
                                        poll_seconds=0.05) as worker:
            executed = worker.run(max_points=3)
        assert executed == 3
        assert worker.completed == 3 and worker.failed == 0
        payload = client.result(job["id"], wait=10.0)
        assert payload["state"] == "done"
        assert len(payload["results"]) == 3
        reference = make_runner()
        for key in TINY_SWEEP_KEYS:
            encoded = payload["results"][key.describe()]
            assert encoded["cycles"] == reference.run(key).cycles

    def test_worker_failure_consumes_retry_budget(self,
                                                  coordinator_server,
                                                  client):
        job = client.submit(points=[(None, RunKey("NOPE"))])
        with ServiceWorker.from_service(coordinator_server.url,
                                        base_gpu=tiny_gpu(),
                                        poll_seconds=0.05) as worker:
            # retries=1: attempt, requeue, attempt, permanent failure.
            assert worker.run(max_points=2) == 2
        assert worker.failed == 2
        info = client.job(job["id"])
        assert info["state"] == "failed"

    def test_worker_adopts_service_settings(self, coordinator_server,
                                            client):
        server_settings = client.stats()["settings"]
        with ServiceWorker.from_service(coordinator_server.url,
                                        base_gpu=tiny_gpu()) as worker:
            assert dict(worker.runner.cache_settings()) == \
                dict(server_settings)
            worker.check_settings()  # must not raise

    def test_check_settings_rejects_mismatch(self, coordinator_server):
        mismatched = ExperimentRunner(base_gpu=tiny_gpu(),
                                      mdr_epoch=123)
        with ServiceWorker(coordinator_server.url, mismatched) as worker:
            with pytest.raises(SettingsMismatchError):
                worker.check_settings()

    def test_idle_worker_exits_on_idle_timeout(self,
                                               coordinator_server):
        with ServiceWorker.from_service(coordinator_server.url,
                                        base_gpu=tiny_gpu(),
                                        poll_seconds=0.05) as worker:
            assert worker.run(idle_exit=0.2) == 0

    def test_close_releases_the_connection(self, coordinator_server):
        """A closed worker holds no socket, so the server can free the
        handler thread that served it; close is idempotent."""
        worker = ServiceWorker.from_service(coordinator_server.url,
                                            base_gpu=tiny_gpu(),
                                            poll_seconds=0.05)
        assert worker.run(idle_exit=0.1) == 0
        assert worker.client._open
        with worker:
            pass
        assert not worker.client._open
        worker.close()

    def test_claims_api_validates_payloads(self, client):
        from repro.service import ServiceError

        client.submit(points=[(None, RunKey("KMEANS"))])
        claim = client.claim("w1")
        assert claim is not None and claim["claimed"]
        assert claim["lease_seconds"] > 0
        # Garbage result payload: 400, lease stays live.
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", f"/claims/{claim['fingerprint']}",
                            body={"result": {"_schema": -1}})
        assert excinfo.value.status == 400
        # Reporting against a fingerprint nobody leased: 409.
        with pytest.raises(ServiceError) as excinfo:
            client.fail("deadbeef", "nope")
        assert excinfo.value.status == 409
        # The live lease still completes normally.
        result = make_runner().run(RunKey("KMEANS"))
        assert client.complete(claim["fingerprint"], result)["state"] \
            == "done"


def _store_payloads(store_dir):
    """fingerprint-file -> parsed payload, for point-for-point compare."""
    return {
        path.name: json.loads(path.read_text())
        for path in sorted(store_dir.glob("*.json"))
    }


class TestDistributedAcceptance:
    def test_two_workers_match_single_host_bitwise(self, tmp_path):
        """workers=0 coordinator + 2 remote workers + RemoteExecutor
        sweep == single-host sweep, store-for-store and point-for-point.
        """
        server_store = tmp_path / "server"
        manager = JobManager(make_runner(server_store), workers=0,
                             retries=1, backoff=0.0, per_tenant=4)
        server = ServiceServer(manager, port=0).start()
        stop = threading.Event()
        workers = [
            ServiceWorker.from_service(server.url, base_gpu=tiny_gpu(),
                                       name=f"w{i}", poll_seconds=0.05)
            for i in (1, 2)
        ]
        threads = [
            threading.Thread(target=worker.run, kwargs={"stop": stop},
                             daemon=True)
            for worker in workers
        ]
        try:
            for thread in threads:
                thread.start()
            local_store = tmp_path / "local"
            backend = RemoteExecutor([server.url], steal_after=None,
                                     poll_interval=0.05)
            orchestrator = SweepOrchestrator(make_runner(local_store),
                                             workers=2, backend=backend,
                                             backoff=0.0)
            report = orchestrator.run(tiny_sweep())
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
            for worker in workers:
                worker.close()
            server.stop()

        assert report.ok
        assert report.mode == "remote"
        assert report.simulated == 3
        # Both workers saw traffic through one coordinator queue.
        assert sum(worker.completed for worker in workers) == 3
        assert manager.counters["claims_completed"] == 3

        # Single-host reference store.
        single_store = tmp_path / "single"
        single = SweepOrchestrator(make_runner(single_store),
                                   workers=1).run(tiny_sweep())
        assert single.ok

        reference = _store_payloads(single_store)
        assert len(reference) == 3
        assert _store_payloads(server_store) == reference
        assert _store_payloads(local_store) == reference

        # And the reports agree point-for-point.
        for key in TINY_SWEEP_KEYS:
            assert dataclasses.asdict(report.results[key]) == \
                dataclasses.asdict(single.results[key])
