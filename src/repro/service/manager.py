"""The job manager: bounded multi-tenant execution with dedup.

This is the service's engine room. Clients (HTTP handlers, tests, or
in-process callers) submit labelled RunKeys; the manager normalizes
each point to its content-addressed fingerprint
(:func:`~repro.experiments.store.key_fingerprint`, which folds in the
runner settings) and resolves it one of three ways:

* **cache hit** -- the runner's in-memory cache or the
  :class:`~repro.experiments.store.ResultStore` already holds the
  result; it is delivered immediately without simulating;
* **coalesced** -- another job is already queued/running the same
  fingerprint; the new job subscribes to that execution and receives
  the identical RunResult when it lands (N concurrent clients, one
  simulation);
* **queued** -- a new :class:`Execution` joins the FIFO queue, subject
  to backpressure: when the queue is full, submission fails with
  :class:`QueueFullError` carrying a Retry-After estimate (the HTTP
  layer turns that into a 429).

A fixed pool of worker threads drains the queue, at most
``per_tenant`` executions per tenant at once so one chatty client
cannot starve the rest. Each execution runs through a
:class:`~repro.orchestrator.orchestrator.SweepOrchestrator`, which
brings the existing retry/timeout/pool-rebuild machinery (and, with
``sim_workers > 1``, real process-pool parallelism per point).
Cancellation rides the orchestrator's ``stop`` event: a cancelled
mid-run job kills its worker pool, and the store stays consistent
because writes are atomic and stranded temporaries are swept by
:meth:`ResultStore.gc`, which the manager's maintenance loop runs on a
timer together with the TTL/LRU eviction policy.

Remote workers are the second way the queue drains: :meth:`claim`
leases the oldest eligible execution to a named worker
(``repro worker`` over ``POST /claims``), which simulates it on its own
hardware and reports back through :meth:`complete_claim` /
:meth:`fail_claim`. Leases carry a TTL -- a worker that dies mid-point
simply lets the lease expire, and the execution is requeued (bounded by
the same ``retries`` budget) for local threads or other workers.
Running with ``workers=0`` makes the service a pure coordinator that
only remote workers drain.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import key_fingerprint
from repro.orchestrator.orchestrator import SweepOrchestrator
from repro.orchestrator.progress import ProgressReporter
from repro.orchestrator.sweep import Sweep
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    PointStatus,
)


#: Seconds a finished job whose result nobody has fetched is protected
#: from being forgotten. Clients fetch at once (``?wait=``) or within a
#: poll (``RemoteExecutor``: 0.2 s); this also leaves a person a
#: minute between ``repro submit`` and ``repro fetch``.
UNFETCHED_GRACE_SECONDS = 60.0

#: Finished jobs remembered once they may be forgotten (result fetched,
#: or grace over). Past this, the oldest is forgotten and its id answers
#: like an unknown one (404); queued and running jobs never are. This is
#: history for reads after the fetch, a memory budget: a job holds
#: ~6 KB (event log, progress reporter, point states), so under 1 MB.
FINISHED_JOBS_KEPT = 128


class QueueFullError(RuntimeError):
    """Submission rejected by backpressure; retry after a delay."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = max(1.0, retry_after)


class UnknownJobError(KeyError):
    """No job with that id."""


class Execution:
    """One in-flight simulation of a unique fingerprint.

    Jobs subscribe to executions; the execution delivers its single
    RunResult (or failure) to every subscriber, which is how identical
    submissions from different clients coalesce onto one simulation.
    """

    __slots__ = ("fingerprint", "key", "label", "tenant", "state",
                 "subscribers", "cancel", "enqueued_at", "attempts",
                 "claimed_by", "claim_deadline", "claimed_at")

    def __init__(self, fingerprint: str, key: RunKey, label: str,
                 tenant: str) -> None:
        self.fingerprint = fingerprint
        self.key = key
        self.label = label
        self.tenant = tenant
        self.state = QUEUED
        self.subscribers: List[Job] = []
        self.cancel = threading.Event()
        self.enqueued_at = time.monotonic()
        #: Times this execution has been leased to a remote worker.
        self.attempts = 0
        #: Remote-claim lease bookkeeping (None = not claimed).
        self.claimed_by: Optional[str] = None
        self.claim_deadline: Optional[float] = None
        self.claimed_at: Optional[float] = None


class JobManager:
    """Multi-tenant job executor in front of an ExperimentRunner."""

    def __init__(self, runner: ExperimentRunner, *,
                 workers: int = 2,
                 per_tenant: Optional[int] = None,
                 queue_limit: int = 64,
                 sim_workers: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff: float = 0.1,
                 task_fn: Optional[Callable[[RunKey], object]] = None,
                 store_ttl_seconds: Optional[float] = None,
                 store_max_entries: Optional[int] = None,
                 maintenance_interval: float = 60.0,
                 claim_ttl_seconds: float = 120.0) -> None:
        self.runner = runner
        # workers=0 is legal: a pure coordinator whose queue only
        # remote workers (repro worker) drain via the claim API.
        self.workers = max(0, workers)
        self.per_tenant = (max(1, self.workers) if per_tenant is None
                           else max(1, per_tenant))
        self.queue_limit = max(1, queue_limit)
        self.sim_workers = max(1, sim_workers)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.task_fn = task_fn
        self.store_ttl_seconds = store_ttl_seconds
        self.store_max_entries = store_max_entries
        self.maintenance_interval = maintenance_interval
        self.claim_ttl_seconds = max(0.05, claim_ttl_seconds)

        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._queue: Deque[Execution] = deque()
        self._executions: Dict[str, Execution] = {}
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        #: Finished jobs not yet fetched: id -> monotonic finish time.
        self._unfetched: "OrderedDict[str, float]" = OrderedDict()
        #: Ids of finished jobs that may be forgotten, oldest first.
        self._forgettable: Deque[str] = deque()
        self._tenant_running: Dict[str, int] = {}
        self._running: Dict[str, Execution] = {}
        self._claims: Dict[str, Execution] = {}
        self._job_seq = itertools.count(1)
        self._shutdown = False
        self.started_at = time.time()

        # Session counters (survive job eviction; exposed by /stats).
        self.counters = {
            "jobs_submitted": 0,
            "jobs_rejected": 0,
            "points_requested": 0,
            "points_cached": 0,
            "points_coalesced": 0,
            "points_executed": 0,
            "points_failed": 0,
            "points_cancelled": 0,
            "points_claimed": 0,
            "claims_completed": 0,
            "claims_failed": 0,
            "claims_expired": 0,
        }

        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"repro-service-worker-{i}")
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._maintenance_stop = threading.Event()
        self._maintenance_thread: Optional[threading.Thread] = None
        if self._store is not None and (store_ttl_seconds is not None
                                        or store_max_entries is not None):
            self._maintenance_thread = threading.Thread(
                target=self._maintenance_loop, daemon=True,
                name="repro-service-maintenance",
            )
            self._maintenance_thread.start()

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    @property
    def _store(self):
        return getattr(self.runner, "store", None)

    def submit(self, points: Sequence[Tuple[Optional[str], RunKey]],
               tenant: str = "default", name: str = "job") -> Job:
        """Create a job for labelled points; dedup, cache, or enqueue.

        ``points`` is a sequence of ``(label, RunKey)`` pairs (label
        None = ``key.describe()``). Raises :class:`QueueFullError` when
        the new executions would overflow the queue -- atomically, so a
        rejected submission enqueues nothing.
        """
        settings = self.runner.cache_settings()
        with self._lock:
            if self._shutdown:
                raise RuntimeError("manager is shut down")

            labelled = self._labelled_points(points)
            unique: "OrderedDict[RunKey, str]" = OrderedDict()
            for label, key in labelled:
                unique.setdefault(key, label)
            fingerprints = {
                key: key_fingerprint(key, settings) for key in unique
            }

            # Backpressure first, atomically: count the executions this
            # submission would add before creating any of them.
            resolved = {key: self.runner.lookup(key) for key in unique}
            new_keys = [
                key for key, fp in fingerprints.items()
                if fp not in self._executions and resolved[key] is None
            ]
            if len(self._queue) + len(new_keys) > self.queue_limit:
                self.counters["jobs_rejected"] += 1
                raise QueueFullError(
                    f"queue full ({len(self._queue)}/{self.queue_limit} "
                    f"queued); retry later",
                    retry_after=self._retry_after_estimate(),
                )

            job_id = f"job-{next(self._job_seq):05d}-{uuid.uuid4().hex[:6]}"
            job = Job(job_id, tenant, name, labelled, fingerprints)
            self._jobs[job_id] = job
            self.counters["jobs_submitted"] += 1
            self.counters["points_requested"] += len(labelled)
            job.reporter.start(total=len(unique), workers=self.workers)

            for key, label in unique.items():
                fp = fingerprints[key]
                for point_label in job.labels_for(fp):
                    job.point_status[point_label] = PointStatus(
                        point_label, fp, "queued",
                    )
                cached = resolved[key]
                if cached is not None:
                    self.counters["points_cached"] += 1
                    job.reporter.cache_hit(label)
                    self._resolve_point(job, fp, cached, None, "cached")
                    continue
                execution = self._executions.get(fp)
                if execution is not None:
                    self.counters["points_coalesced"] += 1
                    execution.subscribers.append(job)
                    for point_label in job.labels_for(fp):
                        job.point_status[point_label].state = "coalesced"
                    job.events.append({
                        "type": "coalesced", "job": job.id,
                        "point": label, "fingerprint": fp,
                    })
                    continue
                execution = Execution(fp, key, label, tenant)
                execution.subscribers.append(job)
                self._executions[fp] = execution
                self._queue.append(execution)

            if job.pending:
                self._wake.notify_all()
            return job

    def _labelled_points(self, points) -> List[Tuple[str, RunKey]]:
        """Fill in missing labels and uniquify duplicates."""
        labelled: List[Tuple[str, RunKey]] = []
        seen: Dict[str, int] = {}
        for label, key in points:
            label = label if label else key.describe()
            count = seen.get(label, 0)
            seen[label] = count + 1
            if count:
                label = f"{label}#{count + 1}"
            labelled.append((label, key))
        return labelled

    def _retry_after_estimate(self) -> float:
        """Seconds a 429'd client should wait before retrying."""
        rates = [
            job.reporter.seconds_per_point()
            for job in self._jobs.values()
            if job.reporter.executed
        ]
        per_point = max(rates) if rates else 5.0
        backlog = len(self._queue) + len(self._running) + len(self._claims)
        return per_point * max(1, backlog) / max(1, self.workers)

    # ------------------------------------------------------------------
    # Worker loop.
    # ------------------------------------------------------------------

    def _pop_eligible(self) -> Optional[Execution]:
        """The oldest queued execution whose tenant has a free slot."""
        self._reap_expired_claims()
        for index, execution in enumerate(self._queue):
            running = self._tenant_running.get(execution.tenant, 0)
            if running < self.per_tenant:
                del self._queue[index]
                return execution
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                execution = None
                while not self._shutdown:
                    execution = self._pop_eligible()
                    if execution is not None:
                        break
                    # Timed wait: a tenant slot freeing on another
                    # thread notifies, but the timeout also guards
                    # against missed wakeups.
                    self._wake.wait(0.5)
                if self._shutdown:
                    return
                tenant = execution.tenant
                self._tenant_running[tenant] = (
                    self._tenant_running.get(tenant, 0) + 1
                )
                self._running[execution.fingerprint] = execution
                execution.state = RUNNING
                self._mark_running(execution)
            try:
                self._execute(execution)
            finally:
                with self._wake:
                    self._tenant_running[tenant] -= 1
                    self._running.pop(execution.fingerprint, None)
                    self._wake.notify_all()

    def _mark_running(self, execution: Execution) -> None:
        for job in execution.subscribers:
            if job.terminal:
                continue
            for label in job.labels_for(execution.fingerprint):
                job.point_status[label].state = "running"
            job.events.append({
                "type": "point_running", "job": job.id,
                "point": execution.label,
                "fingerprint": execution.fingerprint,
            })

    def _execute(self, execution: Execution) -> None:
        """Run one fingerprint through the orchestrator machinery."""
        reporter = ProgressReporter(
            stream=None, label=execution.fingerprint,
            on_event=lambda event: self._forward_event(execution, event),
        )
        orchestrator = SweepOrchestrator(
            self.runner,
            workers=self.sim_workers,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            progress=reporter,
            task_fn=self.task_fn,
            stop=execution.cancel,
        )
        sweep = Sweep.of("service", [(execution.label, execution.key)])
        began = time.monotonic()
        try:
            report = orchestrator.run(sweep)
        except Exception as exc:  # noqa: BLE001 -- delivered as failure
            self._deliver(execution, None, f"executor crashed: {exc}",
                          time.monotonic() - began)
            return
        elapsed = time.monotonic() - began
        if execution.cancel.is_set() or report.cancelled:
            self._deliver(execution, None, "cancelled", elapsed,
                          cancelled=True)
        elif execution.key in report.results:
            self._deliver(execution, report.results[execution.key],
                          None, elapsed)
        else:
            error = (report.failures[0].error if report.failures
                     else "no result produced")
            self._deliver(execution, None, error, elapsed)

    def _forward_event(self, execution: Execution, event: dict) -> None:
        """Relay orchestrator retry/note events to subscriber streams."""
        if event.get("type") not in ("point_retried", "note"):
            return
        with self._lock:
            for job in execution.subscribers:
                if job.terminal:
                    continue
                if event["type"] == "point_retried":
                    job.reporter.point_retried(
                        execution.label, str(event.get("reason", "")),
                        int(event.get("attempt", 0)),
                    )
                else:
                    job.reporter.note(str(event.get("message", "")))

    # ------------------------------------------------------------------
    # Remote worker claims.
    # ------------------------------------------------------------------

    def claim(self, worker: str = "worker") -> Optional[Execution]:
        """Lease the oldest eligible queued execution to ``worker``.

        The lease lasts ``claim_ttl_seconds``; a worker that neither
        completes nor fails the claim in time is presumed dead and the
        execution is requeued (or failed once its retry budget is
        spent). Returns None when nothing is eligible.
        """
        with self._lock:
            if self._shutdown:
                return None
            execution = self._pop_eligible()
            if execution is None:
                return None
            now = time.monotonic()
            execution.state = RUNNING
            execution.attempts += 1
            execution.claimed_by = worker
            execution.claimed_at = now
            execution.claim_deadline = now + self.claim_ttl_seconds
            self._claims[execution.fingerprint] = execution
            self._tenant_running[execution.tenant] = (
                self._tenant_running.get(execution.tenant, 0) + 1
            )
            self.counters["points_claimed"] += 1
            self._mark_running(execution)
            return execution

    def complete_claim(self, fingerprint: str,
                       result) -> Optional[Execution]:
        """A worker delivers the result for a leased execution.

        Returns the execution, or None when the lease already expired
        (the point was requeued or re-leased; the late result is
        dropped -- whoever holds the live lease will deliver). Publishes
        through the runner, so the store's save-time equality check
        guards against a misconfigured worker sneaking in a divergent
        payload (delivered as a failure, not silently stored).
        """
        execution = self._release_claim(fingerprint)
        if execution is None:
            return None
        began = execution.claimed_at or time.monotonic()
        try:
            self.runner.publish(execution.key, result)
        except Exception as exc:  # noqa: BLE001 -- conflict => failure
            self.counters["claims_failed"] += 1
            self._deliver(execution, None,
                          f"worker result rejected: {exc}",
                          time.monotonic() - began)
            return execution
        self.counters["claims_completed"] += 1
        self._deliver(execution, result, None,
                      time.monotonic() - began)
        return execution

    def fail_claim(self, fingerprint: str,
                   error: str) -> Optional[str]:
        """A worker reports a leased execution failed.

        Returns ``"requeued"`` (retry budget left), ``"failed"``
        (budget spent; failure delivered to subscribers) or None for an
        unknown/expired lease.
        """
        execution = self._release_claim(fingerprint)
        if execution is None:
            return None
        self.counters["claims_failed"] += 1
        with self._wake:
            if (execution.attempts <= self.retries
                    and not execution.cancel.is_set()):
                self._requeue_claimed(execution, error)
                return "requeued"
        began = execution.claimed_at or time.monotonic()
        self._deliver(execution, None, error,
                      time.monotonic() - began,
                      cancelled=execution.cancel.is_set())
        return "failed"

    def _release_claim(self, fingerprint: str) -> Optional[Execution]:
        """Drop the live lease on ``fingerprint`` (None if not held)."""
        with self._wake:
            execution = self._claims.pop(fingerprint, None)
            if execution is None:
                return None
            self._tenant_running[execution.tenant] -= 1
            execution.claimed_by = None
            execution.claim_deadline = None
            self._wake.notify_all()
            return execution

    def _requeue_claimed(self, execution: Execution,
                         reason: str) -> None:
        """Put a claimed execution back on the queue (lock held)."""
        execution.state = QUEUED
        execution.claimed_at = None
        self._queue.append(execution)
        for job in execution.subscribers:
            if job.terminal:
                continue
            job.reporter.point_retried(execution.label, reason,
                                       execution.attempts)
            for label in job.labels_for(execution.fingerprint):
                job.point_status[label].state = "queued"
        self._wake.notify_all()

    def _reap_expired_claims(self) -> None:
        """Requeue/fail executions whose lease ran out (lock held)."""
        now = time.monotonic()
        expired = [
            execution for execution in self._claims.values()
            if execution.claim_deadline is not None
            and execution.claim_deadline <= now
        ]
        for execution in expired:
            worker = execution.claimed_by
            self._claims.pop(execution.fingerprint, None)
            self._tenant_running[execution.tenant] -= 1
            execution.claimed_by = None
            execution.claim_deadline = None
            self.counters["claims_expired"] += 1
            if (execution.attempts <= self.retries
                    and not execution.cancel.is_set()):
                self._requeue_claimed(
                    execution,
                    f"worker lease expired ({worker})",
                )
            else:
                began = execution.claimed_at or now
                self._deliver(execution, None,
                              f"worker lease expired ({worker})",
                              now - began,
                              cancelled=execution.cancel.is_set())

    # ------------------------------------------------------------------
    # Delivery.
    # ------------------------------------------------------------------

    def _resolve_point(self, job: Job, fingerprint: str, result,
                       error: Optional[str], state: str) -> None:
        """Record one fingerprint's outcome on one job (lock held)."""
        for label in job.labels_for(fingerprint):
            status = job.point_status[label]
            status.state = state
            status.error = error
            if result is not None:
                job.results[label] = result
        job.pending.discard(fingerprint)
        self._maybe_finalize(job)

    def _maybe_finalize(self, job: Job) -> None:
        if job.pending or job.terminal:
            return
        states = {status.state for status in job.point_status.values()}
        if "failed" in states:
            self._finalize(job, FAILED)
        elif "cancelled" in states or job.cancelled:
            self._finalize(job, CANCELLED)
        else:
            self._finalize(job, DONE)

    def _finalize(self, job: Job, state: str) -> None:
        """Finish ``job``; it is protected until fetched (lock held)."""
        job.finalize(state)
        self._unfetched[job.id] = time.monotonic()
        self._forget_finished()

    def result_fetched(self, job: Job) -> None:
        """A client has read ``job``'s result: it may be forgotten."""
        with self._lock:
            if self._unfetched.pop(job.id, None) is not None:
                self._forgettable.append(job.id)
            self._forget_finished()

    def _forget_finished(self) -> None:
        """Forget the oldest forgettable jobs past
        :data:`FINISHED_JOBS_KEPT`; an unfetched job becomes forgettable
        :data:`UNFETCHED_GRACE_SECONDS` after it finished (lock held)."""
        expired = time.monotonic() - UNFETCHED_GRACE_SECONDS
        while self._unfetched:
            job_id, finished = next(iter(self._unfetched.items()))
            if finished > expired:
                break
            del self._unfetched[job_id]
            self._forgettable.append(job_id)
        while len(self._forgettable) > FINISHED_JOBS_KEPT:
            del self._jobs[self._forgettable.popleft()]

    def _deliver(self, execution: Execution, result,
                 error: Optional[str], elapsed: float,
                 cancelled: bool = False) -> None:
        """Fan one execution's outcome out to every subscriber job."""
        with self._lock:
            self._executions.pop(execution.fingerprint, None)
            execution.state = (DONE if result is not None else
                               CANCELLED if cancelled else FAILED)
            if result is not None:
                self.counters["points_executed"] += 1
            elif cancelled:
                self.counters["points_cancelled"] += 1
            else:
                self.counters["points_failed"] += 1
            for job in execution.subscribers:
                if job.terminal:
                    continue
                if result is not None:
                    job.reporter.point_done(execution.label, elapsed)
                    state = "done"
                elif cancelled:
                    job.events.append({
                        "type": "point_cancelled", "job": job.id,
                        "point": execution.label,
                        "fingerprint": execution.fingerprint,
                    })
                    state = "cancelled"
                else:
                    job.reporter.point_failed(execution.label,
                                              error or "failed")
                    state = "failed"
                self._resolve_point(job, execution.fingerprint, result,
                                    error, state)

    # ------------------------------------------------------------------
    # Queries, cancellation, lifecycle.
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job with that id, or :class:`UnknownJobError`."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def jobs(self) -> List[Job]:
        """Every job the manager remembers, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until a job reaches a terminal state (or timeout)."""
        job = self.get(job_id)
        job.wait(timeout)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True if it was still live.

        Executions whose only live subscribers are cancelled jobs are
        dropped from the queue (if still queued) or stopped through the
        orchestrator's cancellation event (if running) -- results other
        jobs are waiting on keep running.
        """
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                return False
            job.cancelled = True
            for fp in list(job.pending):
                execution = self._executions.get(fp)
                if execution is None:
                    continue
                live = [sub for sub in execution.subscribers
                        if not sub.cancelled and not sub.terminal]
                if live:
                    continue  # someone else still wants this point
                if execution.state == QUEUED:
                    try:
                        self._queue.remove(execution)
                    except ValueError:
                        pass
                    self._executions.pop(fp, None)
                    self.counters["points_cancelled"] += 1
                else:
                    execution.cancel.set()
            # Finalize the job now; late deliveries skip terminal jobs.
            for fp in list(job.pending):
                for label in job.labels_for(fp):
                    job.point_status[label].state = "cancelled"
                job.pending.discard(fp)
            self._finalize(job, CANCELLED)
            self._wake.notify_all()
            return True

    def stats(self) -> dict:
        """Queue depth, per-tenant occupancy, counters, store stats."""
        with self._lock:
            self._reap_expired_claims()
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            data = {
                "uptime_seconds": time.time() - self.started_at,
                "workers": self.workers,
                "per_tenant": self.per_tenant,
                # Advertised so remote sweeps and workers can refuse to
                # talk to a service whose fingerprints they'd miss.
                "settings": dict(self.runner.cache_settings()),
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "running": len(self._running),
                "claims": {
                    "active": len(self._claims),
                    "ttl_seconds": self.claim_ttl_seconds,
                    "workers": sorted({
                        execution.claimed_by
                        for execution in self._claims.values()
                        if execution.claimed_by
                    }),
                },
                "running_by_tenant": {
                    tenant: count
                    for tenant, count in self._tenant_running.items()
                    if count
                },
                "jobs_by_state": by_state,
                "counters": dict(self.counters),
            }
            store = self._store
            if store is not None and hasattr(store, "stats"):
                data["store"] = store.stats()
            return data

    def maintain(self) -> Optional[dict]:
        """One maintenance pass: store TTL/LRU gc + tmp sweep."""
        store = self._store
        if store is None or not hasattr(store, "gc"):
            return None
        return store.gc(max_age_seconds=self.store_ttl_seconds,
                        max_entries=self.store_max_entries)

    def _maintenance_loop(self) -> None:
        while not self._maintenance_stop.wait(self.maintenance_interval):
            try:
                self.maintain()
            except Exception:  # noqa: BLE001 -- keep the loop alive
                pass

    def shutdown(self, cancel_running: bool = False) -> None:
        """Stop accepting work and wind the worker threads down."""
        with self._wake:
            self._shutdown = True
            if cancel_running:
                for execution in self._running.values():
                    execution.cancel.set()
            self._wake.notify_all()
        self._maintenance_stop.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        if self._maintenance_thread is not None:
            self._maintenance_thread.join(timeout=5.0)
