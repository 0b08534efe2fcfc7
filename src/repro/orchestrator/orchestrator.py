"""Sweep execution over pluggable backends, with fault tolerance.

Independent simulation points are embarrassingly parallel, so the
:class:`SweepOrchestrator` fans the unique RunKeys of one or more
:class:`~repro.orchestrator.sweep.Sweep`\\ s out to an
:class:`~repro.orchestrator.executors.ExecutorBackend` and streams
completed results back through the parent runner's cache/store path
(``ExperimentRunner.publish``), which makes interrupted sweeps
resumable: re-running skips every point the store already holds.

The orchestrator owns *policy* and the backend owns *mechanism*:
resume, dedup, bounded retry, timeouts, restart budgets and
cancellation all live here, in one generic loop, so
:class:`~repro.orchestrator.executors.LocalExecutor` (process pool),
:class:`~repro.orchestrator.executors.ShardedExecutor`
(coordinator-free ``--shard i/N`` partitioning) and
:class:`~repro.orchestrator.executors.RemoteExecutor` (PR-6 service
endpoints) inherit identical semantics.

Fault tolerance, in order of escalation:

* a point raising an exception costs it one attempt; the point is
  retried up to ``retries`` times, then recorded as a
  :class:`PointFailure` without sinking the rest of the sweep;
* a point exceeding ``timeout`` seconds is treated the same way, and
  the backend is asked to abandon it (a pool with hung workers demands
  a rebuild; remote endpoints just cancel the job);
* a *lost* completion (worker killed by the OS, endpoint gone) re-queues
  everything in flight and restarts the backend with exponential
  backoff;
* backpressure (:class:`~repro.orchestrator.executors.Backpressure`,
  e.g. HTTP 429) pauses submissions for the advertised delay without
  charging an attempt;
* after ``max_pool_restarts`` rebuilds -- or if the backend cannot
  start at all -- the orchestrator degrades gracefully to inline
  serial execution in the parent process, as it also does for
  ``workers=1`` (where a pool would only add overhead).

Cancellation: passing ``stop`` (anything with ``is_set()``, e.g. a
``threading.Event``) makes the orchestrator abort cooperatively -- the
inline path stops between points, concurrent backends notice within
one polling tick and kill whatever is in flight. An aborted run sets
``SweepReport.cancelled``; results that completed before the abort are
still published, so nothing is wasted and the store stays consistent
(its writes are atomic).

Results are bitwise identical to the serial path: workers run the exact
same ``ExperimentRunner._simulate`` on deterministic, seeded workloads.
"""

from __future__ import annotations

import collections
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.system import RunResult
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import key_fingerprint
from repro.orchestrator.executors import (
    Backpressure,
    BackendError,
    ExecutorBackend,
    InlineExecutor,
    LocalExecutor,
    _worker_init,  # noqa: F401 -- re-exported for backward compat
    _worker_run,  # noqa: F401 -- re-exported for backward compat
)
from repro.orchestrator.progress import ProgressReporter
from repro.orchestrator.sweep import Sweep


@dataclass
class PointFailure:
    """A point that exhausted its attempts."""

    key: RunKey
    label: str
    error: str
    attempts: int


@dataclass
class SweepReport:
    """What happened to every point of an orchestrated sweep."""

    results: Dict[RunKey, RunResult] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)
    cache_hits: int = 0
    simulated: int = 0
    retries: int = 0
    pool_restarts: int = 0
    duplicates: int = 0
    skipped: int = 0
    shard: Optional[str] = None
    wall_seconds: float = 0.0
    mode: str = "pool"
    cancelled: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """One-line human summary of the sweep outcome."""
        parts = [
            f"{len(self.results)} points",
            f"{self.simulated} simulated",
            f"{self.cache_hits} cached",
            f"{self.duplicates} deduplicated",
        ]
        if self.shard is not None:
            parts.append(f"shard {self.shard} "
                         f"({self.skipped} left to peers)")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.pool_restarts:
            parts.append(f"{self.pool_restarts} pool restarts")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        if self.cancelled:
            parts.append("CANCELLED")
        parts.append(f"{self.wall_seconds:.1f}s wall ({self.mode})")
        return ", ".join(parts)


class SweepOrchestrator:
    """Executes sweeps over a backend, serially as a fallback."""

    def __init__(self, runner: ExperimentRunner,
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff: float = 0.5,
                 max_pool_restarts: int = 3,
                 progress: Optional[ProgressReporter] = None,
                 task_fn: Optional[Callable[[RunKey], RunResult]] = None,
                 stop=None,
                 backend: Optional[ExecutorBackend] = None,
                 ) -> None:
        self.runner = runner
        self.workers = workers if workers is not None else (
            os.cpu_count() or 1
        )
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.max_pool_restarts = max_pool_restarts
        self.progress = progress if progress is not None else (
            ProgressReporter(stream=None)
        )
        #: The function a worker runs for one point; overridable for
        #: tests and custom execution backends. Must be picklable
        #: (module-level) when a process pool is used.
        self.task_fn = task_fn
        #: Cooperative cancellation: anything with ``is_set()``. When it
        #: trips, the run aborts (in-flight work killed, pending points
        #: dropped) and the report comes back with ``cancelled=True``.
        self.stop = stop
        #: Execution backend; None = pick by ``workers`` (inline vs
        #: local process pool), the historical behaviour.
        self.backend = backend

    def _stopped(self) -> bool:
        return self.stop is not None and self.stop.is_set()

    def _default_backend(self) -> ExecutorBackend:
        if self.workers <= 1:
            return InlineExecutor()
        return LocalExecutor()

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def run(self, *sweeps: Sweep) -> SweepReport:
        """Execute every unique point of the given sweeps.

        Identical RunKeys appearing in several sweeps (or several times
        within one) are simulated once. Completed results are published
        to the runner's cache and store as they arrive, so the figures
        that consume them afterwards hit cache, and an interrupted
        sweep resumes from the store on the next invocation.

        A sharding backend first drops the points other shards own
        (``report.skipped``) -- before the cache lookup, so shards never
        touch, and a dead host costs only its own shard's points.
        """
        report = SweepReport()
        started = time.monotonic()

        backend = (self.backend if self.backend is not None
                   else self._default_backend())
        backend.bind(self)

        labels: Dict[RunKey, str] = {}
        requested = 0
        for sweep in sweeps:
            for point in sweep:
                requested += 1
                labels.setdefault(point.key, point.label)
        report.duplicates = requested - len(labels)

        if backend.shard_spec is not None:
            report.shard = backend.shard_spec
            settings = self.runner.cache_settings()
            mine: Dict[RunKey, str] = {}
            for key, label in labels.items():
                if backend.accepts(key, key_fingerprint(key, settings)):
                    mine[key] = label
                else:
                    report.skipped += 1
            labels = mine

        self.progress.start(total=len(labels), workers=self.workers)
        if report.skipped:
            self.progress.note(
                f"shard {report.shard}: claimed {len(labels)} points, "
                f"left {report.skipped} to peer shards"
            )

        # Resume: skip everything the cache/store already holds.
        pending: "collections.OrderedDict[RunKey, str]" = (
            collections.OrderedDict()
        )
        for key, label in labels.items():
            cached = self.runner.lookup(key)
            if cached is not None:
                report.results[key] = cached
                report.cache_hits += 1
                self.progress.cache_hit(label)
            else:
                pending[key] = label

        if pending:
            report.mode = backend.name
            self._run_backend(backend, pending, report)

        report.wall_seconds = time.monotonic() - started
        self.progress.finish()
        return report

    # ------------------------------------------------------------------
    # Inline (serial) execution: the terminal degradation target.
    # ------------------------------------------------------------------

    def _execute_inline(self, key: RunKey) -> RunResult:
        if self.task_fn is not None:
            result = self.task_fn(key)
            self.runner.publish(key, result)
            return result
        return self.runner.run(key)

    def _run_inline(self, pending: Dict[RunKey, str],
                    report: SweepReport) -> None:
        for key, label in pending.items():
            if self._stopped():
                report.cancelled = True
                return
            attempts = 0
            while True:
                attempts += 1
                begun = time.monotonic()
                try:
                    result = self._execute_inline(key)
                except Exception as exc:  # noqa: BLE001 -- recorded
                    if self._stopped():
                        report.cancelled = True
                        return
                    if attempts <= self.retries:
                        report.retries += 1
                        self.progress.point_retried(label, str(exc),
                                                    attempts)
                        time.sleep(self.backoff * (2 ** (attempts - 1)))
                        continue
                    report.failures.append(
                        PointFailure(key, label, str(exc), attempts)
                    )
                    self.progress.point_failed(label, str(exc))
                    break
                report.results[key] = result
                report.simulated += 1
                self.progress.point_done(label, time.monotonic() - begun)
                break

    # ------------------------------------------------------------------
    # The generic backend-driving loop.
    # ------------------------------------------------------------------

    def _run_backend(self, backend: ExecutorBackend,
                     pending: Dict[RunKey, str],
                     report: SweepReport) -> None:
        queue: Deque[RunKey] = collections.deque(pending)
        labels = dict(pending)
        attempts: Dict[RunKey, int] = collections.defaultdict(int)
        inflight: Dict[object, Tuple[RunKey, float]] = {}
        restarts = 0
        degraded = False
        resume_at = 0.0  # backpressure: no submissions before this
        tick = 0.1 if self.timeout is not None else 0.5

        try:
            backend.start()
        except BackendError as exc:
            # close() always runs (the ExecutorBackend lifecycle): a
            # start that got part way may hold sockets or processes.
            backend.close()
            self.progress.note(f"{backend.name} backend unavailable "
                               f"({exc}); running inline")
            report.mode = "inline"
            self._run_inline(pending, report)
            return

        def fail_or_requeue(key: RunKey, reason: str) -> None:
            if attempts[key] <= self.retries:
                report.retries += 1
                self.progress.point_retried(labels[key], reason,
                                            attempts[key])
                if backend.retry_backoff:
                    time.sleep(self.backoff * (2 ** (attempts[key] - 1)))
                queue.append(key)
            else:
                report.failures.append(
                    PointFailure(key, labels[key], reason, attempts[key])
                )
                self.progress.point_failed(labels[key], reason)

        def restart_backend(reason: str) -> bool:
            """Re-queue in-flight work and rebuild; False = degrade."""
            nonlocal restarts
            restarts += 1
            report.pool_restarts += 1
            for key, _ in inflight.values():
                queue.appendleft(key)
            inflight.clear()
            if restarts > self.max_pool_restarts:
                self.progress.note(
                    f"{backend.name} backend died {restarts} times "
                    f"({reason}); degrading to inline execution"
                )
                return False
            time.sleep(self.backoff * (2 ** (restarts - 1)))
            self.progress.note(
                f"restarting {backend.name} backend ({reason})"
            )
            if not backend.restart():
                self.progress.note(
                    f"{backend.name} backend restart failed; "
                    "degrading to inline execution"
                )
                return False
            return True

        try:
            while queue or inflight:
                if self._stopped():
                    # Kill in-flight work so a mid-simulation point
                    # dies with its worker; completed results were
                    # already published as they arrived.
                    report.cancelled = True
                    backend.cancel()
                    return

                while (queue and len(inflight) < backend.capacity
                       and time.monotonic() >= resume_at):
                    key = queue.popleft()
                    attempts[key] += 1
                    try:
                        handle = backend.submit(key, labels[key])
                    except Backpressure as bp:
                        attempts[key] -= 1
                        queue.appendleft(key)
                        resume_at = time.monotonic() + bp.retry_after
                        self.progress.note(
                            f"{backend.name} backend backpressure; "
                            f"pausing submissions {bp.retry_after:.0f}s"
                        )
                        break
                    except BackendError as exc:
                        attempts[key] -= 1
                        queue.appendleft(key)
                        if not restart_backend(str(exc)):
                            degraded = True
                        break
                    inflight[handle] = (key, time.monotonic())
                if degraded:
                    break

                if not inflight:
                    if not queue:
                        break
                    # Backpressured with nothing in flight: wait it out
                    # (still a bounded tick, so cancellation stays
                    # responsive).
                    pause = max(resume_at - time.monotonic(), 0.0)
                    time.sleep(min(pause, tick) or tick)
                    continue

                lost: Optional[str] = None
                for completion in backend.poll(tick):
                    entry = inflight.pop(completion.handle, None)
                    if entry is None:
                        continue  # pre-restart straggler; superseded
                    key, begun = entry
                    if completion.lost:
                        fail_or_requeue(key, completion.error
                                        or "backend failure")
                        lost = completion.error or "backend failure"
                        break
                    if completion.error is not None:
                        fail_or_requeue(key, completion.error)
                    else:
                        self.runner.publish(key, completion.result)
                        report.results[key] = completion.result
                        report.simulated += 1
                        self.progress.point_done(
                            labels[key], time.monotonic() - begun
                        )

                if lost is not None:
                    if not restart_backend(lost):
                        break
                    continue

                if self.timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        handle
                        for handle, (_, begun) in inflight.items()
                        if now - begun > self.timeout
                    ]
                    if expired:
                        for handle in expired:
                            key, _ = inflight.pop(handle)
                            fail_or_requeue(
                                key,
                                f"timed out after {self.timeout:g}s",
                            )
                        healthy = backend.abandon(expired)
                        # Hung slots only come back with a rebuild
                        # (unless the sweep is over anyway).
                        if not (queue or inflight):
                            break
                        if not healthy and not restart_backend(
                                "point timeout"):
                            break
        finally:
            backend.close()

        if report.cancelled:
            return

        # Terminal degradation: whatever the backend never finished
        # runs inline (points that already failed permanently stay
        # failed).
        leftovers = collections.OrderedDict(
            (key, labels[key]) for key in queue
        )
        for key, _ in inflight.values():
            leftovers.setdefault(key, labels[key])
        if leftovers:
            report.mode = f"{report.mode}+inline"
            self._run_inline(leftovers, report)
