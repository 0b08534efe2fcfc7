"""Pluggable executor backends for the sweep orchestrator.

The :class:`~repro.orchestrator.orchestrator.SweepOrchestrator` owns
*policy* -- resume, dedup, bounded retry, timeouts, restart budgets,
cancellation -- while a backend owns *mechanism*: where a RunKey
actually executes. The protocol is deliberately small
(``submit/poll/abandon/restart/cancel``) so every backend inherits the
same fault-tolerance semantics, enforced by the shared conformance
suite in ``tests/test_executors.py``:

* :class:`InlineExecutor` -- serial execution in the calling process
  (the ``workers=1`` path and the terminal degradation target);
* :class:`LocalExecutor` -- the historical ``ProcessPoolExecutor``
  path, extracted behind the protocol;
* :class:`ShardedExecutor` -- coordinator-free horizontal scaling:
  deterministically claims the subset of RunKeys whose fingerprint
  hashes to this shard (:func:`shard_of`) and delegates their
  execution to an inner backend. N hosts each run one shard into the
  same (shared or later-merged) atomic ResultStore; a plain unsharded
  re-run on any host is the merge/straggler pass;
* :class:`RemoteExecutor` -- drives one or more ``repro serve``
  endpoints through :class:`~repro.service.client.ServiceClient`:
  uncached points become single-point jobs, 429 backpressure surfaces
  as :class:`Backpressure`, progress streams back into the local
  reporter, and stragglers are work-stolen by speculatively
  resubmitting to an idle endpoint.

Backends raise :class:`BackendError` when their transport is gone
(pool unbuildable, every endpoint down); the orchestrator responds
with its restart-then-degrade-to-inline ladder, so a sweep always
terminates with an honest report.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.system import RunResult
from repro.experiments.runner import ExperimentRunner, RunKey

# ----------------------------------------------------------------------
# Worker-process side (LocalExecutor). The initializer builds one
# runner per worker process (the GPU config is pickled once, not per
# point); tasks then only ship a RunKey out and a RunResult back.
# ----------------------------------------------------------------------

_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _worker_init(base_gpu, mdr_epoch: int, max_cycles: int) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner(
        base_gpu=base_gpu, mdr_epoch=mdr_epoch, max_cycles=max_cycles,
    )


def _worker_run(key: RunKey) -> RunResult:
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    return _WORKER_RUNNER.run(key)


# ----------------------------------------------------------------------
# Protocol types.
# ----------------------------------------------------------------------


class BackendError(RuntimeError):
    """The backend's transport failed; the orchestrator should restart
    it (or degrade to inline) rather than charge the point an attempt.
    """


class Backpressure(RuntimeError):
    """The backend refused a submission (e.g. HTTP 429); the
    orchestrator pauses submissions for ``retry_after`` seconds without
    charging the point an attempt.
    """

    def __init__(self, message: str, retry_after: float = 5.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.5, retry_after)


@dataclass
class Completion:
    """One finished submission, successful or not.

    ``lost=True`` means the execution substrate itself failed (worker
    process died, endpoint unreachable with no replica) -- the
    orchestrator re-queues everything in flight and restarts the
    backend, exactly the old BrokenProcessPool path.
    """

    handle: object
    key: RunKey
    result: Optional[RunResult] = None
    error: Optional[str] = None
    lost: bool = False


def shard_of(fingerprint: str, shards: int) -> int:
    """Deterministic shard index of a store fingerprint.

    Hashes the fingerprint *again* (sha256, not ``hash()``) so the
    partition is stable across hosts, Python versions and
    ``PYTHONHASHSEED``, and stays uniform even though fingerprints are
    themselves hex digests.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(fingerprint.encode()).hexdigest()
    return int(digest[:8], 16) % shards


class ExecutorBackend:
    """The submit/poll/abandon/restart/cancel protocol.

    Lifecycle, as driven by the orchestrator::

        backend.bind(orchestrator)      # once, before anything else
        backend.start()                 # may raise BackendError
        while work remains:
            handle = backend.submit(key, label)   # up to .capacity
            for completion in backend.poll(tick): ...
            backend.abandon(expired)    # timeout path; False = rebuild
            backend.restart()           # after a lost completion
        backend.cancel()                # cooperative stop tripped
        backend.close()                 # always, even after a failed start

    Implementations keep *no* retry bookkeeping -- attempts, budgets
    and re-queueing live in the orchestrator so semantics cannot drift
    between backends.
    """

    #: Mode string recorded in ``SweepReport.mode``.
    name = "backend"
    #: Max submissions the orchestrator keeps in flight.
    capacity = 1
    #: True = sleep with exponential backoff before re-running a
    #: retried point (the historical inline behaviour; pools and
    #: remote endpoints reorder instead of sleeping).
    retry_backoff = False
    #: ``"i/N"`` when the backend partitions work, else None.
    shard_spec: Optional[str] = None

    def bind(self, orchestrator) -> None:
        """Attach the driving orchestrator (runner, task_fn, knobs)."""
        self.orchestrator = orchestrator

    def accepts(self, key: RunKey, fingerprint: str) -> bool:
        """Whether this backend claims the point (shard filtering)."""
        return True

    def start(self) -> None:
        """Bring the transport up; raise :class:`BackendError` if not."""

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        """Dispatch one point; returns an opaque in-flight handle."""
        raise NotImplementedError

    def poll(self, timeout: float) -> List[Completion]:
        """Completions since the last poll, waiting up to ``timeout``."""
        raise NotImplementedError

    def abandon(self, handles: Sequence[object]) -> bool:
        """Give up on timed-out handles. False = transport needs a
        restart to reclaim their slots (hung pool workers)."""
        return True

    def restart(self) -> bool:
        """Tear down and rebuild the transport; False = unrecoverable."""
        return False

    def cancel(self) -> None:
        """Hard-stop everything in flight (cooperative cancellation)."""

    def close(self) -> None:
        """Release resources; must be idempotent."""


# ----------------------------------------------------------------------
# Inline.
# ----------------------------------------------------------------------


class InlineExecutor(ExecutorBackend):
    """Serial execution in the calling process.

    ``submit`` runs the point synchronously and parks the outcome for
    the next ``poll``. Capacity 1 by construction, so the orchestrator
    degenerates to the classic run/record loop.
    """

    name = "inline"
    capacity = 1
    retry_backoff = True

    def __init__(self) -> None:
        self._done: List[Completion] = []

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        orchestrator = self.orchestrator
        try:
            if orchestrator.task_fn is not None:
                result = orchestrator.task_fn(key)
            else:
                result = orchestrator.runner.run(key)
        except Exception as exc:  # noqa: BLE001 -- recorded per point
            self._done.append(Completion(key, key, error=str(exc)))
        else:
            self._done.append(Completion(key, key, result=result))
        return key

    def poll(self, timeout: float) -> List[Completion]:
        done, self._done = self._done, []
        return done

    def restart(self) -> bool:
        return True


# ----------------------------------------------------------------------
# Local process pool.
# ----------------------------------------------------------------------


class LocalExecutor(ExecutorBackend):
    """The ProcessPoolExecutor path behind the backend protocol.

    Futures are the handles. A BrokenProcessPool surfaces as a ``lost``
    completion (the orchestrator re-queues all of in-flight and asks
    for a restart); hung workers cannot be cancelled, so ``abandon``
    answers False to force the same rebuild.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[object, RunKey] = {}

    def bind(self, orchestrator) -> None:
        super().bind(orchestrator)
        if self.workers is None:
            self.workers = orchestrator.workers
        self.capacity = max(1, self.workers)

    def _make_pool(self) -> Optional[ProcessPoolExecutor]:
        orchestrator = self.orchestrator
        try:
            if orchestrator.task_fn is not None:
                return ProcessPoolExecutor(max_workers=self.capacity)
            runner = orchestrator.runner
            return ProcessPoolExecutor(
                max_workers=self.capacity,
                initializer=_worker_init,
                initargs=(runner.base_gpu, runner.mdr_epoch,
                          runner.max_cycles),
            )
        except Exception:  # noqa: BLE001 -- e.g. sandboxed /dev/shm
            return None

    def start(self) -> None:
        self._pool = self._make_pool()
        if self._pool is None:
            raise BackendError("process pool unavailable")

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        orchestrator = self.orchestrator
        task = (orchestrator.task_fn if orchestrator.task_fn is not None
                else _worker_run)
        try:
            future = self._pool.submit(task, key)
        except Exception as exc:  # noqa: BLE001 -- pool already broken
            raise BackendError(str(exc)) from None
        self._futures[future] = key
        return future

    def poll(self, timeout: float) -> List[Completion]:
        if not self._futures:
            return []
        done, _ = wait(list(self._futures), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        completions: List[Completion] = []
        for future in done:
            key = self._futures.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                # Can't tell which worker died; the orchestrator will
                # re-queue everything in flight and restart us.
                completions.append(Completion(
                    future, key, error="worker process died", lost=True,
                ))
            except Exception as exc:  # noqa: BLE001 -- recorded
                completions.append(Completion(future, key,
                                              error=str(exc)))
            else:
                completions.append(Completion(future, key, result=result))
        return completions

    def abandon(self, handles: Sequence[object]) -> bool:
        for handle in handles:
            self._futures.pop(handle, None)
        # Hung workers can't be cancelled; their slots only come back
        # with a pool rebuild.
        return False

    def restart(self) -> bool:
        self._kill_pool()
        self._futures.clear()
        self._pool = self._make_pool()
        return self._pool is not None

    def cancel(self) -> None:
        # Kill the pool so a mid-simulation point dies with its worker.
        self._kill_pool()

    def close(self) -> None:
        self._kill_pool()

    def _kill_pool(self) -> None:
        # After shutdown() the executor sets _processes to None, so a
        # second kill (restart path, then the final cleanup) must not
        # trip over it.
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in (getattr(pool, "_processes", None) or {}).values():
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 -- already gone
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 -- pool already broken
            pass


# ----------------------------------------------------------------------
# Coordinator-free sharding.
# ----------------------------------------------------------------------


class ShardedExecutor(ExecutorBackend):
    """Claims shard ``index`` of ``count`` and delegates execution.

    There is no coordinator: every shard computes the identical
    fingerprint partition locally (:func:`shard_of`), so N hosts
    running ``repro sweep --shard i/N`` with the same sweep arguments
    cover the key space exactly once with zero communication. Each
    shard publishes into its (shared or later-rsynced) ResultStore;
    because saves are atomic and content-addressed, merging stores is
    plain file union, and a final *unsharded* run on any host resumes
    from cache and completes stragglers from dead shards -- that run's
    report is bit-identical to a single-host sweep.

    Fault isolation is inherent: a shard that dies loses only its own
    un-published points, never another shard's results.
    """

    def __init__(self, index: int, count: int,
                 inner: Optional[ExecutorBackend] = None) -> None:
        if count < 1 or not 0 <= index < count:
            raise ValueError(
                f"bad shard spec {index}/{count}: need 0 <= i < N"
            )
        self.index = index
        self.count = count
        self.inner = inner
        self.shard_spec = f"{index}/{count}"

    def bind(self, orchestrator) -> None:
        super().bind(orchestrator)
        if self.inner is None:
            self.inner = orchestrator._default_backend()
        self.inner.bind(orchestrator)
        self.name = self.inner.name

    # Everything but `accepts` delegates to the inner backend.

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    @property
    def retry_backoff(self) -> bool:
        return self.inner.retry_backoff

    def accepts(self, key: RunKey, fingerprint: str) -> bool:
        return shard_of(fingerprint, self.count) == self.index

    def start(self) -> None:
        self.inner.start()

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        return self.inner.submit(key, label)

    def poll(self, timeout: float) -> List[Completion]:
        return self.inner.poll(timeout)

    def abandon(self, handles: Sequence[object]) -> bool:
        return self.inner.abandon(handles)

    def restart(self) -> bool:
        return self.inner.restart()

    def cancel(self) -> None:
        self.inner.cancel()

    def close(self) -> None:
        self.inner.close()


# ----------------------------------------------------------------------
# Remote service endpoints.
# ----------------------------------------------------------------------


class _RemoteJob:
    """Executor-side state for one in-flight point (plus its spare)."""

    __slots__ = ("key", "label", "attempts", "answered", "submitted_at",
                 "last_retried", "stolen")

    def __init__(self, key: RunKey, label: str) -> None:
        self.key = key
        self.label = label
        #: Live (endpoint_index, job_id) submissions, primary first.
        self.attempts: List = []
        #: Copies whose submission answer was already terminal (a cache
        #: hit), with that state: their results came with the answer.
        self.answered: Dict[Tuple[int, str], str] = {}
        self.submitted_at = time.monotonic()
        self.last_retried = 0
        self.stolen = False

    def add_copy(self, index: int, answer: dict) -> None:
        """Record a submission of this point to endpoint ``index``."""
        copy = (index, answer["id"])
        self.attempts.append(copy)
        if "results" in answer:
            self.answered[copy] = answer["state"]


class RemoteExecutor(ExecutorBackend):
    """Farms points out to ``repro serve`` endpoints as one-point jobs.

    * endpoint selection: least-loaded live endpoint per submission;
    * settings safety: refuses to start against an endpoint whose
      advertised runner settings (``GET /stats`` → ``settings``) differ
      from the local runner's -- mismatched settings would silently
      produce different fingerprints on either side;
    * backpressure: HTTP 429 surfaces as :class:`Backpressure` with the
      server's Retry-After, pausing submissions without charging the
      point an attempt;
    * fault isolation: an unreachable endpoint is marked dead and its
      points come back as retriable errors -- they re-submit to the
      surviving endpoints; only when *every* endpoint is gone does the
      backend raise :class:`BackendError` (restart re-probes, then the
      orchestrator degrades to inline);
    * work stealing: a point in flight longer than ``steal_after``
      seconds is speculatively resubmitted to an idle second endpoint;
      the first terminal copy wins and the loser is cancelled.

    Results come back through the wire codec and are published into the
    local runner's store, so a remote sweep is resumable and
    bit-identical to a local one (the store's save-time equality check
    enforces exactly that). A point the endpoint already holds comes
    back finished in its submission answer, which carries the results
    and counts as their fetch; the next :meth:`poll` completes it from
    that answer without another request.
    """

    name = "remote"
    retry_backoff = False

    def __init__(self, endpoints: Sequence[str],
                 capacity: Optional[int] = None,
                 tenant: str = "sweep",
                 request_timeout: float = 30.0,
                 steal_after: Optional[float] = 30.0,
                 poll_interval: float = 0.2) -> None:
        if not endpoints:
            raise ValueError("RemoteExecutor needs at least one endpoint")
        self.endpoints = [url.rstrip("/") for url in endpoints]
        self._capacity = capacity
        self.tenant = tenant
        self.request_timeout = request_timeout
        self.steal_after = steal_after
        self.poll_interval = poll_interval
        self._clients: List = []
        self._alive: List[bool] = []
        self._jobs: Dict[object, _RemoteJob] = {}
        self._handle_seq = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        # Lazy import: repro.service imports the orchestrator package,
        # so importing it at module scope would be circular.
        from repro.service.client import ServiceClient

        self._close_clients()
        self._clients = [ServiceClient(url, timeout=self.request_timeout)
                         for url in self.endpoints]
        self._alive = [False] * len(self._clients)
        local = self.orchestrator.runner.cache_settings()
        problems = []
        for index, client in enumerate(self._clients):
            try:
                stats = client.stats()
            except Exception as exc:  # noqa: BLE001 -- endpoint down
                problems.append(f"{self.endpoints[index]}: {exc}")
                continue
            remote = stats.get("settings")
            if remote is not None and dict(remote) != dict(local):
                raise BackendError(
                    f"endpoint {self.endpoints[index]} runs settings "
                    f"{remote}, local runner has {local}; results would "
                    "not be comparable"
                )
            self._alive[index] = True
        if not any(self._alive):
            raise BackendError(
                "no live endpoints: " + "; ".join(problems)
            )
        if self._capacity is None:
            self.capacity = 2 * sum(self._alive)
        else:
            self.capacity = max(1, self._capacity)

    def restart(self) -> bool:
        self._jobs.clear()
        try:
            self.start()
        except BackendError:
            return False
        return True

    def cancel(self) -> None:
        for rjob in self._jobs.values():
            self._cancel_copies(rjob.attempts)
        self._jobs.clear()

    def close(self) -> None:
        self.cancel()
        self._close_clients()

    def _close_clients(self) -> None:
        """Close every client's connections (the server then frees the
        handler threads serving them)."""
        for client in self._clients:
            client.close()

    # -- submission -----------------------------------------------------

    def _inflight_on(self, index: int) -> int:
        return sum(1 for rjob in self._jobs.values()
                   for (idx, _) in rjob.attempts if idx == index)

    def _pick_endpoint(self, exclude: Sequence[int] = ()) -> Optional[int]:
        candidates = [index for index, alive in enumerate(self._alive)
                      if alive and index not in exclude]
        if not candidates:
            return None
        return min(candidates, key=self._inflight_on)

    def _submit_to(self, index: int, key: RunKey, label: str) -> dict:
        """One point, one endpoint; returns the service's answer."""
        from repro.service.client import ServiceError

        try:
            job = self._clients[index].submit(
                points=[(label, key)], tenant=self.tenant, name=label,
            )
        except ServiceError as exc:
            if exc.status == 429:
                raise Backpressure(str(exc), exc.retry_after or 5.0)
            raise BackendError(
                f"{self.endpoints[index]} rejected {label!r}: {exc}"
            ) from None
        except OSError as exc:
            self._alive[index] = False
            self.orchestrator.progress.note(
                f"endpoint {self.endpoints[index]} unreachable ({exc})"
            )
            raise ConnectionError(str(exc)) from None
        return job

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        label = label or key.describe()
        while True:
            index = self._pick_endpoint()
            if index is None:
                raise BackendError("all service endpoints are down")
            try:
                answer = self._submit_to(index, key, label)
            except ConnectionError:
                continue  # endpoint just died; try the next one
            rjob = _RemoteJob(key, label)
            rjob.add_copy(index, answer)
            self._handle_seq += 1
            handle = self._handle_seq
            self._jobs[handle] = rjob
            return handle

    # -- polling --------------------------------------------------------

    def poll(self, timeout: float) -> List[Completion]:
        deadline = time.monotonic() + timeout
        while True:
            completions: List[Completion] = []
            for handle, rjob in list(self._jobs.items()):
                outcome = self._check(handle, rjob)
                if outcome is not None:
                    completions.append(outcome)
                    del self._jobs[handle]
            if completions:
                return completions
            self._maybe_steal()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return []
            time.sleep(min(self.poll_interval, remaining))

    def _check(self, handle: object,
               rjob: _RemoteJob) -> Optional[Completion]:
        """Terminal outcome of a point, across all its live copies."""
        from repro.service.client import ServiceError

        errors: List[str] = []
        live: List = []
        for index, job_id in rjob.attempts:
            if not self._alive[index]:
                continue
            # A copy that finished in its submission answer settles
            # without a request: its results came with that answer.
            state = rjob.answered.get((index, job_id))
            if state is None:
                try:
                    info = self._clients[index].job(job_id)
                except ServiceError as exc:
                    errors.append(f"{self.endpoints[index]}: {exc}")
                    continue  # evicted/unknown job: this copy is gone
                except OSError as exc:
                    self._alive[index] = False
                    self.orchestrator.progress.note(
                        f"endpoint {self.endpoints[index]} unreachable "
                        f"({exc})"
                    )
                    continue
                self._forward_retries(rjob, info)
                state = info.get("state")
            if state == "done":
                outcome = self._fetch_result(handle, rjob, index, job_id)
                if outcome is not None:
                    self._cancel_copies(
                        [copy for copy in rjob.attempts
                         if copy != (index, job_id)]
                    )
                    return outcome
                errors.append(f"{self.endpoints[index]}: bad result "
                              "payload")
                continue
            if state in ("failed", "cancelled"):
                error = self._failure_message(index, job_id, state)
                self._cancel_copies(
                    [copy for copy in rjob.attempts
                     if copy != (index, job_id)]
                )
                return Completion(handle, rjob.key, error=error)
            live.append((index, job_id))
        if live:
            rjob.attempts = live
            return None
        # Every copy is gone (endpoints dead or jobs evicted): hand the
        # point back as a retriable error; re-submission will pick a
        # surviving endpoint or escalate to BackendError.
        return Completion(
            handle, rjob.key,
            error="; ".join(errors) or "all copies of the point lost",
        )

    def _fetch_result(self, handle: object, rjob: _RemoteJob,
                      index: int, job_id: str) -> Optional[Completion]:
        from repro.service.client import ServiceError
        from repro.service.codec import result_from_dict

        try:
            payload = self._clients[index].result(job_id)
        except (ServiceError, OSError):
            return None
        results = payload.get("results") or {}
        for encoded in results.values():
            result = result_from_dict(encoded)
            if result is not None:
                return Completion(handle, rjob.key, result=result)
        return None

    def _failure_message(self, index: int, job_id: str,
                         state: str) -> str:
        try:
            payload = self._clients[index].result(job_id)
            failures = payload.get("failures") or {}
            if failures:
                return "; ".join(str(err) for err in failures.values())
        except Exception:  # noqa: BLE001 -- failure detail is optional
            pass
        return f"remote job {state}"

    def _forward_retries(self, rjob: _RemoteJob, info: dict) -> None:
        """Stream remote retry counts into the local reporter."""
        retried = int((info.get("progress") or {}).get("retried") or 0)
        while rjob.last_retried < retried:
            rjob.last_retried += 1
            self.orchestrator.progress.point_retried(
                rjob.label, "remote retry", rjob.last_retried,
            )

    # -- work stealing --------------------------------------------------

    def _maybe_steal(self) -> None:
        if self.steal_after is None or sum(self._alive) < 2:
            return
        now = time.monotonic()
        for rjob in self._jobs.values():
            if rjob.stolen or now - rjob.submitted_at < self.steal_after:
                continue
            busy = [index for index, _ in rjob.attempts]
            index = self._pick_endpoint(exclude=busy)
            if index is None or self._inflight_on(index) > 0:
                continue  # only steal onto an idle endpoint
            try:
                answer = self._submit_to(index, rjob.key, rjob.label)
            except (Backpressure, BackendError, ConnectionError):
                continue  # stealing is strictly best-effort
            rjob.add_copy(index, answer)
            rjob.stolen = True
            self.orchestrator.progress.note(
                f"work-stealing: resubmitted {rjob.label!r} to "
                f"{self.endpoints[index]}"
            )

    # -- teardown helpers ----------------------------------------------

    def _cancel_copies(self, copies: Sequence) -> None:
        for index, job_id in copies:
            try:
                self._clients[index].cancel(job_id)
            except Exception:  # noqa: BLE001 -- best-effort cleanup
                pass

    def abandon(self, handles: Sequence[object]) -> bool:
        for handle in handles:
            rjob = self._jobs.pop(handle, None)
            if rjob is not None:
                self._cancel_copies(rjob.attempts)
        # Remote slots free immediately on cancel; no restart needed.
        return True
