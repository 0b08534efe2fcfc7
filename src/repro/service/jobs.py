"""Job model for the simulation service.

A :class:`Job` is one client submission: an ordered list of labelled
experiment points, each resolved to a content-addressed fingerprint
(:func:`~repro.experiments.store.key_fingerprint`). Points are the unit
of dedup -- a job does not own the simulations it needs, it *subscribes*
to per-fingerprint executions managed by the
:class:`~repro.service.manager.JobManager`, so identical points
submitted by any number of clients are simulated exactly once.

Every job carries a silent :class:`ProgressReporter` as its statistics
aggregator (rate, ETA, utilization -- the same math the sweep CLI
prints) and an :class:`EventLog` that the HTTP layer streams to clients
as NDJSON/SSE. The reporter's structured ``on_event`` hook feeds the
log directly: progress events and stream events are one vocabulary.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.experiments.runner import RunKey
from repro.orchestrator.progress import ProgressReporter

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Per-point states (``PointStatus.state``).
POINT_STATES = ("cached", "coalesced", "queued", "running", "done",
                "failed", "cancelled")


class EventLog:
    """An append-only, thread-safe event sequence with follow support.

    Events are plain dicts stamped with a monotonically increasing
    ``seq``. :meth:`follow` yields events as they arrive and returns
    once the log is closed (job reached a terminal state) and drained,
    which is exactly the lifetime of one ``GET /jobs/<id>/events``
    response.
    """

    def __init__(self) -> None:
        self._events: List[dict] = []
        self._cond = threading.Condition()
        self._closed = False

    def append(self, event: dict) -> dict:
        """Stamp ``event`` with the next ``seq`` and publish it."""
        with self._cond:
            event = dict(event)
            event["seq"] = len(self._events)
            self._events.append(event)
            self._cond.notify_all()
            return event

    def close(self) -> None:
        """Mark the log complete; followers drain and stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until the log closes (or ``timeout``); True if closed."""
        with self._cond:
            return self._cond.wait_for(lambda: self._closed, timeout)

    def snapshot(self, since: int = 0) -> List[dict]:
        """Copy of the events from sequence number ``since`` on."""
        with self._cond:
            return list(self._events[since:])

    def follow(self, since: int = 0,
               poll_seconds: float = 0.5,
               timeout: Optional[float] = None) -> Iterator[dict]:
        """Yield events from ``since`` until the log closes.

        ``timeout`` bounds the total wait (None = unbounded); the
        per-wake ``poll_seconds`` keeps a dropped client from pinning a
        handler thread forever between events.
        """
        cursor = since
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                while cursor >= len(self._events) and not self._closed:
                    if deadline is not None and time.monotonic() >= deadline:
                        return
                    self._cond.wait(poll_seconds)
                batch = self._events[cursor:]
                cursor = len(self._events)
                closed = self._closed
            for event in batch:
                yield event
            if closed and cursor >= len(self._events):
                return


class PointStatus:
    """Where one labelled point of a job currently stands."""

    __slots__ = ("label", "fingerprint", "state", "error")

    def __init__(self, label: str, fingerprint: str, state: str) -> None:
        self.label = label
        self.fingerprint = fingerprint
        self.state = state
        self.error: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-ready rendering (error included only when set)."""
        data = {"label": self.label, "fingerprint": self.fingerprint,
                "state": self.state}
        if self.error is not None:
            data["error"] = self.error
        return data


class Job:
    """One client submission; mutated only under the manager's lock."""

    def __init__(self, job_id: str, tenant: str, name: str,
                 points: List[Tuple[str, RunKey]],
                 fingerprints: Dict[RunKey, str]) -> None:
        self.id = job_id
        self.tenant = tenant
        self.name = name
        #: Ordered (label, key) pairs exactly as submitted.
        self.points = points
        #: Unique key -> content fingerprint (includes runner settings).
        self.fingerprints = fingerprints
        self.state = QUEUED
        self.cancelled = False
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        #: label -> RunResult for every resolved point.
        self.results: Dict[str, object] = {}
        #: Per-label status, in submission order.
        self.point_status: Dict[str, PointStatus] = {}
        #: Fingerprints this job is still waiting on.
        self.pending: set = set(fingerprints.values())
        self.events = events = EventLog()

        def on_progress_event(event: dict) -> None:
            # The reporter's structured hook feeds the job's event
            # stream. A closure, not a bound method: that would make a
            # job <-> reporter cycle, and a forgotten job would wait for
            # the cyclic garbage collector instead of being freed.
            events.append(dict(event, job=job_id))

        self.reporter = ProgressReporter(
            stream=None, label=job_id, on_event=on_progress_event,
        )

    # ------------------------------------------------------------------

    def labels_for(self, fingerprint: str) -> List[str]:
        """Every submitted label whose key hashes to ``fingerprint``."""
        return [label for label, key in self.points
                if self.fingerprints.get(key) == fingerprint]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def finalize(self, state: str) -> None:
        """Move to terminal ``state``, emit the last events, close up."""
        self.state = state
        self.finished_at = time.time()
        self.reporter.finish()
        self.events.append({
            "type": "job", "job": self.id, "state": state,
            "failed": sum(1 for status in self.point_status.values()
                          if status.state == "failed"),
        })
        self.events.close()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.events.wait_closed(timeout)

    def progress(self) -> dict:
        """The reporter's counter snapshot plus rate/ETA/utilization."""
        reporter = self.reporter
        return {
            "done": reporter.done,
            "total": reporter.total,
            "executed": reporter.executed,
            "cached": reporter.cached,
            "failed": reporter.failed,
            "retried": reporter.retried,
            "seconds_per_point": reporter.seconds_per_point(),
            "utilization": reporter.utilization(),
            "eta_seconds": reporter.eta_seconds(),
            "wall_seconds": reporter.wall_seconds(),
        }

    def to_dict(self, include_points: bool = True) -> dict:
        """The job's REST rendering (per-point states optional)."""
        data = {
            "id": self.id,
            "tenant": self.tenant,
            "name": self.name,
            "state": self.state,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "points_total": len(self.points),
            "progress": self.progress(),
            "events": f"/jobs/{self.id}/events",
            "result": f"/jobs/{self.id}/result",
        }
        if include_points:
            data["points"] = [
                self.point_status[label].to_dict()
                for label, _ in self.points
            ]
        return data
