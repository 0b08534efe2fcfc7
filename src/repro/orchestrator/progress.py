"""Progress and ETA reporting for long sweeps.

A sweep over the full 29-benchmark suite runs for hours; without
feedback it is indistinguishable from a hang. :class:`ProgressReporter`
tracks completed points, cache hits, failures, per-point wall-clock and
worker utilization, and periodically emits one-line updates with an
ETA. With ``stream=None`` it stays silent but still accumulates the
statistics the orchestrator folds into its report.

Besides the human-readable stream, the reporter exposes a structured
event hook: :meth:`on_event` registers a callback that receives one
typed dict per progress event (see :data:`EVENT_TYPES`), each carrying
the full counter snapshot plus the derived rate/ETA/utilization
numbers. The service layer (``repro.service``) streams these dicts to
HTTP clients as NDJSON/SSE; anything else that wants machine-readable
progress (dashboards, log shippers) can subscribe the same way.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, TextIO

#: Every ``type`` value a reporter event can carry.
EVENT_TYPES = (
    "start", "cache_hit", "point_done", "point_failed", "point_retried",
    "note", "finish",
)

#: A structured progress event (plain dict, JSON-serialisable).
Event = Dict[str, object]


def _fmt_seconds(seconds: float) -> str:
    if seconds < 90:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 90:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Counts sweep events and prints rate/ETA lines to a stream."""

    def __init__(self, stream="stderr", min_interval: float = 2.0,
                 label: str = "sweep",
                 on_event: Optional[Callable[[Event], None]] = None,
                 ) -> None:
        #: ``"stderr"`` (default) resolves at call time; ``None`` means
        #: silent; anything else is used as a text stream directly.
        self.stream: Optional[TextIO] = (
            sys.stderr if stream == "stderr" else stream
        )
        self.min_interval = min_interval
        self.label = label
        self.total = 0
        self.workers = 1
        self.executed = 0
        self.cached = 0
        self.failed = 0
        self.retried = 0
        self.busy_seconds = 0.0
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        self._last_emit = 0.0
        self._listeners: List[Callable[[Event], None]] = []
        if on_event is not None:
            self._listeners.append(on_event)

    def on_event(self, callback: Callable[[Event], None]
                 ) -> Callable[[Event], None]:
        """Subscribe ``callback`` to structured progress events.

        Each event is a dict with a ``type`` key (one of
        :data:`EVENT_TYPES`), the counter snapshot (``done``, ``total``,
        ``executed``, ``cached``, ``failed``, ``retried``) and the
        derived metrics (``seconds_per_point``, ``utilization``,
        ``eta_seconds``, ``wall_seconds``), plus per-type payload fields
        such as ``label``, ``reason`` or ``elapsed``. Returns the
        callback so it can be used as a decorator.
        """
        self._listeners.append(callback)
        return callback

    def _event(self, type_: str, **payload) -> None:
        if not self._listeners:
            return
        event: Event = {
            "type": type_,
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "retried": self.retried,
            "seconds_per_point": self.seconds_per_point(),
            "utilization": self.utilization(),
            "eta_seconds": self.eta_seconds(),
            "wall_seconds": self.wall_seconds(),
        }
        event.update(payload)
        for callback in list(self._listeners):
            try:
                callback(event)
            except Exception:  # noqa: BLE001 -- a broken subscriber
                pass           # must not break the sweep it watches

    # ------------------------------------------------------------------
    # Events (called by the orchestrator).
    # ------------------------------------------------------------------

    def start(self, total: int, workers: int) -> None:
        """Begin a sweep of ``total`` points on ``workers`` workers."""
        self.total = total
        self.workers = max(1, workers)
        self._started_at = time.monotonic()
        self._finished_at = None
        self._event("start", workers=self.workers)
        self._emit(force=True)

    def cache_hit(self, label: str) -> None:
        """A point was satisfied by the cache/store without running."""
        self.cached += 1
        self._event("cache_hit", point=label)
        self._emit()

    def point_done(self, label: str, elapsed: float) -> None:
        """A point finished simulating after ``elapsed`` seconds."""
        self.executed += 1
        self.busy_seconds += max(0.0, elapsed)
        self._event("point_done", point=label, elapsed=elapsed)
        self._emit()

    def point_failed(self, label: str, reason: str) -> None:
        """A point exhausted its attempts and was recorded as failed."""
        self.failed += 1
        self._event("point_failed", point=label, reason=reason)
        self.note(f"FAILED {label}: {reason}", _structured=False)
        self._emit(force=True)

    def point_retried(self, label: str, reason: str, attempt: int) -> None:
        """A point failed attempt ``attempt`` and was re-queued."""
        self.retried += 1
        self._event("point_retried", point=label, reason=reason,
                    attempt=attempt)
        self.note(f"retry #{attempt} {label}: {reason}", _structured=False)

    def note(self, message: str, _structured: bool = True) -> None:
        """Emit a free-form event line (pool restarts, degradation)."""
        if _structured:
            self._event("note", message=message)
        if self.stream is not None:
            print(f"[{self.label}] {message}", file=self.stream, flush=True)

    # ------------------------------------------------------------------
    # Derived metrics.
    # ------------------------------------------------------------------

    @property
    def done(self) -> int:
        return self.executed + self.cached + self.failed

    def wall_seconds(self) -> float:
        """Wall-clock seconds from :meth:`start` to :meth:`finish`, or
        to now while the sweep runs."""
        if self._started_at is None:
            return 0.0
        end = self._finished_at
        return (time.monotonic() if end is None else end) - self._started_at

    def seconds_per_point(self) -> float:
        """Mean simulation wall-clock per executed point."""
        if self.executed == 0:
            return 0.0
        return self.busy_seconds / self.executed

    def utilization(self) -> float:
        """Fraction of worker capacity spent simulating so far."""
        wall = self.wall_seconds()
        if wall <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (wall * self.workers))

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to finish, or None before any point ran."""
        remaining = self.total - self.done
        if remaining <= 0 or self.executed == 0:
            return 0.0 if remaining <= 0 else None
        return remaining * self.seconds_per_point() / self.workers

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def status_line(self) -> str:
        """The one-line progress rendering (also emitted periodically)."""
        parts = [
            f"{self.done}/{self.total} points",
            f"{self.cached} cached",
        ]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.executed:
            parts.append(f"{self.seconds_per_point():.2f}s/point")
            parts.append(f"util {self.utilization() * 100:.0f}%")
        eta = self.eta_seconds()
        if eta is not None and self.done < self.total:
            parts.append(f"ETA {_fmt_seconds(eta)}")
        return f"[{self.label}] " + " | ".join(parts)

    def _emit(self, force: bool = False) -> None:
        if self.stream is None:
            return
        now = time.monotonic()
        if not force and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        print(self.status_line(), file=self.stream, flush=True)

    def finish(self) -> None:
        """Stop the clock and emit the final summary line."""
        self._finished_at = time.monotonic()
        self._event("finish")
        if self.stream is None:
            return
        wall = _fmt_seconds(self.wall_seconds())
        print(
            f"[{self.label}] done: {self.executed} simulated, "
            f"{self.cached} cached, {self.failed} failed, "
            f"{self.retried} retries in {wall}",
            file=self.stream, flush=True,
        )
