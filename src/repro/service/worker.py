"""Remote sweep worker: pulls executions from a ``repro serve`` queue.

The claim loop is the push-free half of distributed sweeps: a
:class:`ServiceWorker` polls ``POST /claims``, simulates each leased
RunKey on its *own* hardware with a local
:class:`~repro.experiments.runner.ExperimentRunner`, and reports the
RunResult (or failure) back over ``POST /claims/<fingerprint>``. The
service's :class:`~repro.service.manager.JobManager` owns all
bookkeeping -- lease TTLs, bounded retry, fan-out to subscriber jobs --
so workers are stateless and disposable: kill one mid-point and its
lease simply expires and the point is requeued.

Correctness hinges on every worker simulating exactly what the server
would: the same GPU config, model version and runner settings. The
server advertises them in ``GET /stats`` (``settings``, the inputs of
its fingerprints). :meth:`ServiceWorker.from_service` adopts
``mdr_epoch`` and ``max_cycles``; the GPU is not carried on the wire,
so a worker launched with a GPU (``--channels``) or model version other
than the server's refuses with :class:`SettingsMismatchError` before it
claims anything.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Optional

from repro.experiments.runner import ExperimentRunner
from repro.service.client import ServiceClient, ServiceError
from repro.service.codec import runkey_from_dict


class SettingsMismatchError(RuntimeError):
    """The service fingerprints with a GPU, model version or runner
    settings other than this worker's."""


def _refuse_mismatch(url: str, remote, local) -> None:
    if remote is not None and dict(remote) != dict(local):
        raise SettingsMismatchError(
            f"service {url} runs settings {remote}, this worker has "
            f"{local}; results would land under different fingerprints"
        )


class ServiceWorker:
    """One claim-loop worker bound to a service endpoint."""

    def __init__(self, url: str, runner: ExperimentRunner,
                 name: Optional[str] = None,
                 poll_seconds: float = 1.0,
                 request_timeout: float = 30.0) -> None:
        self.client = ServiceClient(url, timeout=request_timeout)
        self.runner = runner
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_seconds = max(0.05, poll_seconds)
        #: Session counters, mirrored by ``repro worker``'s summary.
        self.claimed = 0
        self.completed = 0
        self.failed = 0

    @classmethod
    def from_service(cls, url: str, base_gpu=None, store=None,
                     **kwargs) -> "ServiceWorker":
        """Build a worker whose runner adopts the service's settings.

        Reads ``GET /stats`` → ``settings`` and adopts ``mdr_epoch``
        and ``max_cycles``. ``base_gpu`` is this worker's machine: when
        its digest (or the model version) differs from the server's,
        raises :class:`SettingsMismatchError`.
        """
        with ServiceClient(url, timeout=kwargs.get("request_timeout",
                                                   30.0)) as client:
            settings = client.stats().get("settings")
        runner_kwargs = {}
        for name in ("mdr_epoch", "max_cycles"):
            if settings and name in settings:
                runner_kwargs[name] = int(settings[name])
        runner = ExperimentRunner(base_gpu=base_gpu, store=store,
                                  **runner_kwargs)
        _refuse_mismatch(url, settings, runner.cache_settings())
        return cls(url, runner, **kwargs)

    def close(self) -> None:
        """Close the client's connections (idempotent).

        The server then frees the handler thread that served this
        worker's persistent connection.
        """
        self.client.close()

    def __enter__(self) -> "ServiceWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def check_settings(self) -> None:
        """Refuse to run against a settings-mismatched service."""
        _refuse_mismatch(self.client.base_url,
                         self.client.stats().get("settings"),
                         self.runner.cache_settings())

    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Claim and execute at most one point; False when idle."""
        claim = self.client.claim(self.name)
        if claim is None:
            return False
        self.claimed += 1
        fingerprint = claim["fingerprint"]
        try:
            key = runkey_from_dict(claim["point"])
            result = self.runner.run(key)
        except Exception as exc:  # noqa: BLE001 -- reported upstream
            self.failed += 1
            self._report_failure(fingerprint,
                                 f"{type(exc).__name__}: {exc}")
            return True
        try:
            self.client.complete(fingerprint, result)
            self.completed += 1
        except ServiceError:
            # Lease expired mid-simulation (409): the point was
            # requeued and someone else owns it now; drop our copy.
            self.failed += 1
        return True

    def _report_failure(self, fingerprint: str, error: str) -> None:
        try:
            self.client.fail(fingerprint, error)
        except ServiceError:
            pass  # lease already expired; nothing left to report

    def run(self, max_points: Optional[int] = None,
            idle_exit: Optional[float] = None,
            stop=None) -> int:
        """The claim loop; returns the number of points executed.

        Exits after ``max_points`` executions, after ``idle_exit``
        seconds with nothing to claim, or when ``stop`` (anything with
        ``is_set()``) trips. With no bound it polls forever, riding out
        transient service outages.
        """
        executed = 0
        idle_since: Optional[float] = None
        while True:
            if stop is not None and stop.is_set():
                return executed
            if max_points is not None and executed >= max_points:
                return executed
            try:
                busy = self.step()
            except (ServiceError, OSError):
                busy = False  # service briefly unreachable; keep polling
            if busy:
                executed += 1
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if idle_exit is not None and now - idle_since >= idle_exit:
                return executed
            time.sleep(self.poll_seconds)
