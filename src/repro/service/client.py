"""Thin stdlib HTTP client for the simulation service.

Lets the CLI subcommands (``repro submit|status|fetch``), the CI smoke
test and user scripts talk to ``repro serve`` without any dependency.
Errors come back as :class:`ServiceError` carrying the HTTP status and
the server's JSON ``error`` message; 429 responses also expose
``retry_after``. Transport failures raise :class:`OSError` subclasses.

Requests travel over persistent HTTP/1.1 connections, one per calling
thread, so one client may be shared across threads. Each request leaves
in a single ``sendall``. A request on a reused connection that fails
before any response byte (the server closed it while idle, or was
restarted) is retried once on a fresh connection; that is safe because
the server closes connections only between requests, submissions are
idempotent by fingerprint and claim leases expire. :meth:`events`
streams over a connection of its own. :meth:`ServiceClient.close` (or
leaving a ``with`` block) closes every connection the client opened.

Request sockets block without a timeout: a socket timeout makes
CPython ``poll()`` before every ``recv`` and ``send``, and under a
running simulation each extra call costs an interpreter-lock switch
interval (docs/PERFORMANCE.md, "Service round trips"). A daemon reaper
enforces the request deadlines instead: every 0.5 s it shuts the
socket of each request past its deadline, and that request raises
:class:`TimeoutError` without a retry. Event streams keep a socket
timeout, which bounds each read.

:meth:`ServiceClient.submit` asks with ``?wait=0``. A submission the
server finishes at once (every point cached) comes back with its
results, and :meth:`ServiceClient.result` returns them without a
request: a cache hit is one round trip.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Set, Tuple
from urllib.parse import urlsplit

from repro.experiments.runner import RunKey
from repro.service.codec import result_to_dict, runkey_to_dict


#: Request-path characters ``http.client`` also refuses: controls
#: (CR and LF among them), space and DEL.
_UNSAFE_PATH = re.compile("[\x00-\x20\x7f]")


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


#: Submission answers with results a client keeps for
#: :meth:`ServiceClient.result`; past this the oldest is dropped, and
#: its result is fetched from the server. Callers take an answer right
#: after their submit, or at their next poll (``RemoteExecutor``, with
#: a few points in flight per endpoint), so few are ever kept.
ANSWERS_KEPT = 32


class _NoResponse(ConnectionError):
    """The connection failed before any byte of the response."""


class _Reaper:
    """Enforces request deadlines outside the socket.

    One daemon thread per process, shared by every client, wakes every
    :attr:`interval` seconds, whatever the request rate, while any
    request is in flight, and exits at the first check that finds none.
    It shuts the socket of each request past its deadline and marks
    it; the blocked call then fails, and :meth:`release` reports the
    mark.
    """

    interval = 0.5

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._deadlines: Dict[socket.socket, float] = {}
        self._expired: Set[socket.socket] = set()
        self._thread: Optional[threading.Thread] = None

    def watch(self, sock: socket.socket, deadline: float) -> None:
        """Start the deadline of the request now in flight on ``sock``."""
        with self._lock:
            self._deadlines[sock] = deadline
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="repro-client-reaper",
                    daemon=True)
                self._thread.start()

    def release(self, sock: socket.socket) -> bool:
        """End the request on ``sock``; True if its deadline expired."""
        with self._lock:
            self._deadlines.pop(sock, None)
            if sock in self._expired:
                self._expired.discard(sock)
                return True
            return False

    def _run(self) -> None:
        while True:
            time.sleep(self.interval)
            now = time.monotonic()
            with self._lock:
                if not self._deadlines:
                    self._thread = None  # the next watch starts another
                    return
                for sock, deadline in list(self._deadlines.items()):
                    if deadline > now:
                        continue
                    del self._deadlines[sock]
                    self._expired.add(sock)
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass  # closed meanwhile


_REAPER = _Reaper()


class ServiceClient:
    """A minimal client for one service base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"not an http:// service URL: {base_url!r}")
        self._address = (parts.hostname, parts.port or 80)
        self._host = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every open connection, so close() reaches other threads'.
        self._open: Set[socket.socket] = set()
        #: job id -> submission answer with results, oldest first.
        self._answers: "OrderedDict[str, dict]" = OrderedDict()

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every connection this client holds, on any thread.

        The client stays usable: the next request connects afresh.
        """
        with self._lock:
            socks, self._open = self._open, set()
        for sock in socks:
            sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self, timeout: float) -> socket.socket:
        sock = socket.create_connection(self._address, timeout)
        with self._lock:
            self._open.add(sock)
        return sock

    def _discard(self, sock: socket.socket) -> None:
        if getattr(self._local, "sock", None) is sock:
            self._local.sock = None
        with self._lock:
            self._open.discard(sock)
        sock.close()

    def _message(self, method: str, path: str,
                 body: Optional[dict], close: bool = False) -> bytes:
        """Request line, headers and body as one buffer.

        Like ``http.client``, refuses a path with a control character
        or a space (a job id could otherwise split the request).
        """
        path = self._prefix + path
        if _UNSAFE_PATH.search(path):
            raise ValueError(f"unsafe request path {path!r}")
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self._host}", "Accept: application/json"]
        data = b""
        if body is not None:
            data = json.dumps(body).encode()
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(data)}")
        if close:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data

    def _exchange(self, sock: socket.socket, message: bytes,
                  method: str) -> http.client.HTTPResponse:
        """Send one request; return the response with its head read.

        Raises :class:`_NoResponse` when the connection failed before
        any response byte: a reset, a broken pipe or EOF before the
        status line (which the server's single write per response puts
        in the first segment).
        """
        response = http.client.HTTPResponse(sock, method=method)
        try:
            sock.sendall(message)
            response.begin()
        except ConnectionError as exc:
            response.close()
            raise _NoResponse(str(exc) or repr(exc)) from exc
        except http.client.HTTPException as exc:
            # Not an OSError: wrap it, so callers see one error family.
            response.close()
            raise ConnectionError(
                f"bad response from {self.base_url}: {exc!r}") from None
        return response

    def _request(self, method: str, path: str, body: Optional[dict] = None,
                 timeout: Optional[float] = None):
        """Send over this thread's connection; retry a stale one once.

        A connection in this thread's slot has served a response, so
        a failure before the next response byte means the server
        closed it between requests.
        """
        timeout = self.timeout if timeout is None else timeout
        message = self._message(method, path, body)
        deadline = time.monotonic() + timeout
        sock = getattr(self._local, "sock", None)
        if sock is not None and sock.fileno() >= 0:
            try:
                return self._round_trip(sock, message, method, deadline)
            except _NoResponse:
                pass  # discarded; retried once, below
        sock = self._connect(timeout)
        sock.settimeout(None)  # the reaper holds the deadline
        self._local.sock = sock
        return self._round_trip(sock, message, method, deadline)

    def _round_trip(self, sock: socket.socket, message: bytes,
                    method: str, deadline: float):
        """One request and its decoded response over ``sock``.

        Any failure discards the connection. Past ``deadline`` the
        reaper shuts the socket, and this raises :class:`TimeoutError`
        whatever the blocked call saw.
        """
        _REAPER.watch(sock, deadline)
        try:
            response = self._exchange(sock, message, method)
            data = response.read()
        except BaseException as exc:
            expired = _REAPER.release(sock)
            self._discard(sock)
            if not isinstance(exc, Exception):
                raise  # an interrupt or exit is never a timeout
            if expired:
                raise self._timed_out(method) from None
            if isinstance(exc, http.client.HTTPException):
                raise ConnectionError(
                    f"truncated response from {self.base_url}: {exc!r}"
                ) from None
            raise
        if _REAPER.release(sock):
            self._discard(sock)
            raise self._timed_out(method)
        if response.will_close:
            self._discard(sock)
        _raise_for_status(response, data)
        return json.loads(data)

    def _timed_out(self, method: str) -> TimeoutError:
        return TimeoutError(f"{method} request to {self.base_url} "
                            "passed its deadline")

    def _keep(self, answer: dict) -> None:
        """Keep a submission answer that carries results for result()."""
        kept = {name: answer[name]
                for name in ("id", "state", "results", "failures")}
        with self._lock:
            self._answers[kept["id"]] = kept
            while len(self._answers) > ANSWERS_KEPT:
                self._answers.popitem(last=False)

    # ------------------------------------------------------------------
    # API.
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness probe: ``{"ok": true}`` when the service is up."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """Queue/tenant/counter/store statistics (``GET /stats``)."""
        return self._request("GET", "/stats")

    def submit(self,
               points: Optional[List[Tuple[Optional[str], RunKey]]] = None,
               figure: Optional[str] = None,
               subset: Optional[List[str]] = None,
               tenant: str = "default",
               name: Optional[str] = None) -> dict:
        """Submit points (``(label, RunKey)`` pairs) or a figure job."""
        body: Dict[str, object] = {"tenant": tenant}
        if name is not None:
            body["name"] = name
        if figure is not None:
            body["figure"] = figure
            if subset is not None:
                body["subset"] = list(subset)
        elif points:
            wire = []
            for label, key in points:
                entry = runkey_to_dict(key)
                if label is not None:
                    entry["label"] = label
                wire.append(entry)
            body["points"] = wire
        else:
            raise ValueError("submit needs points or a figure name")
        answer = self._request("POST", "/jobs?wait=0", body=body)
        if "results" in answer:
            self._keep(answer)
        return answer

    def jobs(self) -> List[dict]:
        """Summaries of every job the server remembers."""
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """One job's status, per-point states and progress metrics."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str, wait: Optional[float] = None) -> dict:
        """Fetch a finished job's results; ``wait`` blocks server-side.

        The results of a job that :meth:`submit` saw finish come from
        its answer, once, without a request.
        """
        with self._lock:
            answer = self._answers.pop(job_id, None)
        if answer is not None:
            return answer
        path = f"/jobs/{job_id}/result"
        timeout = self.timeout
        if wait is not None:
            path += f"?wait={wait:g}"
            timeout = wait + self.timeout
        return self._request("GET", path, timeout=timeout)

    def cancel(self, job_id: str) -> dict:
        """Cancel a job (``DELETE /jobs/<id>``); returns its state."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def claim(self, worker: str = "worker") -> Optional[dict]:
        """Lease one queued point (``POST /claims``); None when idle.

        The payload carries ``fingerprint``, the wire-encoded
        ``point``, ``label``, ``attempts`` and ``lease_seconds``.
        """
        payload = self._request("POST", "/claims",
                                body={"worker": worker})
        return payload if payload.get("claimed") else None

    def complete(self, fingerprint: str, result) -> dict:
        """Report a claimed point's RunResult back to the service."""
        return self._request(
            "POST", f"/claims/{fingerprint}",
            body={"result": result_to_dict(result)},
        )

    def fail(self, fingerprint: str, error: str) -> dict:
        """Report a claimed point as failed on this worker."""
        return self._request("POST", f"/claims/{fingerprint}",
                             body={"error": error})

    def events(self, job_id: str, since: int = 0,
               timeout: Optional[float] = None) -> Iterator[dict]:
        """Yield the job's NDJSON progress events until it finishes.

        The stream has a connection of its own, closed when the stream
        ends or the generator is closed.
        """
        path = f"/jobs/{job_id}/events?since={since}"
        if timeout is not None:
            path += f"&timeout={timeout:g}"
        message = self._message("GET", path, None, close=True)
        sock = self._connect(
            self.timeout if timeout is None else timeout + self.timeout)
        try:
            response = self._exchange(sock, message, "GET")
            if response.status >= 300:
                _raise_for_status(response, response.read())
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        except http.client.HTTPException as exc:
            raise ConnectionError(
                f"broken event stream from {self.base_url}: {exc!r}"
            ) from None
        finally:
            self._discard(sock)


def _raise_for_status(response: http.client.HTTPResponse,
                      data: bytes) -> None:
    """Raise :class:`ServiceError` for a non-2xx response."""
    if response.status < 300:
        return
    retry_after = response.getheader("Retry-After")
    try:
        message = json.loads(data).get("error", response.reason)
    except (ValueError, AttributeError):  # non-JSON error body
        message = response.reason
    raise ServiceError(
        response.status, message,
        retry_after=float(retry_after) if retry_after else None,
    )
