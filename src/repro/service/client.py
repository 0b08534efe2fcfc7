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
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
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


class _NoResponse(ConnectionError):
    """The connection failed before any byte of the response."""


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

    def _send(self, method: str, path: str, body: Optional[dict],
              timeout: float) -> Tuple[http.client.HTTPResponse,
                                       socket.socket]:
        """Send over this thread's connection; retry a stale one once.

        A connection in this thread's slot has served a response, so
        a failure before the next response byte means the server
        closed it between requests.
        """
        message = self._message(method, path, body)
        sock = getattr(self._local, "sock", None)
        if sock is not None and sock.fileno() >= 0:
            try:
                if sock.gettimeout() != timeout:
                    sock.settimeout(timeout)
                return self._exchange(sock, message, method), sock
            except _NoResponse:
                self._discard(sock)  # retried once, below
            except OSError:
                self._discard(sock)
                raise
        sock = self._connect(timeout)
        self._local.sock = sock
        try:
            return self._exchange(sock, message, method), sock
        except OSError:
            self._discard(sock)
            raise

    def _request(self, method: str, path: str, body: Optional[dict] = None,
                 timeout: Optional[float] = None):
        timeout = self.timeout if timeout is None else timeout
        response, sock = self._send(method, path, body, timeout)
        try:
            data = response.read()
        except http.client.HTTPException as exc:
            self._discard(sock)
            raise ConnectionError(
                f"truncated response from {self.base_url}: {exc!r}"
            ) from None
        except OSError:
            self._discard(sock)
            raise
        if response.will_close:
            self._discard(sock)
        _raise_for_status(response, data)
        return json.loads(data)

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
        return self._request("POST", "/jobs", body=body)

    def jobs(self) -> List[dict]:
        """Summaries of every job the server remembers."""
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """One job's status, per-point states and progress metrics."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str, wait: Optional[float] = None) -> dict:
        """Fetch a finished job's results; ``wait`` blocks server-side."""
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
