"""The HTTP face of the simulation service (stdlib only).

A :class:`ThreadingHTTPServer` in front of a
:class:`~repro.service.manager.JobManager`. One handler thread per
connection; long-lived event streams therefore cost a thread each,
which is the right trade for a stdlib-only service (the manager caps
actual simulation concurrency, not the HTTP layer).

REST surface::

    POST   /jobs              submit {points: [...]} or {figure: "fig7"}
                              (``?wait=SECONDS``: results if done by then)
    GET    /jobs              list jobs
    GET    /jobs/<id>         job status + per-point states + progress
    GET    /jobs/<id>/result  results (``?wait=SECONDS`` to block)
    GET    /jobs/<id>/events  NDJSON progress stream (SSE on Accept)
    DELETE /jobs/<id>         cancel
    POST   /claims            lease one queued point to {worker: name}
    POST   /claims/<fp>       report {result: {...}} or {error: "..."}
    GET    /healthz           liveness
    GET    /stats             manager + store counters

Submissions are JSON. A fully cache-satisfied job answers 201 with
``state == "done"`` immediately; a full queue answers 429 with a
``Retry-After`` header. ``POST /jobs?wait=SECONDS`` waits up to that
long after the submission: if the job is terminal by then, the 201
body also carries the ``results`` and ``failures`` that
``GET /jobs/<id>/result`` would return, and that answer counts as the
job's fetch (a cache hit then costs one request). Without ``wait`` the
201 body is the job alone and the job is kept until its result is
fetched. Both ``wait`` parameters are parsed and bounded alike; a
value that is not a finite number of seconds is a 400. The events
endpoint replies NDJSON (``application/x-ndjson``) by default and
Server-Sent Events when the client sends ``Accept:
text/event-stream``; both stream until the job reaches a terminal
state.

Connections are persistent (HTTP/1.1): a client may send any number of
requests over one connection, and each JSON response carries
``Content-Length`` and leaves in a single write. A connection closes
after a response whose request body was not fully read (400, 413, a
bad ``Content-Length``, a body on a GET), after a 500, when the client
asks (``Connection: close`` or HTTP/1.0), and after
:attr:`ServiceHandler.idle_timeout` seconds idle. Before closing after
a 413 the server half-closes and reads the rest of the declared body
(bounded), so a client still sending it reads its 413 rather than a
reset. Event streams are close-delimited: they send ``Connection:
close`` and end with the connection. :meth:`ServiceServer.stop` shuts
every open connection.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.codec import (
    CodecError,
    points_from_wire,
    result_from_dict,
    result_to_dict,
    runkey_to_dict,
)
from repro.service.jobs import Job
from repro.service.manager import (
    JobManager,
    QueueFullError,
    UnknownJobError,
)


#: Longest ``?wait=`` a request may ask for (a day); a longer one is cut.
MAX_WAIT_SECONDS = 86400.0


class ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _wait_seconds(query: dict) -> Optional[float]:
    """The request's ``?wait=SECONDS``: None when absent, else clamped
    to ``[0, MAX_WAIT_SECONDS]``; a value that is not a finite number
    is a 400."""
    raw = query.get("wait")
    if raw is None:
        return None
    try:
        wait = float(raw)
    except ValueError:
        wait = math.nan
    if not math.isfinite(wait):
        raise ApiError(400, "'wait' must be seconds")
    return min(max(wait, 0.0), MAX_WAIT_SECONDS)


def _job_result_payload(job: Job) -> dict:
    return {
        "id": job.id,
        "state": job.state,
        "results": {
            label: result_to_dict(result)
            for label, result in job.results.items()
        },
        "failures": {
            status.label: status.error
            for status in job.point_status.values()
            if status.state in ("failed", "cancelled")
        },
    }


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the manager. ``server`` is the holder."""

    # Persistent connections; see the module docstring.
    protocol_version = "HTTP/1.1"
    #: Seconds a connection may wait for its next request before the
    #: server closes it. The accept loop enforces it, not a socket
    #: timeout: that would add a poll() to every read and write, and
    #: under a running simulation each costs a switch interval
    #: (docs/PERFORMANCE.md, "Service round trips").
    idle_timeout = 30.0
    #: Write buffer: ``handle_one_request`` flushes it once per request,
    #: so a response up to this size leaves in one write.
    wbufsize = 64 * 1024
    #: Max accepted request body (a figure submission is ~kilobytes).
    max_body_bytes = 4 * 1024 * 1024
    #: After a 413, read and drop at most this much of the rejected
    #: body, for at most ``discard_seconds``, before closing.
    discard_bytes = 16 * 1024 * 1024
    discard_seconds = 2.0

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 -- stdlib name
        quiet = getattr(self.server, "quiet", True)
        if not quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    def _send_json(self, payload, status: int = 200,
                   retry_after: Optional[float] = None) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(int(retry_after + 0.5)))
        if self._body_unread or status >= 500:
            # Where the next request starts is unknown (or the handler
            # is suspect): end the connection with this response.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _content_length(self) -> int:
        """The declared request body size; malformed is a 400."""
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        if not (raw.isascii() and raw.strip().isdigit()):
            raise ApiError(400, f"bad Content-Length {raw!r}")
        return int(raw)

    def _read_json(self) -> dict:
        length = self._content_length()
        if length <= 0:
            raise ApiError(400, "missing JSON request body")
        if length > self.max_body_bytes:
            raise ApiError(413, "request body too large")
        raw = self.rfile.read(length) or b""
        self._body_unread = len(raw) < length
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"bad JSON body: {exc}") from None
        if not isinstance(data, dict):
            raise ApiError(400, "request body must be a JSON object")
        return data

    def _route(self) -> Tuple[str, Optional[str], Optional[str], dict]:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = {name: values[-1]
                 for name, values in parse_qs(parsed.query).items()}
        head = parts[0] if parts else ""
        job_id = parts[1] if len(parts) > 1 else None
        tail = parts[2] if len(parts) > 2 else None
        if len(parts) > 3:
            raise ApiError(404, f"no such resource: {parsed.path}")
        return head, job_id, tail, query

    def _dispatch(self, method: str) -> None:
        # True until a handler consumes the declared body; a response
        # sent while it is True closes the connection.
        self._body_unread = ("Transfer-Encoding" in self.headers
                             or self.headers.get("Content-Length",
                                                 "0").strip() != "0")
        try:
            head, job_id, tail, query = self._route()
            handler = getattr(self, f"_{method}_{head or 'root'}", None)
            if handler is None:
                raise ApiError(404, f"no such resource: {self.path}")
            handler(job_id, tail, query)
        except ApiError as exc:
            self._send_json({"error": str(exc)}, status=exc.status,
                            retry_after=exc.retry_after)
            if exc.status == 413:
                self._discard_body()
        except UnknownJobError as exc:
            self._send_json({"error": f"unknown job {exc.args[0]!r}"},
                            status=404)
        except BrokenPipeError:
            self.close_connection = True  # client went away mid-stream
        except Exception as exc:  # noqa: BLE001 -- last-resort 500
            self.close_connection = True
            try:
                self._send_json({"error": f"internal error: {exc}"},
                                status=500)
            except Exception:  # noqa: BLE001 -- headers already sent
                pass

    def _discard_body(self) -> None:
        """Let a client still sending a rejected body read the answer.

        Closing with unread bytes makes the kernel send a reset, which
        can reach the client before the response does. So send the
        response, half-close, and read the rest of the declared body
        (bounded in bytes and seconds); the close then sends a FIN.
        """
        sock = self.connection
        remaining = min(self._content_length(), self.discard_bytes)
        deadline = time.monotonic() + self.discard_seconds
        try:
            self.wfile.flush()
            sock.shutdown(socket.SHUT_WR)
            while remaining > 0:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                sock.settimeout(left)
                chunk = self.rfile.read1(min(remaining, 64 * 1024))
                if not chunk:
                    break
                remaining -= len(chunk)
        except OSError:
            pass  # reset or timed out: the connection closes anyway

    def handle_one_request(self) -> None:
        """Serve one request; the connection idles until it begins."""
        self.server.set_idle(self.request, True)
        super().handle_one_request()

    def parse_request(self) -> bool:
        """A request line has arrived: the connection is busy."""
        self.server.set_idle(self.request, False)
        return super().parse_request()

    def handle_expect_100(self) -> bool:
        """Answer ``Expect: 100-continue`` now, not with the response."""
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def do_GET(self) -> None:  # noqa: N802 -- stdlib casing
        """Route GET requests."""
        self._dispatch("get")

    def do_POST(self) -> None:  # noqa: N802
        """Route POST requests."""
        self._dispatch("post")

    def do_DELETE(self) -> None:  # noqa: N802
        """Route DELETE requests."""
        self._dispatch("delete")

    # ------------------------------------------------------------------
    # Routes.
    # ------------------------------------------------------------------

    def _get_healthz(self, job_id, tail, query) -> None:
        if job_id is not None:
            raise ApiError(404, "no such resource")
        self._send_json({"ok": True})

    def _get_stats(self, job_id, tail, query) -> None:
        if job_id is not None:
            raise ApiError(404, "no such resource")
        self._send_json(self.manager.stats())

    def _post_jobs(self, job_id, tail, query) -> None:
        if job_id is not None:
            raise ApiError(404, "POST only to /jobs")
        body = self._read_json()
        tenant = str(body.get("tenant") or "default")
        name = str(body.get("name") or body.get("figure") or "job")
        try:
            points = self._points_from_body(body)
        except CodecError as exc:
            raise ApiError(400, str(exc)) from None
        wait = _wait_seconds(query)
        try:
            job = self.manager.submit(points, tenant=tenant, name=name)
        except QueueFullError as exc:
            raise ApiError(429, str(exc),
                           retry_after=exc.retry_after) from None
        if wait is None or not job.wait(timeout=wait):
            self._send_json(job.to_dict(), status=201)
            return
        # Terminal within the wait: the answer carries the results and
        # counts as their fetch, as on GET /jobs/<id>/result.
        payload = job.to_dict()
        payload.update(_job_result_payload(job))
        self._send_json(payload, status=201)
        self.manager.result_fetched(job)

    def _points_from_body(self, body: dict):
        if "figure" in body:
            from repro.orchestrator import figure_sweep
            subset = body.get("subset")
            if subset is not None and not isinstance(subset, list):
                raise CodecError("'subset' must be a list of benchmarks")
            try:
                sweep = figure_sweep(str(body["figure"]),
                                     self.manager.runner, subset)
            except KeyError as exc:
                raise CodecError(str(exc.args[0])) from None
            if not len(sweep):
                raise CodecError(
                    f"figure {body['figure']!r} has no sweepable points"
                )
            return [(point.label, point.key) for point in sweep]
        if "points" in body:
            return points_from_wire(body["points"])
        if "point" in body:
            return points_from_wire([body["point"]])
        raise CodecError(
            "submission needs 'points', 'point' or 'figure'"
        )

    def _get_jobs(self, job_id, tail, query) -> None:
        if job_id is None:
            self._send_json({
                "jobs": [job.to_dict(include_points=False)
                         for job in self.manager.jobs()],
            })
            return
        job = self.manager.get(job_id)
        if tail is None:
            self._send_json(job.to_dict())
        elif tail == "result":
            self._get_job_result(job, query)
        elif tail == "events":
            self._stream_events(job, query)
        else:
            raise ApiError(404, f"no such resource: {self.path}")

    def _get_job_result(self, job: Job, query: dict) -> None:
        wait = _wait_seconds(query)
        if wait is not None:
            job.wait(timeout=wait)
        if not job.terminal:
            raise ApiError(409, f"job {job.id} is {job.state}; "
                                "stream /events or retry with ?wait=")
        self._send_json(_job_result_payload(job))
        self.manager.result_fetched(job)

    def _stream_events(self, job: Job, query: dict) -> None:
        try:
            since = int(query.get("since", 0))
        except ValueError:
            raise ApiError(400, "'since' must be an integer") from None
        accept = self.headers.get("Accept", "")
        sse = "text/event-stream" in accept
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/event-stream" if sse
                         else "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        # Close-delimited: the stream ends with the connection.
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.flush()
        timeout = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"])
            except ValueError:
                timeout = 60.0
        for event in job.events.follow(since=since, timeout=timeout):
            line = json.dumps(event)
            if sse:
                payload = f"data: {line}\n\n"
            else:
                payload = line + "\n"
            self.wfile.write(payload.encode())
            self.wfile.flush()

    def _post_claims(self, fingerprint, tail, query) -> None:
        if tail is not None:
            raise ApiError(404, f"no such resource: {self.path}")
        if fingerprint is None:
            self._claim_next()
        else:
            self._claim_report(fingerprint)

    def _claim_next(self) -> None:
        """Lease one queued execution to a remote worker."""
        worker = "worker"
        if self._content_length() > 0:
            body = self._read_json()
            worker = str(body.get("worker") or worker)
        execution = self.manager.claim(worker)
        if execution is None:
            self._send_json({"claimed": False})
            return
        self._send_json({
            "claimed": True,
            "fingerprint": execution.fingerprint,
            "label": execution.label,
            "tenant": execution.tenant,
            "attempts": execution.attempts,
            "lease_seconds": self.manager.claim_ttl_seconds,
            "point": runkey_to_dict(execution.key),
        }, status=201)

    def _claim_report(self, fingerprint: str) -> None:
        """A worker reports the outcome of a leased execution."""
        body = self._read_json()
        if "result" in body:
            encoded = body["result"]
            if not isinstance(encoded, dict):
                raise ApiError(400, "'result' must be a JSON object")
            result = result_from_dict(encoded)
            if result is None:
                raise ApiError(400, "bad result payload (schema "
                                    "mismatch; rebuild the worker)")
            execution = self.manager.complete_claim(fingerprint, result)
            if execution is None:
                raise ApiError(409, f"no live lease on {fingerprint!r} "
                                    "(expired or already reported)")
            self._send_json({"state": execution.state})
            return
        if "error" in body:
            outcome = self.manager.fail_claim(fingerprint,
                                              str(body["error"]))
            if outcome is None:
                raise ApiError(409, f"no live lease on {fingerprint!r} "
                                    "(expired or already reported)")
            self._send_json({"state": outcome})
            return
        raise ApiError(400, "claim report needs 'result' or 'error'")

    def _delete_jobs(self, job_id, tail, query) -> None:
        if job_id is None or tail is not None:
            raise ApiError(404, "DELETE /jobs/<id>")
        cancelled = self.manager.cancel(job_id)
        job = self.manager.get(job_id)
        self._send_json({"id": job.id, "state": job.state,
                         "cancelled": cancelled})


class _HTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can end its open connections.

    A persistent connection outlives the listening socket: its handler
    thread keeps serving it after ``shutdown()``/``server_close()``.
    So the server tracks each connection with its handler thread, and
    when it began waiting for its next request.
    """

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._live_lock = threading.Lock()
        self._live: Dict[socket.socket, threading.Thread] = {}
        self._idle_since: Dict[socket.socket, float] = {}

    def set_idle(self, request, idle: bool) -> None:
        """Mark a connection waiting for a request (or serving one)."""
        with self._live_lock:
            if idle:
                self._idle_since[request] = time.monotonic()
            else:
                self._idle_since.pop(request, None)

    def service_actions(self) -> None:
        """Close connections idle past the handler's ``idle_timeout``.

        ``serve_forever`` calls this between polls (every 0.5 s).
        ``SHUT_RD`` ends the handler's wait for a request line with EOF;
        a request it has already read is still answered, so the close
        falls between requests.
        """
        cutoff = time.monotonic() - self.RequestHandlerClass.idle_timeout
        with self._live_lock:
            stale = [request for request, since
                     in self._idle_since.items() if since < cutoff]
            for request in stale:
                del self._idle_since[request]
        for request in stale:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile

    def process_request(self, request, client_address) -> None:
        """One daemon handler thread per accepted connection."""
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address),
                                  daemon=True)
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def close_request(self, request) -> None:
        """Forget a connection as its handler closes it."""
        with self._live_lock:
            self._live.pop(request, None)
            self._idle_since.pop(request, None)
        super().close_request(request)

    def close_connections(self, timeout: float) -> None:
        """Shut every open connection; join handlers for ``timeout``."""
        with self._live_lock:
            live = list(self._live.items())
        for request, _ in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile
        deadline = time.monotonic() + timeout
        for _, thread in live:
            thread.join(max(0.0, deadline - time.monotonic()))


class ServiceServer:
    """Owns the HTTP server + manager pair; start/stop convenience."""

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0, quiet: bool = True) -> None:
        self.manager = manager
        self.httpd = _HTTPServer((host, port), ServiceHandler)
        self.httpd.manager = manager  # type: ignore[attr-defined]
        self.httpd.quiet = quiet  # type: ignore[attr-defined]
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve on a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True,
            name="repro-service-http",
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``repro serve`` path)."""
        self.httpd.serve_forever()

    def stop(self, shutdown_manager: bool = True) -> None:
        """Stop serving and end every open connection; optionally wind
        the manager down too."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.close_connections(timeout=5.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if shutdown_manager:
            self.manager.shutdown()
