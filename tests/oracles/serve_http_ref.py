"""Reference: the HTTP server ``repro serve`` ran before its event loop.

:mod:`repro.serve.server` serves persistent HTTP/1.1 connections from
one ``asyncio`` loop.  The transport it replaced, a
:class:`http.server.ThreadingHTTPServer` with one handler thread per
connection and a buffered ``wfile``, is kept verbatim here (only the
names gained a ``Reference`` prefix, and the listen backlog is a class
attribute as it was).  ``tests/test_serve_http.py`` drives both servers
with one request sequence and requires equal statuses and bodies once
job ids and timings are masked.  Do not optimize it; its value is being
the unchanged baseline.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.cache import ResultCache
from repro.serve.jobs import JobManager
from repro.serve.keys import JobError
from repro.serve.server import MAX_BODY_BYTES


def render_server_metrics_reference(manager: JobManager) -> str:
    """The ``/metrics`` exposition: the global registry plus samples
    scoped to this server instance (its result cache and job table,
    which live on the manager rather than in the process registry)."""
    from repro.obs import METRICS

    cache = manager.cache.stats()
    stats = manager.stats()
    extra = [
        ("cache.result.hits", "counter", None, cache["hits"]),
        ("cache.result.misses", "counter", None, cache["misses"]),
        ("cache.result.disk_hits", "counter", None, cache["disk_hits"]),
        ("cache.result.evictions", "counter", None, cache["evictions"]),
        ("cache.result.disk_errors", "counter", None, manager.cache.disk_errors),
        ("cache.result.entries", "gauge", None, cache["entries"]),
        ("cache.result.capacity", "gauge", None, cache["capacity"]),
        ("serve.uptime_seconds", "gauge", None, stats["uptime_seconds"]),
        ("serve.workers", "gauge", None, stats["workers"]),
    ]
    for state in ("queued", "running", "done", "failed"):
        extra.append(
            ("serve.jobs.retained", "gauge", {"state": state},
             stats["jobs"][state])
        )
    return METRICS.render_prometheus(extra=extra)


class ReferenceHandler(BaseHTTPRequestHandler):
    """Request router; the job manager lives on the server object."""

    server: "ReferenceServer"
    protocol_version = "HTTP/1.1"
    # buffer the status line, headers and a body up to 64 KiB, so that
    # _send_text's one flush is one write to the socket
    wbufsize = 64 * 1024 + 4096

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def handle_expect_100(self) -> bool:
        # the buffered wfile would hold the interim answer back, and the
        # client waits for it before sending the body
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_text(
        self, status: int, text: str, content_type: str = "application/json"
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _send_json(self, status: int, doc: dict) -> None:
        self._send_text(status, json.dumps(doc, indent=2))

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[dict]:
        """The request's JSON body, or ``None`` after answering 400/413."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_error(413, f"request body must be 0..{MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error(400, f"request body is not valid JSON: {exc}")
            return None
        if not isinstance(doc, dict):
            self._send_error(400, "request body must be a JSON object")
            return None
        return doc

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        manager = self.server.manager
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/stats":
            self._send_json(200, manager.stats())
        elif path == "/metrics":
            self._send_text(
                200,
                render_server_metrics_reference(manager),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/jobs":
            self._send_json(
                200,
                {"jobs": [job.to_dict() for job in manager.jobs()]},
            )
        elif path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            job = manager.get(parts[0])
            if job is None:
                self._send_error(404, f"no such job: {parts[0]!r}")
            elif parts[1:] == ["result"]:
                if job.result_text is None:
                    self._send_error(
                        409, f"job {job.id} has no result (status: {job.status})"
                    )
                else:
                    self._send_text(200, job.result_text)
            elif parts[1:]:
                self._send_error(404, f"unknown path: {self.path!r}")
            else:
                self._send_text(200, job.to_json())
        else:
            self._send_error(404, f"unknown path: {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/jobs":
            payload = self._read_body()
            if payload is None:
                return
            manager = self.server.manager
            try:
                job = manager.accept(payload)
            except JobError as exc:
                self._send_error(400, str(exc))
                return
            try:
                self._send_text(201, job.to_json())
            finally:
                # after the 201 is on the wire, and even if writing it
                # failed: the job was accepted, so it runs
                manager.start(job)
        elif path == "/shutdown":
            self._send_json(200, {"ok": True, "draining": True})
            # answer first, then stop the server from outside this
            # handler thread (shutdown() deadlocks if called from a
            # request being served)
            threading.Thread(target=self.server.stop, daemon=True).start()
        else:
            self._send_error(404, f"unknown path: {self.path!r}")


class ReferenceServer(ThreadingHTTPServer):
    """Threading HTTP server owning a :class:`JobManager`."""

    daemon_threads = True
    # socketserver's default backlog of 5 drops a burst of connections
    request_queue_size = 64

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        workers: int = 2,
        backend: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        verbose: bool = False,
        max_jobs: Optional[int] = None,
    ):
        super().__init__(address, ReferenceHandler)
        self.manager = JobManager(
            workers=workers, cache=cache, default_backend=backend, max_jobs=max_jobs
        )
        self.verbose = verbose
        self._stopped = threading.Event()

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def stop(self, drain: bool = True) -> None:
        """Drain the job queue and stop accepting requests (idempotent)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.manager.close(drain=drain)
        self.shutdown()

    def run(self) -> None:
        """Serve until :meth:`stop` (or Ctrl-C, which drains first)."""
        try:
            self.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            self.stop()
        finally:
            self.server_close()
