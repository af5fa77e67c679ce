"""The HTTP face of the job queue — stdlib only
(:class:`http.server.ThreadingHTTPServer` + :mod:`json`).

Endpoints::

    GET  /healthz            liveness probe                     -> 200
    GET  /stats              pool + cache counters              -> 200
    GET  /metrics            Prometheus text exposition         -> 200
    GET  /jobs               job listing (no result bodies)     -> 200
    GET  /jobs/<id>          one job, result inline when done   -> 200/404
    GET  /jobs/<id>/result   the raw result document, verbatim  -> 200/404/409
    POST /jobs               submit a job                       -> 201/400
    POST /shutdown           drain in-flight jobs and exit      -> 200

``GET /metrics`` renders the process-wide :data:`repro.obs.METRICS`
registry (scheduler counters, the evaluator-memo cache, scan-time table
builds, pipeline stage histograms, job counters) plus this server's own
result cache and job table as extra samples — one scrape covers every
cache.  While a batch or fuzz job runs, its live scenario counters
also appear on ``GET /jobs/<id>`` under ``progress``.

``POST /jobs`` answers with the full job document, so a submit that
hits the result cache returns ``status: "done"``, ``cached: true`` and
the result inline — one round-trip.  ``/jobs/<id>/result`` serves the
stored text byte-for-byte, which is what makes the cache's
bit-identical guarantee observable on the wire.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.cache import ResultCache
from repro.serve.jobs import JobManager
from repro.serve.keys import JobError

#: Largest accepted request body (a generated "huge"-profile chip's
#: ``.soc`` text is ~100 KiB; 16 MiB leaves two orders of headroom).
MAX_BODY_BYTES = 16 * 1024 * 1024


def render_server_metrics(manager: JobManager) -> str:
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


class ServeHandler(BaseHTTPRequestHandler):
    """Request router; the job manager lives on the server object."""

    server: "ServeServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_text(
        self, status: int, text: str, content_type: str = "application/json"
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

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
                render_server_metrics(manager),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/jobs":
            self._send_json(
                200,
                {"jobs": [job.to_dict(include_result=False) for job in manager.jobs()]},
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
                self._send_json(200, job.to_dict())
        else:
            self._send_error(404, f"unknown path: {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/jobs":
            payload = self._read_body()
            if payload is None:
                return
            try:
                job = self.server.manager.submit(payload)
            except JobError as exc:
                self._send_error(400, str(exc))
                return
            self._send_json(201, job.to_dict())
        elif path == "/shutdown":
            self._send_json(200, {"ok": True, "draining": True})
            # answer first, then stop the server from outside this
            # handler thread (shutdown() deadlocks if called from a
            # request being served)
            threading.Thread(target=self.server.stop, daemon=True).start()
        else:
            self._send_error(404, f"unknown path: {self.path!r}")


class ServeServer(ThreadingHTTPServer):
    """Threading HTTP server owning a :class:`JobManager`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        workers: int = 2,
        backend: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        verbose: bool = False,
        max_jobs: Optional[int] = None,
    ):
        super().__init__(address, ServeHandler)
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


#: Default job-table cap for servers built through :func:`create_server`
#: (the CLI's ``--max-jobs``): long-running services must not grow the
#: table without bound.  Pass ``max_jobs=None`` for the unbounded table.
DEFAULT_MAX_JOBS = 4096


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    backend: Optional[str] = None,
    cache_dir: Optional[str] = None,
    cache_capacity: int = 256,
    verbose: bool = False,
    max_jobs: Optional[int] = DEFAULT_MAX_JOBS,
) -> ServeServer:
    """Build a ready-to-run server (``port=0`` picks a free port —
    read it back from ``server.port``)."""
    cache = ResultCache(capacity=cache_capacity, cache_dir=cache_dir)
    return ServeServer(
        (host, port), workers=workers, backend=backend, cache=cache,
        verbose=verbose, max_jobs=max_jobs,
    )
