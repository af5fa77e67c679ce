"""The HTTP face of the job queue: persistent HTTP/1.1 connections
served from one :mod:`asyncio` event loop, stdlib only.

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
result cache, job table and connection counters as extra samples — one
scrape covers every cache.  While a batch or fuzz job runs, its live
scenario counters also appear on ``GET /jobs/<id>`` under ``progress``.

``POST /jobs`` answers with the full job document, so a submit that
hits the result cache returns ``status: "done"``, ``cached: true`` and
the result inline — one round-trip.  ``/jobs/<id>/result`` serves the
stored text byte-for-byte, which is what makes the cache's
bit-identical guarantee observable on the wire.

Transport.  :meth:`ServeServer.run` serves from an ``asyncio`` streams
server on the thread that calls it.  Each connection is a task on that
loop and stays open between requests (HTTP/1.1 keep-alive), so a client
that reuses its connection pays for neither a TCP handshake nor a
thread per request, and an idle connection holds no thread: the
server's threads are the ``run()`` thread and the job workers.  A
connection closes after ``Connection: close``, after an HTTP/1.0
request that does not ask for keep-alive, and after a refused request.
:meth:`ServeServer.route` answers one request synchronously on the
loop, so a cache miss's content addressing (2-8 ms on the serve-mixed
catalog, ~18 ms for a ``huge`` chip) holds up every other connection
for its duration.

Every response is written from bytes the server already holds: a job
document splices in its stored result text (:meth:`Job.to_json`), and
the status line, headers and body leave in one transport write.  A job
worker holds the interpreter lock while it runs, so a second write
would wait out a switch interval behind it.  For the same reason
``POST /jobs`` accepts a job, writes its ``201`` and only then starts
it (:meth:`JobManager.accept`, :meth:`JobManager.start`).

A request the server cannot read is answered with a JSON ``error`` and
its connection closed: 400 for a malformed request line or header, 431
for a head over :data:`MAX_HEAD_BYTES`, 413 for a ``Content-Length``
that is not an integer in ``0..MAX_BODY_BYTES``, 501 for
``Transfer-Encoding`` or a method other than GET and POST, 505 for an
HTTP version other than 1.0 and 1.1.  That close lingers (see
:data:`LINGER_BYTES`), so a client still sending reads the answer.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
import traceback
from http import HTTPStatus
from typing import Callable, Optional

from repro.serve.cache import ResultCache
from repro.serve.jobs import JobManager
from repro.serve.keys import JobError

#: Largest accepted request body (a generated "huge"-profile chip's
#: ``.soc`` text is ~100 KiB; 16 MiB leaves two orders of headroom).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Largest request head (request line and headers).
MAX_HEAD_BYTES = 64 * 1024

#: Connections the listening socket queues before ``accept`` (the
#: kernel's queue, so a burst of clients is not dropped).
LISTEN_BACKLOG = 64

#: A refused connection drops what the client still sends, up to this
#: many bytes or seconds, so a client still writing reads the answer.
LINGER_BYTES = 2 * MAX_BODY_BYTES
LINGER_SECONDS = 2.0

JSON_TYPE = "application/json"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: What :meth:`ServeServer.route` answers: status, content type, body
#: text, and an action to run once the response is written (or None).
Response = tuple[int, str, str, Optional[Callable[[], object]]]


class _Refused(Exception):
    """A request the server answers with ``status`` and then closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _json(status: int, doc: dict) -> Response:
    return status, JSON_TYPE, json.dumps(doc, indent=2), None


def _error(status: int, message: str) -> Response:
    return _json(status, {"error": message})


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """Method, target, version and headers (names lowercased) of one
    request head, which ends in a blank line; :class:`_Refused` when
    it is malformed."""
    lines = head.decode("latin-1").split("\r\n")
    words = lines[0].split()
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        raise _Refused(400, f"bad request line: {lines[0]!r}")
    method, target, version = words
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise _Refused(505, f"unsupported HTTP version: {version!r}")
    headers = {}
    for line in lines[1:-2]:
        name, colon, value = line.partition(":")
        if not colon or not name.strip():
            raise _Refused(400, f"bad header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if target.startswith("//"):
        # as http.server did: "//x" is the path "/x", not a host
        target = "/" + target.lstrip("/")
    return method, target, version, headers


async def _drop_input(reader: asyncio.StreamReader) -> None:
    left = LINGER_BYTES
    while left > 0 and (chunk := await reader.read(MAX_HEAD_BYTES)):
        left -= len(chunk)


def render_server_metrics(server: "ServeServer") -> str:
    """The ``/metrics`` exposition: the global registry plus samples
    scoped to this server instance (its result cache and job table,
    which live on the manager rather than in the process registry, and
    its connection counters)."""
    from repro.obs import METRICS

    manager = server.manager
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
        ("serve.http.connections", "counter", None, server.connections),
        ("serve.http.requests", "counter", None, server.requests),
        ("serve.uptime_seconds", "gauge", None, stats["uptime_seconds"]),
        ("serve.workers", "gauge", None, stats["workers"]),
    ]
    for state in ("queued", "running", "done", "failed"):
        extra.append(
            ("serve.jobs.retained", "gauge", {"state": state},
             stats["jobs"][state])
        )
    return METRICS.render_prometheus(extra=extra)


class ServeServer:
    """An HTTP server owning a :class:`JobManager`.

    Built bound and listening (a backlog of :data:`LISTEN_BACKLOG`);
    :meth:`run` serves until :meth:`stop`.
    """

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        workers: int = 2,
        backend: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        verbose: bool = False,
        max_jobs: Optional[int] = None,
    ):
        self.socket = socket.create_server(address, backlog=LISTEN_BACKLOG)
        try:
            self.manager = JobManager(
                workers=workers, cache=cache, default_backend=backend,
                max_jobs=max_jobs,
            )
        except BaseException:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()[:2]
        self.verbose = verbose
        #: connections accepted and responses written (``/metrics``);
        #: only the loop thread writes them
        self.connections = 0
        self.requests = 0
        self._lock = threading.Lock()
        self._stopping = False  # stop() has begun
        self._quit = False  # the manager is closed: the loop may end
        self._running = False  # run() was called
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._done = threading.Event()
        # loop thread only: each open connection's writer, and whether
        # the loop is closing them
        self._connections: set[asyncio.StreamWriter] = set()
        self._closing = False

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> None:
        """Serve on this thread until :meth:`stop` (or Ctrl-C, which
        drains the job queue first)."""
        with self._lock:
            self._running = True
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            self._close_manager(drain=True)
        finally:
            self.server_close()
            self._done.set()

    def stop(self, drain: bool = True) -> None:
        """Close the job manager (finishing queued jobs when ``drain``),
        then end :meth:`run`: stop listening and close every connection.
        Returns once ``run()`` has; callable from any thread but the
        loop's own, and more than once."""
        self._close_manager(drain)
        with self._lock:
            running = self._running
        if running:
            self._done.wait()

    def server_close(self) -> None:
        """Close the listening socket (``run()`` does on its way out)."""
        self.socket.close()

    def _close_manager(self, drain: bool) -> None:
        """Close the manager once, then let the loop end."""
        with self._lock:
            first, self._stopping = not self._stopping, True
        if not first:
            return
        self.manager.close(drain=drain)
        with self._lock:
            self._quit = True
            if self._loop is not None:
                self._loop.call_soon_threadsafe(self._wake.set)

    def _stop_in_background(self) -> None:
        # from a request on the loop: the drain must not block the loop
        # (GETs are answered while jobs finish), and stop() waits for
        # the loop to end
        threading.Thread(target=self.stop, name="serve-stop", daemon=True).start()

    async def _serve(self) -> None:
        self._wake = asyncio.Event()
        server = await asyncio.start_server(
            self._connection, sock=self.socket, limit=MAX_HEAD_BYTES,
            backlog=LISTEN_BACKLOG,
        )
        with self._lock:
            self._loop = asyncio.get_running_loop()
            quit_now = self._quit
        try:
            if not quit_now:
                await self._wake.wait()
        finally:
            with self._lock:
                self._loop = None
            # accept nothing more; a connection already accepted still
            # gets its transport (which needs the server open) below
            asyncio.get_running_loop().remove_reader(self.socket.fileno())
            self._closing = True
            for writer in self._connections:
                transport = writer.transport
                # an idle connection closes at once; one still holding
                # output for a client that does not read would never
                # finish closing
                if transport.get_write_buffer_size():
                    transport.abort()
                else:
                    transport.close()
            # every other task on this loop accepts or serves a
            # connection; one accepted just now starts after _closing
            # and closes itself
            while others := asyncio.all_tasks() - {asyncio.current_task()}:
                await asyncio.wait(others)
            server.close()

    # -- connections ---------------------------------------------------------

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one connection's requests in order until either side
        closes it."""
        self.connections += 1
        if self._closing:
            writer.close()
            return
        self._connections.add(writer)
        try:
            while await self._exchange(reader, writer):
                pass
        except (OSError, asyncio.IncompleteReadError):
            pass  # the client went away, mid-request or mid-answer
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _exchange(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read one request and answer it; whether the connection stays
        open for the next."""
        request_line = "-"
        try:
            try:
                head = (await reader.readuntil(b"\r\n\r\n")).lstrip(b"\r\n")
            except asyncio.LimitOverrunError:
                raise _Refused(431, f"request head is over {MAX_HEAD_BYTES} bytes") from None
            if not head:
                return True  # blank lines between requests
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            method, target, version, headers = _parse_head(head)
            connection = headers.get("connection", "").lower()
            if version == "HTTP/1.1":
                keep = connection != "close"
            else:
                keep = connection == "keep-alive"
            if method not in ("GET", "POST"):
                raise _Refused(501, f"unsupported method: {method!r}")
            if "transfer-encoding" in headers:
                raise _Refused(501, "Transfer-Encoding is not supported; send Content-Length")
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                raise _Refused(413, f"request body must be 0..{MAX_BODY_BYTES} bytes")
        except asyncio.IncompleteReadError:
            return False  # closed between requests
        except _Refused as exc:
            # the body stays unread: answer, half-close, and drop what the
            # client still sends (see LINGER_BYTES) before closing
            await self._respond(writer, request_line, _error(exc.status, str(exc)), keep=False)
            writer.write_eof()
            try:
                await asyncio.wait_for(_drop_input(reader), LINGER_SECONDS)
            except asyncio.TimeoutError:
                pass
            return False
        if length and version == "HTTP/1.1" and \
                headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = await reader.readexactly(length) if length else b""
        try:
            response = self.route(method, target, body)
        except Exception as exc:  # noqa: BLE001 — the loop serves on
            traceback.print_exc()
            response = _error(500, f"internal error: {type(exc).__name__}: {exc}")
            keep = False
        return await self._respond(
            writer, request_line, response, keep, keep_alive_header=version == "HTTP/1.0"
        )

    async def _respond(
        self, writer: asyncio.StreamWriter, request_line: str, response: Response,
        keep: bool, keep_alive_header: bool = False,
    ) -> bool:
        """Write ``response`` in one transport write, then run its
        after-write action, even when the write failed; returns ``keep``."""
        status, content_type, text, after = response
        body = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if not keep:
            head += "Connection: close\r\n"
        elif keep_alive_header:
            head += "Connection: keep-alive\r\n"
        self.requests += 1
        try:
            writer.write(head.encode("latin-1") + b"\r\n" + body)
        finally:
            if after is not None:
                after()
        if self.verbose:
            host = (writer.get_extra_info("peername") or ("-",))[0]
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(f'{host} - - [{stamp}] "{request_line}" {status} -\n')
        await writer.drain()
        return keep

    # -- routes --------------------------------------------------------------

    def route(self, method: str, target: str, body: bytes) -> Response:
        """Answer one request (``method`` is GET or POST)."""
        manager = self.manager
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            if path == "/healthz":
                return _json(200, {"ok": True})
            if path == "/stats":
                return _json(200, manager.stats())
            if path == "/metrics":
                return 200, METRICS_TYPE, render_server_metrics(self), None
            if path == "/jobs":
                return _json(200, {"jobs": [job.to_dict() for job in manager.jobs()]})
            if path.startswith("/jobs/"):
                parts = path.split("/")[2:]
                job = manager.get(parts[0])
                if job is None:
                    return _error(404, f"no such job: {parts[0]!r}")
                if parts[1:] == ["result"]:
                    if job.result_text is None:
                        return _error(
                            409, f"job {job.id} has no result (status: {job.status})"
                        )
                    return 200, JSON_TYPE, job.result_text, None
                if not parts[1:]:
                    return 200, JSON_TYPE, job.to_json(), None
        elif path == "/jobs":
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return _error(400, f"request body is not valid JSON: {exc}")
            if not isinstance(payload, dict):
                return _error(400, "request body must be a JSON object")
            try:
                job = manager.accept(payload)
            except JobError as exc:
                return _error(400, str(exc))
            # started once the 201 is written, and even if writing it
            # failed: the job was accepted, so it runs
            return 201, JSON_TYPE, job.to_json(), lambda: manager.start(job)
        elif path == "/shutdown":
            return 200, JSON_TYPE, json.dumps({"ok": True, "draining": True}, indent=2), \
                self._stop_in_background
        return _error(404, f"unknown path: {target!r}")


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
