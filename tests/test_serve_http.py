"""The HTTP transport of ``repro serve``: one event loop serving
kept-alive connections.

* ``TestAgainstReference`` drives the server and the
  ``ThreadingHTTPServer`` it replaced (``tests/oracles/serve_http_ref.py``)
  with one request sequence: every route; hits, misses and born-failed
  jobs; 400, 404, 409 and 413; and the serve-mixed catalog.  Statuses,
  content types and bodies must be equal once job ids and timings are
  masked.  Malformed HTTP, which ``http.server`` answered in HTML, is
  answered in JSON.
* ``TestHostileInput`` sends malformed and hostile requests over raw
  sockets to a ``repro serve`` child process.  Each gets a JSON error
  (a client that hangs up gets nothing), nothing reaches the child's
  stderr, and ``/healthz`` answers afterwards.  A client still sending
  an oversized body reads its 413: the server closes lingering.
* ``TestConnections`` covers keep-alive, pipelining, closing, the
  server's threads, the connection counters and the client's reuse of
  its connection.
"""

import importlib.util
import io
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from oracles.serve_http_ref import ReferenceServer

from repro.serve import (
    DEFAULT_MAX_JOBS,
    ResultCache,
    ServeClient,
    ServeError,
    create_server,
)
from repro.serve.server import MAX_BODY_BYTES

REPO = Path(__file__).resolve().parent.parent
TINY = {"kind": "integrate", "soc": {"spec": {"profile": "tiny", "seed": 11}}}
POST_JOBS = b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
#: A request head whose one header line takes it past 64 KiB.
LONG_HEAD = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 66_000 + b"\r\n\r\n"


def _read_response(stream):
    """``(status, headers, body)`` of the next response on ``stream``
    (headers lowercased), or ``None`` when the server closed first."""
    line = stream.readline()
    if not line:
        return None
    status = int(line.split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def _exchange(port: int, data: bytes):
    """Send ``data`` on a new connection; the first response."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        return _read_response(sock.makefile("rb"))


def _request(method: str, path: str, body: bytes = b"", headers: str = "") -> bytes:
    """One ``Connection: close`` request; ``headers`` replaces the
    ``Content-Length`` header when given."""
    head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
    head += headers or f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def _json_post(payload) -> bytes:
    return _request("POST", "/jobs", json.dumps(payload).encode())


def _settle(job, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while job.status in ("queued", "running"):
        assert time.monotonic() < deadline, f"{job.id} still {job.status}"
        time.sleep(0.005)
    return job


def _serve_in_thread(server):
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ServeClient(server.url, timeout=30.0)
    client.wait_healthy()
    client.close()
    return thread


def _stop(server, thread) -> None:
    server.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


# -- the differential oracle ------------------------------------------------

#: Values that differ between two runs of one request sequence (and the
#: path of each server's own disk store).
MASKED = frozenset({"id", "timing", "runtime_seconds", "stage_seconds",
                    "uptime_seconds", "scan_time_cache", "disk"})


def _mask(value):
    if isinstance(value, dict):
        return {key: "<masked>" if key in MASKED else _mask(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_mask(item) for item in value]
    return value


def _comparable(headers: dict, body: bytes):
    if headers["content-type"] == "application/json":
        return _mask(json.loads(body))
    # the exposition: sample names only (the registry is process-wide),
    # without the connection counters the reference never had
    return [line.rsplit(" ", 1)[0] for line in body.decode().splitlines()
            if "repro_serve_http_" not in line]


def _serve_mixed_catalog() -> list[dict]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", REPO / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [job for jobs in inputs.serve_catalog().values() for job in jobs]


@pytest.fixture()
def twins(tmp_path):
    """The reference server and the server, each with a memory tier of 8
    entries over its own disk store, as serve-mixed runs it."""
    reference = ReferenceServer(
        ("127.0.0.1", 0), workers=1,
        cache=ResultCache(capacity=8, cache_dir=str(tmp_path / "reference")),
        max_jobs=DEFAULT_MAX_JOBS,
    )
    server = create_server(workers=1, cache_dir=str(tmp_path / "server"), cache_capacity=8)
    threads = [_serve_in_thread(reference), _serve_in_thread(server)]
    yield reference, server
    for each, thread in zip((reference, server), threads):
        _stop(each, thread)


class TestAgainstReference:
    def _both(self, twins, data: bytes):
        """Send ``data`` to both servers; the server's answer, after
        checking it equals the reference's."""
        (old_status, old_headers, old_body), (status, headers, body) = (
            _exchange(each.port, data) for each in twins)
        assert (status, headers["content-type"]) == \
            (old_status, old_headers["content-type"]), data[:80]
        assert _comparable(headers, body) == _comparable(old_headers, old_body), data[:80]
        return status, body

    def _job(self, twins, payload) -> dict:
        """Submit ``payload`` to both; once the job has ended on both,
        compare its document and its result (or 409)."""
        status, body = self._both(twins, _json_post(payload))
        assert status == 201
        job_id = json.loads(body)["id"]
        for each in twins:
            _settle(each.manager.get(job_id))
        self._both(twins, _request("GET", f"/jobs/{job_id}"))
        self._both(twins, _request("GET", f"/jobs/{job_id}/result"))
        return json.loads(body)

    def test_one_request_sequence_gets_equal_answers(self, twins):
        for path in ("/healthz", "/healthz/", "/healthz?probe=1", "//healthz",
                     "/stats", "/metrics", "/jobs", "/nope", "/jobs/j-999999"):
            self._both(twins, _request("GET", path))
        miss = self._job(twins, TINY)
        assert miss["status"] == "queued"
        hit = self._job(twins, TINY)
        assert hit["status"] == "done" and hit["cached"] is True
        self._both(twins, _request("GET", f"/jobs/{hit['id']}/bogus"))
        for payload in (
            {"kind": "integrate", "soc": {"soc_text": "garbage"}},
            {"kind": "integrate", "soc": {"name": "dsc", "test_pins": 0}},
            {"kind": "batch", "socs": [{"spec": {"profile": "nope", "seed": 1}}]},
        ):
            assert self._job(twins, payload)["status"] == "failed"  # and 409
        for body in (b"", b"{", b"[1, 2]", b"\xff\xfe",
                     b'{"kind": "compile"}',
                     b'{"kind": "integrate", "soc": {"name": "dsc", "power_budget": NaN}}',
                     b'{"kind": "integrate", "soc": {"name": "d695"}, "backend": "thread"}'):
            assert self._both(twins, _request("POST", "/jobs", body))[0] == 400
        for length in ("abc", "-1", str(MAX_BODY_BYTES + 1)):
            request = _request("POST", "/jobs", headers=f"Content-Length: {length}\r\n")
            assert self._both(twins, request)[0] == 413
        assert self._both(twins, _request("POST", "/nope"))[0] == 404
        for path in ("/jobs", "/stats", "/metrics"):
            self._both(twins, _request("GET", path))
        self._both(twins, _request("POST", "/shutdown"))

    def test_serve_mixed_catalog_misses_then_hits(self, twins):
        catalog = _serve_mixed_catalog()
        assert len(catalog) == 36
        for payload in catalog:
            assert self._job(twins, payload)["cached"] is False
        for payload in catalog:
            hit = self._job(twins, payload)
            assert hit["status"] == "done" and hit["cached"] is True
        stats = json.loads(self._both(twins, _request("GET", "/stats"))[1])
        assert stats["cache"]["disk_hits"] > 0

    @pytest.mark.parametrize("data, statuses, old_html", [
        (b"GARBAGE\r\n\r\n", (400, 400), True),
        (b"PUT /jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n", (501, 501), True),
        (b"GET /healthz HTTP/2.0\r\n\r\n", (505, 505), True),
        (LONG_HEAD, (431, 431), True),
        # http.server ignored Transfer-Encoding, read no body and
        # answered that the empty body is not JSON
        (POST_JOBS + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
         (400, 501), False),
    ], ids=["request-line", "method", "version", "long-head", "chunked"])
    def test_malformed_http_is_answered_in_json(self, twins, data, statuses, old_html):
        reference, server = twins
        with socket.create_connection(("127.0.0.1", reference.port), timeout=30) as sock:
            sock.sendall(data)
            old = sock.makefile("rb").read()
        if old.startswith(b"HTTP/"):
            old_status, old_headers, _ = _read_response(io.BytesIO(old))
            html = old_headers["content-type"].startswith("text/html")
        else:
            # http.server answered a request line it could not read
            # HTTP/0.9-style: its error page with no status line
            old_status = int(re.search(rb"Error code: (\d+)", old).group(1))
            html = old.startswith(b"<!DOCTYPE HTML>")
        status, headers, body = _exchange(server.port, data)
        assert (old_status, status) == statuses
        assert html == old_html
        assert headers["content-type"] == "application/json"
        assert set(json.loads(body)) == {"error"}


# -- hostile input, against a child process -----------------------------------


class _Child:
    """A ``repro serve`` child process whose stderr goes to ``log``."""

    def __init__(self, tmp_path: Path):
        self.log = tmp_path / "serve-stderr.log"
        with open(self.log, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
                stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=REPO,
                env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            )
        banner = self.proc.stdout.readline()
        assert banner.startswith("repro serve on http://"), banner
        self.url = banner.split()[3]
        self.port = int(self.url.rsplit(":", 1)[1])

    def assert_unharmed(self) -> None:
        """Nothing on stderr, and ``/healthz`` answers."""
        assert self.log.read_text() == ""
        status, _, body = _exchange(self.port, HEALTHZ)
        assert (status, json.loads(body)) == (200, {"ok": True})


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    child = _Child(tmp_path_factory.mktemp("serve"))
    try:
        client = ServeClient(child.url, timeout=30.0)
        client.wait_healthy()
        client.close()
        yield child
        # shut down with an idle connection open: it is closed, run()
        # returns, and no traceback reaches stderr
        with socket.create_connection(("127.0.0.1", child.port), timeout=30) as idle:
            idle.sendall(HEALTHZ)
            assert _read_response(idle.makefile("rb"))[0] == 200
            status, _, _ = _exchange(child.port, _request("POST", "/shutdown"))
            assert status == 200
            assert child.proc.wait(timeout=30) == 0
        assert child.log.read_text() == ""
    finally:
        if child.proc.poll() is None:
            child.proc.kill()
            child.proc.wait()
        child.proc.stdout.close()


def _assert_closed(sock) -> None:
    assert sock.recv(1) == b"", "the server left the connection open"


class TestHostileInput:
    @pytest.mark.parametrize("data, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (LONG_HEAD, 431),
        (POST_JOBS + b"Content-Length: abc\r\n\r\n", 413),
        (POST_JOBS + b"Content-Length: -1\r\n\r\n", 413),
        (POST_JOBS + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(), 413),
        (POST_JOBS + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 501),
        (b"DELETE /jobs/j-000001 HTTP/1.1\r\nHost: localhost\r\n\r\n", 501),
    ], ids=["request-line", "header-line", "version", "head-over-64k", "length-abc",
            "length-negative", "length-over-max", "chunked", "method"])
    def test_refused_with_json_then_closed(self, child, data, status):
        with socket.create_connection(("127.0.0.1", child.port), timeout=10) as sock:
            sock.sendall(data)
            stream = sock.makefile("rb")
            got, headers, body = _read_response(stream)
            assert (got, headers["content-type"]) == (status, "application/json")
            assert headers["connection"] == "close"
            assert set(json.loads(body)) == {"error"}
            _assert_closed(sock)
        child.assert_unharmed()

    def test_oversized_submit_is_answered_413(self, child):
        client = ServeClient(child.url, timeout=30.0)
        try:
            for _ in range(3):
                with pytest.raises(ServeError) as err:
                    client.submit({"kind": "integrate", "soc": {"soc_text": "x" * 17_000_000}})
                assert err.value.status == 413
        finally:
            client.close()
        child.assert_unharmed()

    def test_body_sent_after_a_refusal_is_dropped(self, child):
        with socket.create_connection(("127.0.0.1", child.port), timeout=30) as sock:
            sock.sendall(POST_JOBS + b"Content-Length: 20000000\r\n\r\n")
            sock.sendall(b"x" * 4_000_000)  # a reset here, if the server closed at once
            stream = sock.makefile("rb")
            status, headers, body = _read_response(stream)
            assert (status, headers["connection"]) == (413, "close")
            assert json.loads(body) == {"error": f"request body must be 0..{MAX_BODY_BYTES} bytes"}
            assert stream.read() == b""  # then the server's half-close
        child.assert_unharmed()

    def test_body_that_is_not_json_keeps_the_connection(self, child):
        with socket.create_connection(("127.0.0.1", child.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(POST_JOBS + b"Content-Length: 5\r\n\r\nhello")
            status, _, body = _read_response(stream)
            assert status == 400
            assert json.loads(body)["error"].startswith("request body is not valid JSON")
            sock.sendall(HEALTHZ)
            assert _read_response(stream)[0] == 200
        child.assert_unharmed()

    def test_client_hanging_up_mid_body(self, child):
        client = ServeClient(child.url)
        before = client.stats()["jobs"]["submitted"]
        with socket.create_connection(("127.0.0.1", child.port), timeout=10) as sock:
            sock.sendall(POST_JOBS + b'Content-Length: 100\r\n\r\n{"kind": ')
            sock.shutdown(socket.SHUT_WR)
            _assert_closed(sock)  # unanswered: there is no request to answer
        child.assert_unharmed()
        assert client.stats()["jobs"]["submitted"] == before
        client.close()

    def test_stalled_half_requests_hold_up_no_one(self, child):
        stalled = [socket.create_connection(("127.0.0.1", child.port), timeout=10)
                   for _ in range(2)]
        try:
            stalled[0].sendall(b"POST /jobs HTTP/1.1\r\nContent-Le")
            stalled[1].sendall(POST_JOBS + b'Content-Length: 40\r\n\r\n{"kind"')
            time.sleep(0.05)
            t0 = time.monotonic()
            status, _, _ = _exchange(child.port, HEALTHZ)
            assert status == 200 and time.monotonic() - t0 < 1.0
        finally:
            for sock in stalled:
                sock.close()
        child.assert_unharmed()

    def test_pipelined_requests_are_answered_in_order(self, child):
        with socket.create_connection(("127.0.0.1", child.port), timeout=10) as sock:
            sock.sendall(HEALTHZ + b"GET /jobs/j-424242 HTTP/1.1\r\nHost: localhost\r\n\r\n"
                         + HEALTHZ)
            stream = sock.makefile("rb")
            answers = [_read_response(stream) for _ in range(3)]
        assert [status for status, _, _ in answers] == [200, 404, 200]
        assert json.loads(answers[1][2]) == {"error": "no such job: 'j-424242'"}
        child.assert_unharmed()

    @pytest.mark.parametrize("data", [
        b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_server_closes_when_asked(self, child, data):
        with socket.create_connection(("127.0.0.1", child.port), timeout=10) as sock:
            sock.sendall(data)
            status, headers, _ = _read_response(sock.makefile("rb"))
            assert status == 200 and headers["connection"] == "close"
            _assert_closed(sock)
        child.assert_unharmed()

    def test_http_1_0_keep_alive_is_kept(self, child):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with socket.create_connection(("127.0.0.1", child.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(request)
                status, headers, _ = _read_response(stream)
                assert status == 200 and headers["connection"] == "keep-alive"
        child.assert_unharmed()


# -- connections, threads and counters (in process) ---------------------------


@pytest.fixture()
def served():
    server = create_server(workers=2)
    thread = _serve_in_thread(server)
    yield server, thread
    _stop(server, thread)


class TestConnections:
    def test_kept_alive_connections_hold_no_thread(self):
        before = set(threading.enumerate())
        server = create_server(workers=2)
        thread = _serve_in_thread(server)
        try:
            with socket.create_connection(server.server_address, timeout=10) as sock:
                stream = sock.makefile("rb")
                for _ in range(20):
                    sock.sendall(HEALTHZ)
                    assert _read_response(stream)[0] == 200
                idle = socket.create_connection(server.server_address, timeout=10)
                with idle:
                    spawned = set(threading.enumerate()) - before
                    assert spawned == {thread, *server.manager._threads}
        finally:
            _stop(server, thread)

    def test_one_client_uses_one_connection(self, served):
        server, _ = served
        connections = server.connections
        client = ServeClient(server.url, timeout=30.0)
        job = client.wait(client.submit(TINY)["id"])
        assert client.submit(TINY)["cached"] is True
        client.result_text(job["id"])
        with pytest.raises(ServeError):
            client.job("j-999999")
        assert client.stats()["jobs"]["submitted"] == 2
        assert server.connections == connections + 1
        text = client.metrics_text()
        assert f"repro_serve_http_connections {server.connections}" in text.splitlines()
        assert "repro_serve_http_requests" in text
        assert not any("http" in key for key in client.stats())
        client.close()

    def test_each_client_thread_has_its_own_connection(self, served):
        server, _ = served
        connections = server.connections
        client = ServeClient(server.url, timeout=30.0)
        errors = []

        def poll():
            try:
                for _ in range(10):
                    assert client.healthy()
            except AssertionError as exc:  # reported below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=poll) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        assert server.connections == connections + 3

    def test_client_replaces_a_connection_the_server_closed(self):
        first = create_server(workers=1)
        port = first.port
        thread = _serve_in_thread(first)
        client = ServeClient(first.url, timeout=30.0)
        assert client.healthy()
        _stop(first, thread)  # closes the client's idle connection
        second = create_server(port=port, workers=1)
        thread = _serve_in_thread(second)
        try:
            assert second.connections == 1  # wait_healthy's
            assert client.healthy()
            assert second.connections == 2
        finally:
            client.close()
            _stop(second, thread)

    def test_shutdown_closes_idle_connections_and_returns(self, capfd):
        server = create_server(workers=1)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        client = ServeClient(server.url, timeout=30.0)
        client.wait_healthy()
        with socket.create_connection(server.server_address, timeout=10) as idle:
            idle.sendall(HEALTHZ)
            assert _read_response(idle.makefile("rb"))[0] == 200
            client.shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive()
            _assert_closed(idle)
        server.stop()  # once more, after run() returned
        assert capfd.readouterr().err == ""

    def test_shutdown_returns_while_a_refused_connection_lingers(self, monkeypatch, capfd):
        monkeypatch.setattr("repro.serve.server.LINGER_SECONDS", 60.0)
        server = create_server(workers=1)
        thread = _serve_in_thread(server)
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(POST_JOBS + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode())
            stream = sock.makefile("rb")
            assert _read_response(stream)[0] == 413
            assert stream.read() == b""  # half-closed; the server still reads
            started = time.monotonic()
            _stop(server, thread)
            assert time.monotonic() - started < 10.0
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("bound", ["seconds", "bytes"])
    def test_a_refused_connection_lingers_within_its_bounds(self, served, monkeypatch, bound):
        server, _ = served
        monkeypatch.setattr("repro.serve.server.LINGER_SECONDS", 0.2 if bound == "seconds" else 60.0)
        if bound == "bytes":
            monkeypatch.setattr("repro.serve.server.LINGER_BYTES", 1 << 16)
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(POST_JOBS + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode())
            if bound == "bytes":
                try:
                    sock.sendall(b"x" * (1 << 20))
                except OSError:
                    pass  # the server stopped reading after its bound
            deadline = time.monotonic() + 10.0
            while server._connections:  # the client never closes: the server does
                assert time.monotonic() < deadline, "the refused connection was never closed"
                time.sleep(0.01)

    def test_requests_are_answered_while_jobs_drain(self, monkeypatch):
        started, release = threading.Event(), threading.Event()

        def blocked(normalized, work, execution, progress=None):
            started.set()
            assert release.wait(timeout=30)
            return {"schema": "test/blocked"}

        monkeypatch.setattr("repro.serve.jobs.execute", blocked)
        server = create_server(workers=1)
        thread = _serve_in_thread(server)
        client = ServeClient(server.url, timeout=30.0)
        try:
            job = client.submit(TINY)
            assert started.wait(timeout=10)
            client.shutdown()
            assert client.job(job["id"])["status"] == "running"
            with pytest.raises(ServeError) as err:
                client.submit({"kind": "integrate", "soc": {"name": "dsc"}})
            assert (err.value.status, err.value.detail) == \
                (400, "server is shutting down; job rejected")
            release.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert server.manager.get(job["id"]).status == "done"
        finally:
            release.set()
            client.close()
            _stop(server, thread)

    def test_stop_before_run(self):
        server = create_server(workers=1)
        server.stop()
        server.run()  # returns at once: the manager is closed
        with pytest.raises(OSError):
            socket.create_connection(server.server_address, timeout=1)
