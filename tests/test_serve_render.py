"""Responses from stored bytes: job documents splice the stored result
text, every response leaves in one write, and ``POST /jobs`` starts a
queued job only after its ``201`` is on the wire.

The rendering the splice replaced (parse the stored text, encode the
whole document again) is the oracle
``tests/oracles/serve_job_ref.py``; every job document here must equal
it byte for byte.
"""

import json
import math
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles.serve_job_ref import job_document_reference

from repro.gen import ScenarioSpec
from repro.gen.writer import soc_to_text
from repro.serve import JobManager, ServeClient, create_server
from repro.serve.jobs import Job
from repro.util import document_text

TINY = {"kind": "integrate", "soc": {"spec": {"profile": "tiny", "seed": 11}}}
TINY_TEXT = soc_to_text(ScenarioSpec("tiny", 5, 0).build())

#: Every job kind, and each chip-reference form under ``integrate`` and
#: together in one ``batch``.
PAYLOADS = {
    "integrate-name": {"kind": "integrate", "soc": {"name": "dsc"}},
    "integrate-spec": TINY,
    "integrate-soc_text": {"kind": "integrate",
                           "soc": {"soc_text": TINY_TEXT, "test_pins": 24}},
    "batch": {"kind": "batch", "socs": [
        {"name": "dsc"},
        {"spec": {"profile": "tiny", "seed": 1}},
        {"soc_text": TINY_TEXT},
    ]},
    "fuzz": {"kind": "fuzz", "profile": "tiny", "seeds": 2, "strategies": ["session"]},
    "repair": {"kind": "repair", "soc": {"name": "dsc"}, "trials": 2},
}


def _settle(job: Job, timeout: float = 60.0) -> Job:
    deadline = time.monotonic() + timeout
    while job.status in ("queued", "running"):
        assert time.monotonic() < deadline, f"{job.id} still {job.status}"
        time.sleep(0.005)
    return job


def _assert_renders_as_oracle(job: Job) -> None:
    assert job.to_json() == job_document_reference(job)


@pytest.fixture()
def manager():
    manager = JobManager(workers=1, default_backend="serial")
    yield manager
    manager.close(drain=False)


@pytest.fixture()
def live_server():
    server = create_server(workers=1)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ServeClient(server.url, timeout=30.0)
    client.wait_healthy()
    yield server, client
    client.close()
    server.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def blocked(monkeypatch):
    """``execute`` held until ``release`` is set; ``started`` is set when
    a worker enters it, ``calls`` names the jobs it ran."""
    state = {"started": threading.Event(), "release": threading.Event(), "calls": []}

    def execute(normalized, work, execution, progress=None):
        state["calls"].append(normalized["kind"])
        state["started"].set()
        assert state["release"].wait(timeout=30)
        return {"schema": "test/blocked", "ok": True}

    monkeypatch.setattr("repro.serve.jobs.execute", execute)
    yield state
    state["release"].set()


class TestSpliceEqualsOracle:
    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_queued_done_and_cached(self, manager, name):
        job = manager.accept(PAYLOADS[name])
        assert job.status == "queued"
        _assert_renders_as_oracle(job)
        _settle(manager.start(job))
        assert job.status == "done", job.error
        _assert_renders_as_oracle(job)
        assert json.loads(job.to_json())["result"] == json.loads(job.result_text)
        hit = manager.submit(PAYLOADS[name])
        assert hit.status == "done" and hit.cached
        _assert_renders_as_oracle(hit)
        assert hit.result_text == job.result_text

    @pytest.mark.parametrize("kind", ["integrate", "batch", "fuzz"])
    def test_running(self, manager, blocked, kind):
        payload = {"integrate": TINY, "batch": PAYLOADS["batch"],
                   "fuzz": PAYLOADS["fuzz"]}[kind]
        job = manager.submit(payload)
        assert blocked["started"].wait(timeout=10)
        assert job.status == "running"
        if kind in ("batch", "fuzz"):
            job.progress.start(3)
            job.progress.advance(1, violations=1)
        _assert_renders_as_oracle(job)
        blocked["release"].set()
        _settle(job)
        _assert_renders_as_oracle(job)

    @pytest.mark.parametrize("payload", [
        {"kind": "integrate", "soc": {"soc_text": "garbage \"quoted\"\nline"}},
        {"kind": "integrate", "soc": {"name": "dsc", "test_pins": 0}},
        dict(TINY, strategy="magic"),
        {"kind": "batch", "socs": [{"spec": {"profile": "nope", "seed": 1}}]},
    ], ids=["soc_text", "budget", "strategy", "profile"])
    def test_failed(self, manager, payload):
        job = _settle(manager.submit(payload))
        assert job.status == "failed" and job.error
        _assert_renders_as_oracle(job)

    def test_internal_error(self, manager, monkeypatch):
        def broken(normalized, work, execution, progress=None):
            raise RuntimeError("no élève \\ here")

        monkeypatch.setattr("repro.serve.jobs.execute", broken)
        job = _settle(manager.submit(TINY))
        assert job.status == "failed" and job.error.startswith("internal error")
        _assert_renders_as_oracle(job)

    def test_document_over_http(self, live_server):
        """What the server sends for a miss and a hit is the oracle's
        rendering of the job it holds."""
        server, client = live_server
        for payload in (TINY, TINY):
            posted = client.request_text("POST", "/jobs", payload)
            job_id = json.loads(posted)["id"]
            job = _settle(server.manager.get(job_id))
            polled = client.request_text("GET", f"/jobs/{job_id}")
            assert polled == job_document_reference(job)
            if job.cached:
                assert posted == polled


def _json_documents():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**100), max_value=2**100),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([1e16, -0.0, math.nan, 5e-324, 1.7976931348623157e308]),
        st.text(alphabet=st.one_of(
            st.characters(),
            st.sampled_from(['\n', '"', "\\", "\r", "\t", " ", "é", "\U0001f600"]),
        ), max_size=12),
    )
    keys = st.text(alphabet=st.one_of(st.characters(), st.sampled_from('\n"\\')), max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=24,
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(result=_json_documents())
def test_splice_equals_reencode_for_any_json_document(result):
    job = Job(id="j-000001", normalized={"kind": "integrate"}, execution={},
              cache_key="ab" * 32, status="done", result_text=document_text(result))
    _assert_renders_as_oracle(job)


class TestStartOrder:
    def test_accept_leaves_the_job_for_start(self, manager, blocked):
        job = manager.accept(TINY)
        time.sleep(0.2)
        assert job.status == "queued" and blocked["calls"] == []
        manager.start(job)
        assert blocked["started"].wait(timeout=10)
        blocked["release"].set()
        assert _settle(job).status == "done"
        assert blocked["calls"] == ["integrate"]

    def test_born_terminal_jobs_pass_through_start(self, manager):
        job = manager.accept({"kind": "integrate", "soc": {"soc_text": "junk"}})
        assert job.status == "failed"
        assert manager.start(job) is job and job.status == "failed"

    def test_close_with_drain_before_start_fails_the_job(self, blocked):
        manager = JobManager(workers=1)
        job = manager.accept(TINY)
        manager.close(drain=True)
        manager.start(job)
        assert job.status == "failed"
        assert job.error == "server stopped before execution"
        assert blocked["calls"] == []

    def test_submit_racing_close_is_not_left_queued(self, monkeypatch):
        """A submit still addressing its chips when ``close(drain=True)``
        queues the workers' sentinels used to queue its job behind them,
        where no worker would ever take it."""
        from repro.serve import jobs

        real = jobs.content_address
        addressing, closed = threading.Event(), threading.Event()

        def address_after_close(normalized):
            addressing.set()
            assert closed.wait(timeout=10)
            return real(normalized)

        monkeypatch.setattr(jobs, "content_address", address_after_close)
        manager = JobManager(workers=1)
        submitted = []
        thread = threading.Thread(target=lambda: submitted.append(manager.submit(TINY)))
        thread.start()
        assert addressing.wait(timeout=10)
        manager.close(drain=True)
        closed.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        (job,) = submitted
        assert job.status == "failed"
        assert job.error == "server stopped before execution"

    def test_close_without_drain_leaves_no_job_queued(self, blocked):
        manager = JobManager(workers=1)
        job = manager.accept(TINY)
        manager.close(drain=False)
        assert job.status == "failed"
        assert job.error == "server stopped before execution"
        manager.start(job)
        assert job.status == "failed" and manager.stats()["jobs"]["queued"] == 0
        assert blocked["calls"] == []


@pytest.fixture()
def server_writes(live_server, monkeypatch):
    """Every socket write the live server makes, as ``[bytes, returned]``:
    recorded when the server hands the bytes to ``send``/``sendall``, and
    ``returned`` once that call is back (the client's own writes are
    left out)."""
    server, _ = live_server
    writes = []

    def recording(real):
        def write(sock, data, *args):
            if sock.getsockname()[1] != server.port:
                return real(sock, data, *args)
            record = [bytes(data), False]
            writes.append(record)
            sent = real(sock, data, *args)
            record[1] = True
            return sent
        return write

    monkeypatch.setattr(socket.socket, "send", recording(socket.socket.send))
    monkeypatch.setattr(socket.socket, "sendall", recording(socket.socket.sendall))
    return writes


class TestStartAfterCreated:
    def test_worker_starts_after_the_201_is_sent(self, live_server, server_writes,
                                                  monkeypatch):
        server, client = live_server
        seen = []

        def execute(normalized, work, execution, progress=None):
            seen.append(any(data.startswith(b"HTTP/1.1 201 Created\r\n") and returned
                            for data, returned in server_writes))
            return {"schema": "test/ordered"}

        monkeypatch.setattr("repro.serve.jobs.execute", execute)
        for seed in range(3):
            server_writes.clear()
            job = client.submit(dict(TINY, soc={"spec": {"profile": "tiny", "seed": seed}}))
            assert job["status"] == "queued"
            assert client.wait(job["id"])["status"] == "done"
        assert seen == [True, True, True]

    def test_job_starts_when_its_201_cannot_be_written(self, live_server, monkeypatch):
        server, client = live_server
        real_send = socket.socket.send

        def send(sock, data, *args):
            if sock.getsockname()[1] == server.port and \
                    bytes(data).startswith(b"HTTP/1.1 201 "):
                raise ConnectionResetError("client went away")
            return real_send(sock, data, *args)

        monkeypatch.setattr(socket.socket, "send", send)
        with pytest.raises(OSError):
            client.submit(TINY)
        (job,) = server.manager.jobs()
        assert _settle(job).status == "done", job.error


class TestOneWrite:
    @pytest.mark.parametrize("size", [7_000, 60_000])
    def test_response_is_one_socket_write(self, live_server, server_writes,
                                          monkeypatch, size):
        server, client = live_server
        monkeypatch.setattr(
            "repro.serve.jobs.execute",
            lambda normalized, work, execution, progress=None:
                {"schema": "test/padded", "pad": "x" * size},
        )
        job = client.wait(client.submit(TINY)["id"])
        for path in (f"/jobs/{job['id']}", f"/jobs/{job['id']}/result"):
            server_writes.clear()
            body = client.request_text("GET", path)
            assert size < len(body) < 64 * 1024
            assert len(server_writes) == 1, [len(data) for data, _ in server_writes]
            assert server_writes[0][0].endswith(body.encode())

    def test_interim_continue_is_sent_before_the_body(self, live_server):
        server, _ = live_server
        body = json.dumps(TINY).encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            assert sock.recv(64).startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 201 Created\r\n")
