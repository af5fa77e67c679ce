"""Injected disk and socket faults, and what the service answers.

Each test breaks one thing under a live ``JobManager`` or server — a
``--cache-dir`` that names a regular file, a disk with no space left, a
burst of connections, a shutdown with jobs still queued — and checks
that every request is answered, every job ends and no worker dies.
"""

import errno
import http.client
import json
import os
import socket
import threading
import time

from repro.obs import METRICS
from repro.serve import JobManager, ResultCache, ServeClient, create_server


def _tiny(seed: int) -> dict:
    return {"kind": "integrate", "soc": {"spec": {"profile": "tiny", "seed": seed}}}


def _settle(job, timeout: float = 15.0):
    deadline = time.monotonic() + timeout
    while job.status in ("queued", "running"):
        assert time.monotonic() < deadline, f"{job.id} still {job.status}"
        time.sleep(0.01)
    return job


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _store_file(tmp_path):
    """A ``--cache-dir`` path that is a regular file."""
    store = tmp_path / "store"
    store.write_text("not a directory")
    return store


class TestDiskFaults:
    def test_store_that_is_a_regular_file(self, tmp_path):
        manager = JobManager(workers=1, cache=ResultCache(cache_dir=_store_file(tmp_path)))
        try:
            jobs = [manager.submit(_tiny(seed)) for seed in (1, 2)]
            for job in jobs:
                _settle(job)
        finally:
            manager.close()
        assert [job.status for job in jobs] == ["done", "done"]
        names = [json.loads(job.result_text)["soc"]["name"] for job in jobs]
        assert names == ["gen_tiny_s1_0", "gen_tiny_s2_0"]
        assert manager.cache.disk_errors == 4  # a read and a write each

    def test_full_disk_leaves_the_worker_alive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "open", _no_space)  # publish's temp file
        manager = JobManager(workers=1, cache=ResultCache(cache_dir=tmp_path))
        try:
            jobs = [manager.submit(_tiny(seed)) for seed in (3, 4)]
            for job in jobs:
                _settle(job)
            assert [job.status for job in jobs] == ["done", "done"]
            assert [thread.is_alive() for thread in manager._threads] == [True]
            # the result stayed in the memory tier
            again = manager.submit(_tiny(3))
            assert again.cached and again.result_text == jobs[0].result_text
        finally:
            manager.close()
        assert manager.cache.disk_errors == 2
        assert list(tmp_path.iterdir()) == []

    def test_post_jobs_is_answered_over_a_broken_store(self, tmp_path):
        server = create_server(workers=1, cache_dir=str(_store_file(tmp_path)))
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        client = ServeClient(server.url, timeout=30.0)
        try:
            client.wait_healthy()
            connection = http.client.HTTPConnection(*server.server_address, timeout=30)
            connection.request(
                "POST", "/jobs", body=json.dumps(_tiny(5)),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 201
            first = json.loads(response.read())
            connection.close()
            assert client.wait(first["id"])["status"] == "done"
            assert client.submit(_tiny(5))["cached"] is True
            metrics = client.metrics_text().splitlines()
            assert "repro_cache_result_disk_errors 2" in metrics
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10)


class TestListenBacklog:
    def test_a_burst_of_connections_is_queued(self):
        server = create_server(workers=1)  # bound and listening, not serving
        sockets = []
        try:
            for _ in range(16):
                sockets.append(socket.create_connection(server.server_address, timeout=0.5))
        finally:
            for sock in sockets:
                sock.close()
            server.server_close()
            server.manager.close()
        assert len(sockets) == 16


class TestShutdownAccounting:
    def test_jobs_a_shutdown_fails_are_counted(self, monkeypatch):
        started, release = threading.Event(), threading.Event()

        def blocked(normalized, work, execution, progress=None):
            started.set()
            assert release.wait(timeout=30)
            return {"schema": "test/blocked", "ok": True}

        monkeypatch.setattr("repro.serve.jobs.execute", blocked)
        names = ("serve.jobs.submitted", "serve.jobs.done", "serve.jobs.failed")
        before = [METRICS.value(name) for name in names]
        manager = JobManager(workers=1)
        jobs = [manager.submit(_tiny(seed)) for seed in range(4)]
        assert started.wait(timeout=10)
        closer = threading.Thread(target=manager.close, kwargs={"drain": False})
        closer.start()
        try:
            deadline = time.monotonic() + 10
            while any(job.status == "queued" for job in jobs):
                assert time.monotonic() < deadline, [job.status for job in jobs]
                time.sleep(0.01)
        finally:
            release.set()
            closer.join(timeout=30)
        assert [job.status for job in jobs] == ["done", "failed", "failed", "failed"]
        assert {job.error for job in jobs[1:]} == {"server stopped before execution"}
        delta = [METRICS.value(name) - value for name, value in zip(names, before)]
        assert delta == [4, 1, 3]
