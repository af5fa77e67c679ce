"""Stdlib client for the serving API (:mod:`http.client` — importable
anywhere the server is).

The tests, the CI smoke check, and the serving benchmark all speak to
the server through this client, so it doubles as the reference
consumer of the wire protocol::

    client = ServeClient("http://127.0.0.1:8750")
    job = client.submit({"kind": "integrate", "soc": {"name": "d695"}})
    job = client.wait(job["id"])
    doc = client.result(job["id"])          # the raw v4 document

Each thread that uses a client gets one kept-alive connection, reused
for every request it makes until it calls :meth:`ServeClient.close`.
Before a request, a connection whose socket is readable (the server
closed it, or sent bytes no request asked for) is replaced.  A request is never sent twice: when its answer
is lost after the write, the error is raised to the caller.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse
from typing import Optional


class ServeError(RuntimeError):
    """A non-2xx answer from the server (carries the HTTP status and
    the server's error detail)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.detail = message


class ServeClient:
    """Thin blocking client: one kept-alive
    :class:`http.client.HTTPConnection` per thread."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        self._local = threading.local()

    # -- transport ---------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, closed first (so the next request
        opens a new one) when the server has closed it."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(*self._address, timeout=self.timeout)
            self._local.connection = connection
        elif connection.sock is not None and \
                select.select([connection.sock], [], [], 0)[0]:
            connection.close()
        return connection

    def request_text(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> str:
        """One HTTP exchange, returning the response body as text."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        try:
            connection.request(method, self._prefix + path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            # the connection's state is unknown; the request is not sent again
            connection.close()
            raise
        if 200 <= response.status < 300:
            return raw.decode("utf-8")
        text = raw.decode("utf-8", errors="replace")
        try:
            detail = json.loads(text).get("error", text)
        except (json.JSONDecodeError, AttributeError):
            detail = text
        raise ServeError(response.status, detail)

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        return json.loads(self.request_text(method, path, payload))

    # -- API ---------------------------------------------------------------

    def healthy(self) -> bool:
        try:
            return bool(self.request("GET", "/healthz").get("ok"))
        except (ServeError, OSError):
            return False

    def wait_healthy(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Poll ``/healthz`` until the server answers (for freshly
        spawned servers); raises :class:`TimeoutError` otherwise."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthy():
                return
            time.sleep(interval)
        raise TimeoutError(f"server at {self.base_url} not healthy after {timeout}s")

    def submit(self, payload: dict) -> dict:
        """``POST /jobs`` — the created job document (already ``done``
        on a cache hit)."""
        return self.request("POST", "/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self.request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self.request("GET", "/jobs")["jobs"]

    def result_text(self, job_id: str) -> str:
        """The stored result document, byte-for-byte."""
        return self.request_text("GET", f"/jobs/{job_id}/result")

    def result(self, job_id: str) -> dict:
        return json.loads(self.result_text(job_id))

    def wait(self, job_id: str, timeout: float = 120.0, interval: float = 0.02) -> dict:
        """Poll until the job leaves the queue/run states; returns the
        final job document (``done`` or ``failed``)."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc["status"] in ("done", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['status']!r} after {timeout}s"
                )
            time.sleep(interval)

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def metrics_text(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition, verbatim."""
        return self.request_text("GET", "/metrics")

    def shutdown(self) -> None:
        """Ask the server to drain and exit, then close this thread's
        connection (the server closes it too once it has drained)."""
        self.request("POST", "/shutdown")
        self.close()

    def close(self) -> None:
        """Close the calling thread's connection; its next request
        opens another."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
