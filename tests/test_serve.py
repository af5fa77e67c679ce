"""End-to-end tests for the serving layer: a real ``ServeServer`` (one
event loop over kept-alive connections) on a loopback port, driven
through the stdlib client.

Jobs use the tiny generator profile (or dsc with few trials) so the
suite stays fast; the d695 acceptance path is exercised by the CI smoke
step and the serving benchmark.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs import METRICS
from repro.serve import (
    JOB_SCHEMA,
    JobError,
    JobManager,
    ResultCache,
    ServeClient,
    ServeError,
    create_server,
)
from repro.util import document_text

TINY = {"kind": "integrate", "soc": {"spec": {"profile": "tiny", "seed": 11}}}


@pytest.fixture()
def server():
    server = create_server(workers=2)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ServeClient(server.url, timeout=30.0)
    client.wait_healthy()
    yield client
    client.close()
    server.stop()
    thread.join(timeout=10)


class TestJobLifecycle:
    def test_submit_poll_result(self, server):
        job = server.submit(TINY)
        assert job["schema"] == JOB_SCHEMA
        assert job["id"].startswith("j-")
        assert job["kind"] == "integrate"
        assert job["status"] in ("queued", "running", "done")
        done = server.wait(job["id"])
        assert done["status"] == "done"
        assert done["cached"] is False
        timing = done["timing"]
        assert timing["queued_seconds"] >= 0
        assert timing["run_seconds"] >= 0
        result = server.result(job["id"])
        assert result["schema"] == "repro/integration-result/v4"
        assert result["soc"]["name"] == "gen_tiny_s11_0"

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServeError) as err:
            server.job("j-999999")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            server.result("j-999999")
        assert err.value.status == 404

    def test_unfinished_result_is_409(self, server):
        bad = server.submit({"kind": "integrate", "soc": {"soc_text": "junk"}})
        with pytest.raises(ServeError) as err:
            server.result(bad["id"])
        assert err.value.status == 409

    def test_malformed_soc_text_becomes_failed_job(self, server):
        job = server.submit({"kind": "integrate", "soc": {"soc_text": "garbage"}})
        assert job["status"] == "failed"
        assert "unparsable soc_text" in job["error"]
        assert "directive" in job["error"]
        # the failed job is a durable, queryable record
        again = server.job(job["id"])
        assert again["status"] == "failed" and again["error"] == job["error"]

    def test_bad_budget_is_answered_and_serving_continues(self, server):
        """A bad budget on a named chip used to escape ``submit``: the
        server logged a traceback and closed the connection unanswered."""
        job = server.submit({"kind": "integrate", "soc": {"name": "dsc", "test_pins": 0}})
        assert job["status"] == "failed"
        assert job["error"] == "test pin budget must be positive, got 0"
        assert server.wait(server.submit(TINY)["id"])["status"] == "done"

    def test_structural_error_is_400_and_creates_no_job(self, server):
        before = len(server.jobs())
        for payload in (
            {"kind": "compile"},
            {"kind": "integrate"},
            {"kind": "integrate", "soc": {"name": "d695"}, "bogus": 1},
            {"kind": "fuzz", "seeds": 0},
        ):
            with pytest.raises(ServeError) as err:
                server.submit(payload)
            assert err.value.status == 400
        assert len(server.jobs()) == before

    def test_non_finite_float_is_400_and_creates_no_job(self, server):
        """The client's ``json.dumps`` writes ``Infinity`` and ``NaN``;
        the server refuses them instead of storing a non-JSON result or
        failing the job."""
        before = len(server.jobs())
        for payload in (
            {"kind": "integrate", "soc": {"name": "dsc", "power_budget": float("inf")}},
            {"kind": "integrate", "soc": {"name": "dsc", "power_budget": float("nan")}},
            {"kind": "repair", "soc": {"name": "dsc"}, "trials": 2,
             "defect_density": float("nan")},
        ):
            with pytest.raises(ServeError) as err:
                server.submit(payload)
            assert err.value.status == 400
            assert "must be a finite number" in err.value.detail
        assert len(server.jobs()) == before

    def test_unknown_backend_is_400_even_when_cached(self, server):
        """An unknown ``backend`` is refused at submit for every kind:
        a batch whose result is already cached, and an integrate job,
        which runs no fan-out at all."""
        batch = {"kind": "batch", "socs": [{"spec": {"profile": "tiny", "seed": 3}}]}
        assert server.wait(server.submit(batch)["id"])["status"] == "done"
        before = len(server.jobs())
        for payload in (dict(batch, backend="thread"), dict(TINY, backend="greenlet")):
            with pytest.raises(ServeError) as err:
                server.submit(payload)
            assert err.value.status == 400
            assert "backend must be one of auto, serial, process" in err.value.detail
        assert len(server.jobs()) == before

    def test_non_json_body_is_400(self, server):
        with pytest.raises(ServeError) as err:
            server.request("POST", "/jobs", payload=None)
        assert err.value.status == 400

    def test_listing_orders_jobs_without_results(self, server):
        first = server.submit(TINY)
        second = server.submit({"kind": "integrate", "soc": {"soc_text": "bad"}})
        listing = server.jobs()
        ids = [doc["id"] for doc in listing]
        assert ids.index(first["id"]) < ids.index(second["id"])
        assert all("result" not in doc for doc in listing)

    def test_unknown_path_is_404(self, server):
        with pytest.raises(ServeError) as err:
            server.request("GET", "/nope")
        assert err.value.status == 404


class TestCacheOverHttp:
    def test_identical_submit_hits_cache_bit_identically(self, server):
        first = server.wait(server.submit(TINY)["id"])
        assert first["cached"] is False
        second = server.submit(TINY)
        # born done: no queue round-trip on a hit
        assert second["status"] == "done"
        assert second["cached"] is True
        assert second["id"] != first["id"]
        assert server.result_text(second["id"]) == server.result_text(first["id"])
        stats = server.stats()
        assert stats["cache"]["hits"] >= 1

    def test_execution_params_share_the_entry(self, server):
        server.wait(server.submit({
            "kind": "batch", "socs": [{"spec": {"profile": "tiny", "seed": 3}}],
        })["id"])
        hit = server.submit({
            "kind": "batch", "socs": [{"spec": {"profile": "tiny", "seed": 3}}],
            "backend": "process", "workers": 2,
        })
        assert hit["cached"] is True

    def test_different_work_misses(self, server):
        server.wait(server.submit(TINY)["id"])
        other = dict(TINY, strategy="serial")
        miss = server.submit(other)
        assert miss["cached"] is False
        assert server.wait(miss["id"])["status"] == "done"

    def test_torn_disk_entry_is_recomputed(self, tmp_path, monkeypatch):
        """A disk entry cut to half its length is a miss: the job runs
        again, and its result replaces the torn entry."""
        runs = []

        def execute(normalized, work, execution, progress=None):
            runs.append(normalized["kind"])
            return {"schema": "test/echo", "request": normalized}

        monkeypatch.setattr("repro.serve.jobs.execute", execute)

        def serve(callback):
            server = create_server(workers=1, cache_dir=str(tmp_path))
            thread = threading.Thread(target=server.run, daemon=True)
            thread.start()
            client = ServeClient(server.url, timeout=30.0)
            try:
                client.wait_healthy()
                return callback(client)
            finally:
                client.close()
                server.stop()
                thread.join(timeout=10)

        first = serve(lambda client: client.wait(client.submit(TINY)["id"]))
        entry = tmp_path / f"{first['cache_key']}.json"
        original = first["result"]
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])

        def resubmit(client):
            again = client.submit(TINY)
            assert again["cached"] is False
            done = client.wait(again["id"])
            assert done["status"] == "done" and done["result"] == original
            hit = client.submit(TINY)
            assert hit["cached"] is True
            assert client.result_text(hit["id"]) == client.result_text(again["id"])
            return client.stats()["cache"]

        stats = serve(resubmit)
        assert runs == ["integrate", "integrate"]
        assert (stats["misses"], stats["disk_hits"]) == (1, 0)
        assert (tmp_path / f"{first['cache_key']}.corrupt").exists()
        assert json.loads(entry.read_bytes().partition(b"\n")[2]) == original


class TestOtherJobKinds:
    def test_fuzz_job(self, server):
        job = server.wait(server.submit({
            "kind": "fuzz", "profile": "tiny", "seeds": 2,
            "strategies": ["session"],
        })["id"])
        assert job["status"] == "done"
        doc = server.result(job["id"])
        assert doc["schema"] == "repro/fuzz-report/v2"
        assert doc["ok"] is True and len(doc["scenarios"]) == 2

    def test_fuzz_job_with_unknown_strategy_fails(self, server):
        """An unknown strategy fails the sweep (it is no scheduler crash
        in every scenario), and a failed sweep is not cached."""
        payload = {"kind": "fuzz", "seeds": 1, "strategies": ["nope"]}
        for _ in range(2):
            job = server.wait(server.submit(payload)["id"])
            assert job["status"] == "failed" and job["cached"] is False
            assert "unknown scheduling strategy 'nope'" in job["error"]

    def test_repair_job(self, server):
        job = server.wait(server.submit({
            "kind": "repair", "soc": {"name": "dsc"}, "trials": 20,
        })["id"])
        assert job["status"] == "done"
        doc = server.result(job["id"])
        assert doc["schema"] == "repro/repair-report/v1"

    def test_fuzz_job_result_is_run_fuzz_text(self, server):
        """A served fuzz job is the library sweep's document, byte for
        byte."""
        from repro.gen import run_fuzz

        params = {"profile": "tiny", "seeds": 3, "seed_base": 5,
                  "strategies": ["session", "nonsession", "serial"],
                  "ilp_max_tasks": 4}
        job = server.wait(server.submit({"kind": "fuzz", **params})["id"])
        assert job["status"] == "done"
        assert server.result_text(job["id"]) == document_text(run_fuzz(**params))

    def test_repair_job_result_is_repair_report_text(self, server):
        """A served repair job is ``repair_report``'s document, byte for
        byte."""
        from repro.repair import repair_report
        from repro.soc.dsc import build_dsc_chip

        params = {"seed": 3, "trials": 20, "allocator": "greedy",
                  "defects": 2, "defect_density": 0.5, "spare_rows": 1,
                  "spare_cols": 3, "model_rows": 16}
        job = server.wait(server.submit(
            {"kind": "repair", "soc": {"name": "dsc"}, **params}
        )["id"])
        assert job["status"] == "done"
        assert server.result_text(job["id"]) == document_text(
            repair_report(build_dsc_chip(), **params)
        )

    @pytest.mark.parametrize("payload, argv", [
        ({"kind": "fuzz", "profile": "tiny", "seeds": 3},
         ["fuzz", "--seeds", "3", "--profile", "tiny"]),
        ({"kind": "repair", "soc": {"name": "dsc"}, "trials": 20},
         ["repair", "--trials", "20"]),
    ], ids=["fuzz", "repair"])
    def test_result_is_the_shell_json(self, server, capsys, payload, argv):
        """A served result is ``repro <kind> --json`` stdout without its
        final newline: both are the document's ``document_text``."""
        from repro.__main__ import main

        job = server.wait(server.submit(payload)["id"])
        assert job["status"] == "done"
        assert main([*argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert server.result_text(job["id"]) == out[:-1]

    def test_batch_job(self, server):
        job = server.wait(server.submit({
            "kind": "batch",
            "socs": [
                {"spec": {"profile": "tiny", "seed": 1}},
                {"spec": {"profile": "tiny", "seed": 2}},
            ],
            "verify": True,
        })["id"])
        assert job["status"] == "done"
        doc = server.result(job["id"])
        assert doc["schema"] == "repro/batch-result/v4"
        assert doc["ok"] is True and len(doc["items"]) == 2

    def test_unknown_strategy_fails_the_job_not_the_server(self, server):
        job = server.wait(server.submit(dict(TINY, strategy="magic"))["id"])
        assert job["status"] == "failed"
        assert "magic" in job["error"]
        assert server.healthy()


class TestStats:
    def test_stats_shape(self, server):
        server.wait(server.submit(TINY)["id"])
        server.submit(TINY)  # cache hit
        stats = server.stats()
        assert stats["schema"] == "repro/serve-stats/v2"
        assert stats["workers"] == 2
        assert stats["jobs"]["submitted"] >= 2
        assert stats["jobs"]["done"] >= 2
        assert stats["cache"]["hits"] >= 1
        assert stats["uptime_seconds"] >= 0


class TestManagerDirect:
    """Lifecycle corners easier to pin without HTTP in the loop."""

    def test_submit_after_close_rejected(self):
        manager = JobManager(workers=1)
        manager.close()
        with pytest.raises(JobError, match="shutting down"):
            manager.submit(TINY)

    def test_drain_finishes_queued_jobs(self):
        manager = JobManager(workers=1)
        jobs = [manager.submit(dict(TINY, soc={"spec": {"profile": "tiny", "seed": s}}))
                for s in range(3)]
        manager.close(drain=True)
        assert all(job.status == "done" for job in jobs)

    def test_disk_cache_survives_manager_restart(self, tmp_path):
        first = JobManager(workers=1, cache=ResultCache(cache_dir=tmp_path))
        job = first.submit(TINY)
        first.close(drain=True)
        assert job.status == "done"
        second = JobManager(workers=1, cache=ResultCache(cache_dir=tmp_path))
        hit = second.submit(TINY)
        assert hit.status == "done" and hit.cached is True
        assert hit.result_text == job.result_text
        second.close()

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            JobManager(workers=0)

    def test_default_backend_validated(self):
        with pytest.raises(ValueError, match="'thread'"):
            JobManager(workers=1, default_backend="thread")


class TestServeCli:
    def test_serve_command_end_to_end(self, tmp_path):
        """`python -m repro serve --port 0`: parse the bound URL from
        stdout, run a job through it, shut down over HTTP, exit 0."""
        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=repo,
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
        )
        try:
            banner = proc.stdout.readline()
            assert "repro serve on http://" in banner
            url = banner.split()[3]
            client = ServeClient(url, timeout=30.0)
            client.wait_healthy()
            job = client.wait(client.submit(TINY)["id"])
            assert job["status"] == "done"
            assert json.loads(client.result_text(job["id"]))["schema"] == \
                "repro/integration-result/v4"
            client.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


BAD_SOC = {"kind": "integrate", "soc": {"soc_text": "garbage"}}


def _tiny(seed: int) -> dict:
    return {"kind": "integrate", "soc": {"spec": {"profile": "tiny", "seed": seed}}}


class TestJobEviction:
    """Bounded job table: terminal jobs past ``max_jobs`` go LRU-first.

    Born-failed submissions (unparsable ``soc_text``) reach a terminal
    state synchronously, which keeps these tests deterministic — no
    waiting on worker threads to decide what is evictable.
    """

    def test_max_jobs_validated(self):
        with pytest.raises(ValueError):
            JobManager(workers=1, max_jobs=0)

    def test_terminal_jobs_evicted_oldest_first(self):
        manager = JobManager(workers=1, max_jobs=2)
        try:
            ids = [manager.submit(BAD_SOC).id for _ in range(5)]
            stats = manager.stats()["jobs"]
            assert stats["submitted"] == 5
            assert stats["retained"] == 2
            assert stats["evicted"] == 3
            assert stats["max_jobs"] == 2
            assert [job.id for job in manager.jobs()] == ids[3:]
            assert manager.get(ids[0]) is None
            assert manager.get(ids[4]) is not None
        finally:
            manager.close()

    def test_get_refreshes_lru_order(self):
        manager = JobManager(workers=1, max_jobs=2)
        try:
            first = manager.submit(BAD_SOC)
            second = manager.submit(BAD_SOC)
            manager.get(first.id)  # touch: second is now the cold end
            third = manager.submit(BAD_SOC)
            retained = {job.id for job in manager.jobs()}
            assert retained == {first.id, third.id}
            assert manager.get(second.id) is None
        finally:
            manager.close()

    def test_live_jobs_are_never_evicted(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()

        def blocked(normalized, work, execution, progress=None):
            started.set()
            assert release.wait(timeout=30)
            return {"schema": "test/blocked", "ok": True}

        monkeypatch.setattr("repro.serve.jobs.execute", blocked)
        manager = JobManager(workers=1, max_jobs=1)
        try:
            live = manager.submit(_tiny(0))
            assert started.wait(timeout=10)
            for _ in range(3):
                manager.submit(BAD_SOC)
            # the running job is the coldest entry, yet survives; each
            # born-failed job is the only terminal one and goes instead
            assert manager.get(live.id) is not None
            stats = manager.stats()["jobs"]
            assert stats["evicted"] == 3
            assert stats["running"] == 1
        finally:
            release.set()
            manager.close(drain=True)

    def test_unbounded_without_cap(self):
        manager = JobManager(workers=1, max_jobs=None)
        try:
            for _ in range(5):
                manager.submit(BAD_SOC)
            stats = manager.stats()["jobs"]
            assert stats["retained"] == 5
            assert stats["evicted"] == 0
            assert stats["max_jobs"] is None
        finally:
            manager.close()

    def test_eviction_observable_over_http(self):
        server = create_server(workers=1, max_jobs=1)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        client = ServeClient(server.url, timeout=30.0)
        try:
            client.wait_healthy()
            first = client.wait(client.submit(_tiny(1))["id"])
            client.wait(client.submit(_tiny(2))["id"])
            stats = client.stats()
            assert stats["jobs"]["evicted"] >= 1
            assert stats["jobs"]["max_jobs"] == 1
            with pytest.raises(ServeError) as err:
                client.job(first["id"])
            assert err.value.status == 404
            # the record is gone but the *result* survives in the
            # content-addressed cache: a resubmit is an instant hit
            hit = client.submit(_tiny(1))
            assert hit["status"] == "done" and hit["cached"] is True
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10)


@pytest.fixture()
def address_calls(monkeypatch):
    """The normalized jobs ``JobManager.submit`` built chips for."""
    from repro.serve import jobs

    calls = []
    real = jobs.content_address

    def counting(normalized):
        calls.append(normalized)
        return real(normalized)

    monkeypatch.setattr(jobs, "content_address", counting)
    return calls


def _settle(job, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while job.status in ("queued", "running"):
        assert time.monotonic() < deadline, f"{job.id} still {job.status}"
        time.sleep(0.01)
    return job


def _memo_counts() -> tuple[float, float]:
    return (
        METRICS.value("cache.request_key.hits"),
        METRICS.value("cache.request_key.misses"),
    )


class TestRequestKeyMemo:
    """A repeated request is answered from the memo's content key
    without building a chip, and never with a key the chips would not
    give."""

    def test_repeats_build_no_chip(self, address_calls):
        hits0, misses0 = _memo_counts()
        manager = JobManager(workers=1)
        try:
            first = _settle(manager.submit(TINY))
            assert first.status == "done" and first.cached is False
            variants = (
                TINY,
                dict(TINY, strategy="session"),
                dict(TINY, backend="process", workers=2),
            )
            for payload in variants:
                hit = manager.submit(payload)
                assert hit.status == "done" and hit.cached is True
                assert hit.cache_key == first.cache_key
                assert hit.result_text == first.result_text
        finally:
            manager.close()
        assert len(address_calls) == 1
        hits1, misses1 = _memo_counts()
        assert (hits1 - hits0, misses1 - misses0) == (len(variants), 1)

    @pytest.mark.parametrize("capacity", [8, 0], ids=["result-cached", "result-gone"])
    def test_memo_is_written_only_when_its_key_changes(self, monkeypatch, capacity):
        manager = JobManager(workers=1, cache=ResultCache(capacity=capacity))
        puts, put = [], manager._request_keys.put
        monkeypatch.setattr(manager._request_keys, "put",
                            lambda key, value: puts.append(value) or put(key, value))
        try:
            first = _settle(manager.submit(TINY))
            for _ in range(3):
                assert _settle(manager.submit(TINY)).cache_key == first.cache_key
        finally:
            manager.close()
        # a repeat's lookup already made its entry the most recent
        assert puts == [first.cache_key]
        assert len(manager._request_keys) == 1

    def test_remembered_key_without_result_rebuilds_its_work(self, address_calls):
        hits0, _ = _memo_counts()
        manager = JobManager(workers=1, cache=ResultCache(capacity=0))
        try:
            first = manager.submit(TINY)
            again = manager.submit(TINY)
        finally:
            manager.close(drain=True)
        assert _memo_counts()[0] - hits0 == 1
        assert len(address_calls) == 2
        assert again.status == "done" and again.cached is False
        assert again.cache_key == first.cache_key
        # a second run repeats the document apart from its own timings
        rerun, stored = (json.loads(job.result_text) for job in (again, first))
        for doc in (rerun, stored):
            del doc["runtime_seconds"], doc["stage_seconds"]
        assert rerun == stored

    def test_reregistered_profile_is_a_miss(self, address_calls, monkeypatch):
        from dataclasses import replace

        from repro.gen import profiles

        # ``setitem`` takes the profile out again when the test ends
        monkeypatch.setitem(
            profiles.PROFILES, "memo-guard",
            replace(profiles.TINY, name="memo-guard", cores=(2, 2)),
        )
        payload = {
            "kind": "integrate",
            "soc": {"spec": {"profile": "memo-guard", "seed": 1}},
        }
        manager = JobManager(workers=1)
        try:
            before = _settle(manager.submit(payload))
            profiles.register_profile(
                replace(profiles.TINY, name="memo-guard", cores=(5, 5))
            )
            after = _settle(manager.submit(payload))
        finally:
            manager.close()
        assert len(address_calls) == 2
        assert after.status == "done" and after.cached is False
        assert after.cache_key != before.cache_key
        assert json.loads(before.result_text)["soc"]["cores"] == 2
        assert json.loads(after.result_text)["soc"]["cores"] == 5

    def test_profile_reregistered_while_queued_keeps_the_keyed_chip(
        self, monkeypatch
    ):
        """A queued spec job runs the chip its cache key names, even if
        its profile is re-registered before a worker picks it up."""
        from repro.gen import GenProfile, profiles
        from repro.serve import jobs
        from repro.serve.keys import normalize_payload
        from repro.serve.runners import content_address

        monkeypatch.setitem(
            profiles.PROFILES, "queue-guard", GenProfile(name="queue-guard", cores=(2, 2))
        )
        release = threading.Event()
        real_execute = jobs.execute

        def held(normalized, work, execution, progress=None):
            assert release.wait(timeout=30)
            return real_execute(normalized, work, execution, progress=progress)

        monkeypatch.setattr(jobs, "execute", held)
        payload = {
            "kind": "integrate",
            "soc": {"spec": {"profile": "queue-guard", "seed": 1}},
        }
        manager = JobManager(workers=1)
        try:
            job = manager.submit(payload)
            profiles.register_profile(GenProfile(name="queue-guard", cores=(6, 6)))
            release.set()
            _settle(job)
        finally:
            release.set()
            manager.close()
        assert job.status == "done", job.error
        assert json.loads(job.result_text)["soc"]["cores"] == 2
        assert json.loads(manager.cache.get(job.cache_key))["soc"]["cores"] == 2
        profiles.register_profile(GenProfile(name="queue-guard", cores=(2, 2)))
        assert job.cache_key == content_address(normalize_payload(payload)[0])[0]
        assert job.work == [], "a finished job releases its chips"

    @pytest.mark.parametrize("payload, detail", [
        (BAD_SOC, "unparsable soc_text"),
        (
            {"kind": "integrate", "soc": {"spec": {"profile": "nope", "seed": 1}}},
            "unknown generator profile 'nope'",
        ),
        # a bad budget is refused alike in every reference form
        *(
            ({"kind": "integrate", "soc": {**ref, **budget}}, detail)
            for ref in (
                {"name": "dsc"},
                {"spec": {"profile": "tiny", "seed": 1}},
                {"soc_text": "SocName t\nModule m Inputs 1 Outputs 1 Bidirs 0 Patterns 3"},
            )
            for budget, detail in (
                ({"test_pins": 0}, "test pin budget must be positive, got 0"),
                ({"test_pins": -1}, "test pin budget must be positive, got -1"),
                ({"power_budget": -3.0}, "power budget must be non-negative, got -3.0"),
            )
        ),
    ])
    def test_failed_reference_fails_every_time(self, address_calls, payload, detail):
        _, misses0 = _memo_counts()
        manager = JobManager(workers=1)
        try:
            first = manager.submit(payload)
            second = manager.submit(payload)
        finally:
            manager.close()
        assert first.status == second.status == "failed"
        assert first.error.startswith(detail)
        assert second.error == first.error
        assert len(address_calls) == 2
        assert _memo_counts()[1] - misses0 == 2

    def test_cap_evicts_least_recently_used(self, address_calls, monkeypatch):
        cache = ResultCache()
        payloads = [_tiny(seed) for seed in (21, 22, 23)]
        warm = JobManager(workers=1, cache=cache)
        for payload in payloads:
            warm.submit(payload)
        warm.close(drain=True)
        monkeypatch.setattr("repro.serve.jobs.REQUEST_KEY_CAP", 2)
        manager = JobManager(workers=1, cache=cache)
        try:
            built = len(address_calls)
            for payload in payloads:
                assert manager.submit(payload).cached is True
            assert len(address_calls) == built + 3
            assert len(manager._request_keys) == 2
            # a hit refreshes the older remembered entry, so bringing
            # back the pushed-out job evicts the other one
            assert manager.submit(payloads[1]).cached is True
            assert len(address_calls) == built + 3
            oldest = manager.submit(payloads[0])
            assert len(address_calls) == built + 4
            assert oldest.status == "done" and oldest.cached is True
            assert manager.submit(payloads[1]).cached is True
            assert len(address_calls) == built + 4
        finally:
            manager.close()


class TestObservability:
    """The /metrics exposition, live job progress, and the monotonic
    timing + torn-snapshot guarantees behind them."""

    def test_metrics_covers_caches_and_scheduler(self, server):
        server.wait(server.submit(TINY)["id"])
        text = server.metrics_text()
        for family in (
            # all three caches...
            "repro_cache_scan_time_hits",
            "repro_cache_evaluator_memo_hits",
            "repro_cache_result_hits",
            "repro_cache_result_entries",
            "repro_cache_request_key_hits",
            # ...and the scheduler counters
            "repro_sched_runs",
            "repro_sched_moves_evaluated",
            "repro_sched_moves_bounded",
            "repro_sched_moves_pruned",
            "repro_sched_candidates_pruned",
            # plus the serve layer's own families
            "repro_serve_jobs_submitted",
            "repro_serve_job_run_seconds_bucket",
            'repro_serve_jobs_retained{state="done"}',
        ):
            assert family in text, f"missing metric family: {family}"

    def test_stats_carries_scan_time_cache(self, server):
        stats = server.stats()
        cache = stats["scan_time_cache"]
        assert set(cache) == {"hits", "misses"}

    def test_fuzz_job_reports_live_monotone_progress(self, server):
        job = server.submit({
            "kind": "fuzz", "profile": "tiny", "seeds": 6,
            "strategies": ["session"], "backend": "serial",
        })
        snapshots = []
        while True:
            doc = server.job(job["id"])
            if doc.get("progress") is not None:
                snapshots.append(doc["progress"])
            if doc["status"] in ("done", "failed"):
                break
            time.sleep(0.005)
        assert doc["status"] == "done"
        final = doc["progress"]
        assert final["total"] == final["done"] == 6
        done_values = [snap["done"] for snap in snapshots]
        assert done_values == sorted(done_values), "progress went backwards"
        assert all(
            snap["total"] is None or snap["done"] <= snap["total"]
            for snap in snapshots
        )

    def test_integrate_job_has_null_progress(self, server):
        done = server.wait(server.submit(TINY)["id"])
        assert done["progress"] is None

    def test_timing_durations_use_monotonic_clock(self):
        from repro.serve.jobs import Job

        job = Job(id="j-1", normalized={"kind": "integrate"}, execution={})
        # a wall clock an hour in the future (NTP step mid-job) must not
        # distort the durations — they derive from the monotonic twins
        job.submitted_at = time.time() + 3600
        job.submitted_mono = time.monotonic()
        job.mark_started()
        job.mark_finished()
        timing = job.timing()
        assert 0 <= timing["queued_seconds"] < 60
        assert 0 <= timing["run_seconds"] < 60
        assert timing["submitted_at"] > timing["started_at"]  # wall skew kept

    def test_concurrent_stats_snapshots_are_consistent(self):
        manager = JobManager(workers=2)
        stop = threading.Event()
        problems = []

        def hammer():
            last_submitted = 0
            while not stop.is_set():
                stats = manager.stats()["jobs"]
                by_state = sum(
                    stats[state] for state in
                    ("queued", "running", "done", "failed")
                )
                if by_state != stats["retained"]:
                    problems.append(f"torn: {stats}")
                if stats["submitted"] < last_submitted:
                    problems.append("submitted went backwards")
                last_submitted = stats["submitted"]

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            jobs = [manager.submit(_tiny(seed)) for seed in range(6)]
            manager.close(drain=True)
            assert all(job.status == "done" for job in jobs)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=5)
        assert not problems, problems[:3]
