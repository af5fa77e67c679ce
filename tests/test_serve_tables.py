"""One LRU table class for the serve layer's three tables.

:class:`repro.serve.cache.LruTable` holds the result cache's memory
tier, the request-key memo and the job table.  The refresh and trim
routines it replaced are the oracle ``tests/oracles/serve_tables_ref.py``:
random sequences of gets, puts, status flips and trims must leave both
with the same contents in LRU order, the same return values and the
same eviction counts.  A mixed run through ``JobManager`` is pinned to
the values the hand-kept tables gave.
"""

import time
from collections import OrderedDict
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
from oracles.serve_tables_ref import (
    evict_terminal,
    remember,
    remember_request_key,
    touch,
)

from repro.gen import SocGenerator
from repro.gen.writer import soc_to_text
from repro.obs import METRICS
from repro.serve import JobManager, ResultCache
from repro.serve.cache import LruTable
from repro.soc.itc02 import d695_soc_text

OPS = st.lists(
    st.tuples(st.sampled_from(("get", "put", "flip", "trim")), st.integers(0, 5)),
    max_size=60,
)

#: A job's next status on a flip: live jobs move on, terminal ones stay.
NEXT_STATUS = {"queued": "running", "running": "done", "done": "done", "failed": "failed"}


def _terminal(job) -> bool:
    return job.status in ("done", "failed")


def _contents(table: LruTable) -> list:
    return list(table._entries.items())


class TestLruTable:
    def test_get_refreshes_and_put_trims_the_coldest(self):
        table = LruTable(2)
        table.put("a", 1)
        table.put("b", 2)
        assert table.get("a") == 1
        assert table.put("c", 3) == 1
        assert _contents(table) == [("a", 1), ("c", 3)] and table.evictions == 1
        assert table.get("b") is None

    def test_unbounded_and_zero_caps(self):
        unbounded, empty = LruTable(None), LruTable(0)
        for key in range(10):
            assert unbounded.put(key, key) == 0 and empty.put(key, key) == 0
        assert (len(unbounded), len(empty)) == (10, 0)
        assert unbounded.evictions == empty.evictions == 0

    def test_unevictable_entries_hold_the_table_over_its_cap(self):
        jobs = [SimpleNamespace(status="running") for _ in range(3)]
        table = LruTable(1, evictable=_terminal)
        for i, job in enumerate(jobs):
            assert table.put(i, job) == 0
        assert len(table) == 3
        jobs[1].status = "done"
        assert table.trim() == 1 and list(table.values()) == [jobs[0], jobs[2]]

    def test_trim_stops_after_the_excess(self):
        asked = []

        def evictable(job):
            asked.append(job)
            return _terminal(job)

        jobs = [SimpleNamespace(status="queued") for _ in range(6)]
        table = LruTable(4, evictable=evictable)
        for i, job in enumerate(jobs):
            table.put(i, job)
        for job in jobs:
            job.status = "done"
        asked.clear()
        assert table.trim() == 2
        assert asked == jobs[:2]


class TestAgainstReference:
    """``LruTable`` against the routines it replaced, op by op."""

    @settings(max_examples=300, deadline=None)
    @given(cap=st.integers(0, 4), ops=OPS)
    def test_result_cache_memory_tier(self, cap, ops):
        ref, table, evictions = OrderedDict(), LruTable(cap), 0
        for n, (op, key) in enumerate(ops):
            if op == "get":
                assert table.get(key) == touch(ref, key)
            elif op == "put":
                evicted = remember(ref, cap, key, f"text {n}")
                assert table.put(key, f"text {n}") == evicted
                evictions += evicted
            else:  # the memory tier never outgrows its cap: nothing to trim
                assert table.trim() == 0
            assert _contents(table) == list(ref.items())
        assert table.evictions == evictions

    @settings(max_examples=300, deadline=None)
    @given(cap=st.integers(0, 4), ops=OPS)
    def test_request_key_memo(self, cap, ops):
        ref, table = OrderedDict(), LruTable(cap)
        for n, (op, key) in enumerate(ops):
            if op == "get":
                # accept reads the memo, then remembers the key it used
                assert table.get(key) == ref.get(key)
            if op in ("get", "put"):
                remember_request_key(ref, cap, key, f"key {n}")
                table.put(key, f"key {n}")
            else:
                assert table.trim() == 0
            assert _contents(table) == list(ref.items())

    @settings(max_examples=300, deadline=None)
    @given(
        cap=st.sampled_from((None, 1, 2, 3, 4)),
        ops=OPS,
        born=st.lists(st.sampled_from(("queued", "done", "failed")), min_size=60, max_size=60),
    )
    def test_job_table(self, cap, ops, born):
        ref, table, evictions = OrderedDict(), LruTable(cap, evictable=_terminal), 0
        created = []
        for n, (op, key) in enumerate(ops):
            if op == "put":
                # accept inserts a new job, born queued or terminal
                job = SimpleNamespace(id=n, status=born[n])
                created.append(job)
                ref[job.id] = job
                evicted = len(evict_terminal(ref, cap))
                assert table.put(job.id, job) == evicted
            elif not created:
                continue
            elif op == "get":
                job_id = created[key % len(created)].id
                assert table.get(job_id) is touch(ref, job_id)
                evicted = 0
            else:
                if op == "flip":
                    job = created[key % len(created)]
                    job.status = NEXT_STATUS[job.status]
                evicted = len(evict_terminal(ref, cap))
                assert table.trim() == evicted
            evictions += evicted
            assert _contents(table) == list(ref.items())
        assert table.evictions == evictions


def _settle(job, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while job.status in ("queued", "running"):
        assert time.monotonic() < deadline, f"{job.id} still {job.status}"
        time.sleep(0.005)
    return job


class TestPinnedRun:
    """A mixed run through ``JobManager`` with every table small, its
    expected values read from the hand-kept tables it replaced."""

    REFS = {
        "A": {"name": "d695"},
        "A'": {"soc_text": d695_soc_text(), "test_pins": 64},  # A's chip
        "B": {"spec": {"profile": "tiny", "seed": 1}},
        "C": {"spec": {"profile": "tiny", "seed": 2}},
        "D": {"soc_text": soc_to_text(SocGenerator(3, "tiny").generate(0))},
        "E": {"name": "d695", "test_pins": 48},
    }
    #: Submits by chip, and ``get<n>`` fetches the n-th job.
    PLAN = ("A", "B", "get1", "A", "C", "A", "get2", "D", "A'", "get5",
            "E", "E", "B", "get8", "C", "C")

    def test_mixed_run_keeps_every_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.jobs.REQUEST_KEY_CAP", 2)
        memo0 = (METRICS.value("cache.request_key.hits"),
                 METRICS.value("cache.request_key.misses"))
        manager = JobManager(
            workers=1, cache=ResultCache(capacity=2, cache_dir=tmp_path), max_jobs=3
        )
        jobs, fetched = [], []
        try:
            for step in self.PLAN:
                if step.startswith("get"):
                    fetched.append(manager.get(jobs[int(step[3:]) - 1].id) is not None)
                else:
                    payload = {"kind": "integrate", "soc": self.REFS[step]}
                    jobs.append(_settle(manager.submit(payload)))
            stats = manager.stats()
            retained = [job.id for job in manager.jobs()]
            memo = len(manager._request_keys)
        finally:
            manager.close()
        memo1 = (METRICS.value("cache.request_key.hits"),
                 METRICS.value("cache.request_key.misses"))
        assert [(job.status, job.cached) for job in jobs] == [
            ("done", False), ("done", False), ("done", True), ("done", False),
            ("done", True), ("done", False), ("done", True), ("done", False),
            ("done", True), ("done", True), ("done", True), ("done", True),
        ]
        assert fetched == [True, False, True, True]
        assert retained == ["j-000008", "j-000011", "j-000012"]
        assert memo == 2
        assert (memo1[0] - memo0[0], memo1[1] - memo0[1]) == (4, 8)
        del stats["uptime_seconds"], stats["scan_time_cache"]
        assert stats == {
            "schema": "repro/serve-stats/v2",
            "workers": 1,
            "default_backend": "auto",
            "jobs": {"submitted": 12, "retained": 3, "evicted": 9, "max_jobs": 3,
                     "queued": 0, "running": 0, "done": 3, "failed": 0},
            "cache": {"capacity": 2, "entries": 2, "hits": 7, "misses": 5,
                      "disk_hits": 2, "evictions": 5, "disk": str(tmp_path)},
        }
