"""Threaded stress regression for the bounded job table.

``JobManager`` mutates its table from two thread populations at once —
submitters (HTTP handler threads) and pollers (``/stats``, job GETs) —
with LRU eviction churning underneath.  Every touch goes through
``self._lock``, so two invariants must hold in *every* snapshot, not
just at the end:

* accounting: ``retained + evicted == submitted`` (born-terminal jobs
  are immediately evictable, so the three counters move atomically);
* bound: ``retained <= max_jobs + live``.  A submission is inserted
  (live) before it turns terminal, and live jobs are never evicted, so
  a snapshot may catch up to one above-cap job per in-flight submitter;
  once every job is terminal the strict ``max_jobs`` cap must hold.

A lost update (a write outside the lock) shows up as a snapshot where
the counters disagree or the table overshoots its cap.

The request-key memo shares the same lock: submitters racing over a
few cached jobs through a memo too small to hold them all must each get
their own job's stored bytes, and the memo must stay within its cap.

The result cache reads and writes its disk tier outside its lock: with
threads racing gets and puts over a store, every lookup must still be
counted once and answer the key's own text.
"""

import sys
import threading

from repro.serve import Job, JobManager, ResultCache

#: Unparsable soc_text → the job is born ``failed`` (terminal)
#: synchronously inside ``submit``, so eviction pressure is immediate
#: and the test never waits on worker scheduling.
BAD_SOC = {"kind": "integrate", "soc": {"soc_text": "garbage"}}

SUBMITTERS = 8
JOBS_EACH = 25
POLLERS = 4
MAX_JOBS = 8


class TestJobManagerStress:
    def test_concurrent_submit_poll_evict_keeps_counters_consistent(self):
        manager = JobManager(workers=2, max_jobs=MAX_JOBS)
        barrier = threading.Barrier(SUBMITTERS + POLLERS)
        done = threading.Event()
        snapshots: list[dict] = []
        submitted_ids: list[list[str]] = [[] for _ in range(SUBMITTERS)]
        errors: list[BaseException] = []

        def submitter(slot: int) -> None:
            try:
                barrier.wait()
                for _ in range(JOBS_EACH):
                    job = manager.submit(BAD_SOC)
                    submitted_ids[slot].append(job.id)
                    # poll our own job: refreshes LRU order under load
                    manager.get(job.id)
            except BaseException as exc:  # pragma: no cover — failure path
                errors.append(exc)

        def poller(snaps: list[dict]) -> None:
            try:
                barrier.wait()
                while not done.is_set():
                    snaps.append(manager.stats()["jobs"])
                    manager.jobs()
            except BaseException as exc:  # pragma: no cover — failure path
                errors.append(exc)

        per_poller: list[list[dict]] = [[] for _ in range(POLLERS)]
        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(SUBMITTERS)
        ] + [
            threading.Thread(target=poller, args=(per_poller[i],))
            for i in range(POLLERS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:SUBMITTERS]:
                thread.join(timeout=60)
            done.set()
            for thread in threads[SUBMITTERS:]:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []

            for snaps in per_poller:
                snapshots.extend(snaps)
            assert snapshots, "pollers never observed the table"
            for snap in snapshots:
                assert snap["retained"] + snap["evicted"] == snap["submitted"], snap
                assert snap["retained"] <= MAX_JOBS + SUBMITTERS, snap

            total = SUBMITTERS * JOBS_EACH
            final = manager.stats()["jobs"]
            assert final["submitted"] == total
            assert final["retained"] + final["evicted"] == total
            assert final["retained"] <= MAX_JOBS

            # every submitter saw a unique job id — no cross-thread
            # collisions in the id counter
            all_ids = [job_id for ids in submitted_ids for job_id in ids]
            assert len(all_ids) == total
            assert len(set(all_ids)) == total

            # the survivors are exactly the most recently touched jobs
            assert len(manager.jobs()) == final["retained"]
        finally:
            manager.close()


class TestResultCacheStress:
    def test_disk_io_outside_the_lock_loses_no_count(self, tmp_path):
        cache = ResultCache(capacity=3, cache_dir=tmp_path)
        keys = [f"{i:064x}" for i in range(6)]
        gets = [0] * SUBMITTERS
        barrier = threading.Barrier(SUBMITTERS)
        errors: list[BaseException] = []

        def racer(slot: int) -> None:
            try:
                barrier.wait()
                for i in range(JOBS_EACH * 4):
                    key = keys[(slot + i) % len(keys)]
                    if i % 3 == 0:
                        cache.put(key, f"text {key}")
                    else:
                        assert cache.get(key) in (None, f"text {key}")
                        gets[slot] += 1
            except BaseException as exc:  # pragma: no cover — failure path
                errors.append(exc)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(SUBMITTERS)]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == sum(gets)
        assert stats["disk_hits"] <= stats["hits"] and stats["entries"] <= 3
        assert cache.disk_errors == 0


class TestRequestKeyMemoStress:
    def test_churning_memo_serves_each_request_its_own_bytes(self, monkeypatch):
        payloads = [
            {"kind": "integrate", "soc": {"spec": {"profile": "tiny", "seed": seed}}}
            for seed in range(4)
        ]
        cache = ResultCache()
        warm = JobManager(workers=1, cache=cache)
        warmed = [warm.submit(payload) for payload in payloads]
        warm.close(drain=True)
        assert all(job.status == "done" for job in warmed)
        stored = [job.result_text for job in warmed]

        monkeypatch.setattr("repro.serve.jobs.REQUEST_KEY_CAP", 2)
        manager = JobManager(workers=2, cache=cache)
        barrier = threading.Barrier(SUBMITTERS)
        seen: list[list[tuple[int, Job]]] = [[] for _ in range(SUBMITTERS)]
        errors: list[BaseException] = []

        def submitter(slot: int) -> None:
            try:
                barrier.wait()
                for i in range(JOBS_EACH):
                    which = (slot + i) % len(payloads)
                    seen[slot].append((which, manager.submit(payloads[which])))
            except BaseException as exc:  # pragma: no cover — failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(SUBMITTERS)
        ]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(manager._request_keys) <= 2

            jobs = [pair for per_slot in seen for pair in per_slot]
            assert len(jobs) == SUBMITTERS * JOBS_EACH
            for which, job in jobs:
                assert job.status == "done" and job.cached is True, job.id
                assert job.result_text == stored[which], job.id
        finally:
            manager.close()
