"""Job lifecycle: accept → start → queue → run → done/failed, with the
cache short-circuiting repeat work at accept time.

A job moves through four states::

    queued ──> running ──> done
       │          └──────> failed       (user-caused: JobError)
       └─────────────────> failed       (bad chip reference at accept, or
                                         the manager closed before start)

plus the fast path: a request whose content address hits the cache is
born ``done`` with ``cached: true`` — no queue round-trip, the stored
result text is returned verbatim.  A repeated request does not even
build its chips: the manager remembers each successfully addressed
request's content key (the request-key memo, keyed by the normalized
request's digest and the generator profiles its specs resolve to), so
a hit costs a digest and a cache read.  Chips are built — by
:func:`repro.serve.runners.content_address` — only for a request seen
for the first time or one whose result has left both cache tiers, and
then the queued job carries the built chips, so the worker runs the
very chips the cache key names; a finished job releases them.

Submitting takes two calls.  :meth:`JobManager.accept` validates,
content-addresses and records the job, born ``done`` on a hit, born
``failed`` on a bad reference and ``queued`` otherwise;
:meth:`JobManager.start` then hands a still-queued job to the workers.
The server answers ``POST /jobs`` between the two: a worker woken
earlier would take the interpreter lock while the ``201`` is still
being written, and the submitter would wait out its switch interval.
:meth:`JobManager.submit` makes both calls, for library callers.

A job document is rendered from bytes the job already holds
(:meth:`Job.to_json`): the stored result text is spliced in, indented
one level, never parsed and encoded again.

The worker pool is a handful of daemon threads feeding off one queue;
each job's *internal* parallelism (batch fan-out, fuzz sweeps,
Monte-Carlo trials) goes through :mod:`repro.core.batch` backends, so
the thread count here bounds concurrent jobs, not concurrent chips.

The job table is bounded: past ``max_jobs`` retained records, terminal
(done/failed) jobs are evicted least-recently-used first — the job
document disappears (404), but the *result* lives on in the
content-addressed cache, so resubmitting the work is a hit.  Live jobs
are never evicted.  The job table and the request-key memo are each a
:class:`repro.serve.cache.LruTable`.  Every way a job ends (born failed
or done in ``accept``, stopped by a close, run by a worker) goes through
``JobManager._finish_locked``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.gen import GenProfile, get_profile
from repro.obs import METRICS, JobProgress
from repro.serve.cache import LruTable, ResultCache
from repro.serve.keys import JobError, normalize_payload, soc_refs
from repro.serve.runners import content_address, execute
from repro.soc.digest import digest_document
from repro.util import document_text

# v2 adds the nullable ``progress`` key (live done/total/violations for
# batch and fuzz jobs) and derives queue/run durations from a monotonic
# clock; v1 consumers that ignore unknown keys keep working
JOB_SCHEMA = "repro/serve-job/v2"

JOB_STATES = ("queued", "running", "done", "failed")

#: Entries in a manager's request-key memo (least recently used out
#: first); an entry takes about 0.5 KB, so a full memo about 2 MB.
REQUEST_KEY_CAP = 4096

_SENTINEL = None

_STOPPED = "server stopped before execution"

_M_SUBMITTED = METRICS.counter(
    "serve.jobs.submitted", "jobs accepted by JobManager.submit"
)
_M_DONE = METRICS.counter(
    "serve.jobs.done", "jobs finished successfully (cache hits included)"
)
_M_FAILED = METRICS.counter("serve.jobs.failed", "jobs finished in error")
_M_EVICTED = METRICS.counter(
    "serve.jobs.evicted", "terminal job records evicted from the bounded table"
)
_M_RUN_SECONDS = METRICS.histogram(
    "serve.job.run_seconds", "wall time executing one job, labelled by kind"
)
_M_KEY_HITS = METRICS.counter(
    "cache.request_key.hits", "submits whose request the request-key memo remembered"
)
_M_KEY_MISSES = METRICS.counter(
    "cache.request_key.misses", "submits whose request the request-key memo did not hold"
)

#: A request-key memo key: the normalized request's digest and the
#: registered profile behind each of its ``spec`` references.
_RequestKey = tuple[str, tuple[GenProfile, ...]]


def _request_key(normalized: dict) -> Optional[_RequestKey]:
    """The memo key of a normalized job, or ``None`` if a ``spec``
    reference names an unregistered profile.

    A ``spec`` names a chip only together with the profile registered
    under its name *now* (``register_profile`` may replace it), so the
    resolved profiles are part of the key; they are frozen, hashable
    and compare by value.
    """
    try:
        profiles = tuple(
            get_profile(ref["spec"]["profile"])
            for ref in soc_refs(normalized)
            if "spec" in ref
        )
    except ValueError:
        return None
    return digest_document(normalized), profiles


@dataclass
class Job:
    """One submitted unit of work and its lifecycle record."""

    id: str
    normalized: dict
    execution: dict
    cache_key: Optional[str] = None
    work: list = field(default_factory=list)
    status: str = "queued"
    cached: bool = False
    error: Optional[str] = None
    result_text: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    # monotonic twins of the wall-clock checkpoints: durations are
    # derived from these, so an NTP step or DST jump mid-job can never
    # produce a negative (or wildly wrong) queued/run time
    submitted_mono: float = 0.0
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    progress: Optional[JobProgress] = None

    @property
    def kind(self) -> str:
        return self.normalized["kind"]

    def mark_started(self) -> None:
        self.started_at = time.time()  # detlint: ignore[DET002] -- display checkpoint; durations use the _mono twin
        self.started_mono = time.monotonic()

    def mark_finished(self) -> None:
        self.finished_at = time.time()  # detlint: ignore[DET002] -- display checkpoint; durations use the _mono twin
        self.finished_mono = time.monotonic()
        # nothing reads the chips after execution, and a retained chip
        # is not small (a d695-like one is over half a megabyte)
        self.work = []
        if self.started_at is None:
            # born-terminal paths (cache hit, submit-time failure)
            # start and finish at the same instant
            self.started_at = self.finished_at
            self.started_mono = self.finished_mono

    def timing(self) -> dict:
        """Wall-clock checkpoints for display; queue/run durations come
        from the monotonic clock, immune to wall-clock steps."""
        queued = run = None
        if self.started_mono is not None:
            queued = round(self.started_mono - self.submitted_mono, 6)
            if self.finished_mono is not None:
                run = round(self.finished_mono - self.started_mono, 6)
        return {
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queued_seconds": queued,
            "run_seconds": run,
        }

    def to_dict(self) -> dict:
        """The job record without its result (the ``GET /jobs`` entry)."""
        doc = {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "cached": self.cached,
            "cache_key": self.cache_key,
            "timing": self.timing(),
            "progress": self.progress.snapshot() if self.progress else None,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def to_json(self) -> str:
        """The job document as ``json.dumps(doc, indent=2)`` writes it,
        with the result, when there is one, as its last key.

        The result is spliced in from the stored text instead of being
        parsed and encoded again.  That text is the result's
        :func:`repro.util.document_text`, in which every newline is
        structural (``json`` escapes one inside a string), so nesting it
        one level down is a replace.
        """
        text = json.dumps(self.to_dict(), indent=2)
        result = self.result_text
        if result is None:
            return text
        nested = result.replace("\n", "\n  ")
        # text ends "\n}": reopen the object after its last key
        return f'{text[:-2]},\n  "result": {nested}\n}}'


def _is_terminal(job: Job) -> bool:
    return job.status in ("done", "failed")


class JobManager:
    """Worker pool + job table + result cache.

    Args:
        workers: concurrent jobs (daemon threads).
        cache: result store (a default in-memory :class:`ResultCache`
            if omitted).
        default_backend: ``repro.core.batch`` backend for jobs that do
            not pin one ("auto" if omitted); an unknown name is refused.
        max_jobs: cap on the job table.  When set, *terminal* jobs
            (``done`` / ``failed``) past the cap are evicted least-
            recently-used first (a ``GET`` of a job refreshes it);
            ``queued`` / ``running`` jobs are never evicted, so the
            table may transiently exceed the cap under a burst of
            in-flight work.  An evicted job's record 404s, but its
            *result* stays served by the content-addressed cache — a
            resubmit is a hit.  ``None`` (the default) keeps the
            pre-cap unbounded behaviour.
    """

    def __init__(
        self,
        workers: int = 2,
        cache: Optional[ResultCache] = None,
        default_backend: Optional[str] = None,
        max_jobs: Optional[int] = None,
    ):
        from repro.core.batch import BACKENDS

        if workers < 1:
            raise ValueError(f"job manager needs at least 1 worker, got {workers}")
        if max_jobs is not None and max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1 (or None), got {max_jobs}")
        if default_backend not in (None, *BACKENDS):
            raise ValueError(
                f"unknown default backend {default_backend!r}; choose from "
                f"{', '.join(BACKENDS)}"
            )
        self.cache = cache if cache is not None else ResultCache()
        self.default_backend = default_backend
        self._jobs = LruTable(max_jobs, evictable=_is_terminal)
        # request-key memo: request key → content key, for requests
        # content_address built successfully
        self._request_keys = LruTable(REQUEST_KEY_CAP)
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._counter = 0
        self._closed = False
        self._started_mono = time.monotonic()
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, payload) -> Job:
        """Validate, content-address, and enqueue one job: :meth:`accept`
        then :meth:`start`."""
        return self.start(self.accept(payload))

    def accept(self, payload) -> Job:
        """Validate, content-address and record one job, without
        starting it: a job left ``queued`` waits for :meth:`start`.

        A request the request-key memo remembers is looked up in the
        result cache before anything is built; chips are built only for
        a first-seen request or a remembered one whose result is gone.

        Raises :class:`JobError` for structurally invalid payloads (the
        server maps that to HTTP 400 — no job is created).  Semantic
        failures *inside* a valid payload (unparsable ``.soc`` text,
        unknown profile, a bad pin or power budget) do create a job,
        born ``failed`` with the error detail, so the submitter gets a
        durable record to inspect.
        """
        normalized, execution = normalize_payload(payload)
        if execution["backend"] is None:
            execution["backend"] = self.default_backend
        memo_key = _request_key(normalized)
        now = time.time()  # detlint: ignore[DET002] -- submitted_at display checkpoint; durations use submitted_mono
        with self._lock:
            if self._closed:
                raise JobError("server is shutting down; job rejected")
            self._counter += 1
            job = Job(
                id=f"j-{self._counter:06d}",
                normalized=normalized,
                execution=execution,
                submitted_at=now,
                submitted_mono=time.monotonic(),
            )
            evicted = self._jobs.put(job.id, job)
            if evicted:
                _M_EVICTED.inc(evicted)
            known = self._request_keys.get(memo_key) if memo_key is not None else None
        _M_SUBMITTED.inc()
        (_M_KEY_MISSES if known is None else _M_KEY_HITS).inc()
        cached = self.cache.get(known) if known is not None else None
        if cached is not None:
            job.cache_key = known
        else:
            # first sight, or the remembered result left both cache
            # tiers: build the chips, so a queued job carries its work
            try:
                job.cache_key, job.work = content_address(normalized)
            except JobError as exc:
                with self._lock:
                    self._finish_locked(job, error=str(exc))
                return job
            if job.cache_key != known:
                cached = self.cache.get(job.cache_key)
        with self._lock:
            if memo_key is not None and job.cache_key != known:
                # a hit's get above already refreshed the memo entry
                self._request_keys.put(memo_key, job.cache_key)
            if cached is not None:
                job.cached = True
                self._finish_locked(job, result_text=cached)
        return job

    def start(self, job: Job) -> Job:
        """Queue a job :meth:`accept` left ``queued``; a job the manager
        closed on in between fails instead.  Born-terminal jobs pass
        through untouched."""
        with self._lock:
            if job.status == "queued":
                if self._closed:
                    self._finish_locked(job, error=_STOPPED)
                else:
                    self._queue.put(job)
        return job

    # -- execution ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SENTINEL:
                return
            with self._lock:
                if job.status != "queued":
                    continue  # a non-drain close failed it first
                job.status = "running"
                job.mark_started()
                if job.kind in ("batch", "fuzz"):
                    # long fan-out kinds get a live counter the engine
                    # bumps per scenario; GET /jobs/<id> snapshots it
                    job.progress = JobProgress()
            try:
                doc = execute(
                    job.normalized, job.work, job.execution,
                    progress=job.progress,
                )
                text = document_text(doc)
                self.cache.put(job.cache_key, text)
                error = None
            except JobError as exc:
                text, error = None, str(exc)
            except Exception as exc:  # noqa: BLE001 — a worker must not die
                text, error = None, f"internal error: {type(exc).__name__}: {exc}"
            with self._lock:
                self._finish_locked(job, error=error, result_text=text)

    def _finish_locked(self, job: Job, error: Optional[str] = None,
                       result_text: Optional[str] = None) -> None:
        """End ``job``: ``failed`` with ``error``, else ``done`` with
        ``result_text``.  Trims the job table, counts the outcome and,
        for a job a worker ran, its run time.  Caller holds the lock."""
        ran = job.started_mono is not None
        job.status = "done" if error is None else "failed"
        job.error = error
        job.result_text = result_text
        job.mark_finished()
        evicted = self._jobs.trim()
        if evicted:
            _M_EVICTED.inc(evicted)
        (_M_DONE if error is None else _M_FAILED).inc()
        if ran:
            _M_RUN_SECONDS.observe(job.finished_mono - job.started_mono, kind=job.kind)

    # -- inspection --------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """The retained job ``job_id``, made the last to be evicted."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every retained job, in submission order (ids are sequential,
        so sorting by id undoes the table's LRU ordering)."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.id)

    def stats(self) -> dict:
        with self._lock:
            by_status = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_status[job.status] += 1
            submitted = self._counter
            evicted = self._jobs.evictions
        from repro.sched.timecalc import scan_time_cache_stats

        doc = {
            "schema": "repro/serve-stats/v2",
            "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
            "workers": len(self._threads),
            "default_backend": self.default_backend or "auto",
            "jobs": {
                "submitted": submitted,
                "retained": sum(by_status.values()),
                "evicted": evicted,
                "max_jobs": self._jobs.cap,
                **by_status,
            },
            "cache": self.cache.stats(),
            "scan_time_cache": scan_time_cache_stats(),
        }
        return doc

    # -- shutdown ----------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the pool.  ``drain=True`` finishes every queued job
        first; ``drain=False`` fails still-queued jobs (in-flight jobs
        always run to completion — results are never torn)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for job in list(self._jobs.values()):
                    if job.status == "queued":
                        self._finish_locked(job, error=_STOPPED)
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join()
