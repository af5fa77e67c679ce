"""Batch integration: many SOCs through the platform at once.

The paper integrates one chip in "5 minutes"; a production platform
integrates design-space sweeps (pin budgets, power budgets, floorplans)
and whole chip families.  :func:`integrate_many` fans the Fig.-1 flow
out over a pluggable executor backend with

* **deterministic ordering** — results come back in input order no
  matter which worker finishes first,
* **per-SOC error isolation** — one infeasible or malformed chip yields
  a failed :class:`BatchItem`; the rest of the batch completes, and
* **per-worker platform instances** — every worker process runs its
  own :class:`~repro.core.steac.Steac`, so a stage that keeps per-run
  state on ``self`` can never race across chips.

Backends (``backend=`` on :func:`integrate_many` / ``--backend`` on the
CLI):

``serial``
    A plain loop in the calling thread — the reference semantics.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` with chunked
    submission — true multi-core execution.  This became possible once
    scan-task time models were made declarative and picklable
    (:class:`repro.sched.timecalc.ScanTimeModel` replaced the old
    closure-based ``time_fn``, which pinned this module to threads).
    Under ``auto``, a pool-machinery failure — an unpicklable work item
    or result, a crashed worker — transparently retries on the serial
    backend (identical deterministic results, no pickle boundary), so
    per-SOC isolation holds either way; an *explicit* ``process``
    request propagates such failures instead, keeping picklability
    regressions visible to CI smoke runs.
``auto``
    ``serial`` for single-worker or single-chip batches, ``process``
    otherwise.

Work items may be live :class:`~repro.soc.soc.Soc` objects **or**
cheap *specs* exposing ``build() -> Soc`` (e.g.
:class:`repro.gen.corpus.ScenarioSpec`, the ``(profile, seed, index)``
coordinates of a generated chip).  Specs are materialized inside the
worker, so a generated corpus ships a few integers per chip to each
process instead of a pickled SOC model.

Workers are *warm* across chips: a pool process lives for the whole
batch (``_init_process_worker`` builds its ``Steac`` once and imports
the platform once).  Workers share no table cache: each chip's
scan-time tables are built in closed form
(:mod:`repro.sched.timecalc`) and die with its cores.

Every fan-out in the package — batches, fuzz sweeps, campaigns and the
repair Monte-Carlo — opens a :class:`ChunkRunner` and maps its work
through it; it is the only code that builds a process pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.core.results import BATCH_SCHEMA, IntegrationResult
from repro.obs import TRACER, span, tracing_enabled
from repro.soc.soc import Soc
from repro.util import Table, document_text, format_cycles

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.steac import Steac, SteacConfig

#: Executor backends ``integrate_many`` accepts.
BACKENDS = ("auto", "serial", "process")

#: Target chunks-per-worker for process submission: small enough to load
#: balance uneven chips, large enough to amortize pickling round-trips.
_CHUNKS_PER_WORKER = 4


@runtime_checkable
class SocSpec(Protocol):
    """Structural type for spec-based work items: anything with a
    ``build() -> Soc`` method (and ideally a cheap ``name``) can ride a
    batch; see :class:`repro.gen.corpus.ScenarioSpec`."""

    def build(self) -> Soc: ...  # pragma: no cover - protocol stub


#: One unit of batch work: a live chip model or a cheap buildable spec.
WorkItem = Union[Soc, SocSpec]


@dataclass
class BatchItem:
    """The outcome for one SOC of a batch: a result or an error string."""

    index: int
    soc_name: str
    result: Optional[IntegrationResult] = None
    error: Optional[str] = None
    #: Span records captured in a process-pool worker, shipped back for
    #: :meth:`repro.obs.Tracer.adopt`; transport-only — cleared on merge
    #: and never serialized into :meth:`to_dict`.
    spans: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def verification_ok(self) -> Optional[bool]:
        """Invariant-check outcome: True/False when the flow ran with
        ``verify_schedule``, None when it did not (or the item failed)."""
        if self.result is None or self.result.verification is None:
            return None
        return self.result.verification.ok

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "soc_name": self.soc_name,
            "ok": self.ok,
            "error": self.error,
            "verification_ok": self.verification_ok,
            "result": self.result.to_dict() if self.result else None,
        }


@dataclass
class BatchResult:
    """All outcomes of one :func:`integrate_many` run, in input order."""

    items: list[BatchItem] = field(default_factory=list)
    workers: int = 1
    elapsed_seconds: float = 0.0
    backend: str = "serial"

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ok(self) -> bool:
        """Everything requested succeeded: every item integrated AND,
        when invariant verification ran, every report is clean.  The
        JSON document's ``ok`` and the CLI exit code carry the same
        value; see :attr:`failures` / :attr:`verified_ok` for which
        half went wrong."""
        return all(item.ok for item in self.items) and self.verified_ok

    @property
    def results(self) -> list[IntegrationResult]:
        """Successful results only, still in input order."""
        return [item.result for item in self.items if item.result is not None]

    @property
    def failures(self) -> list[BatchItem]:
        return [item for item in self.items if not item.ok]

    @property
    def verified_ok(self) -> bool:
        """True when every completed item's invariant check (if run) is
        clean — the batch-level gate ``repro batch --verify`` exits on."""
        return all(item.verification_ok is not False for item in self.items)

    def to_dict(self) -> dict:
        return {
            "schema": BATCH_SCHEMA,
            "backend": self.backend,
            "workers": self.workers,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "ok": self.ok,
            "items": [item.to_dict() for item in self.items],
        }

    def to_json(self) -> str:
        return document_text(self.to_dict())

    def render(self) -> str:
        """One-line-per-SOC batch summary table."""
        verified = any(item.verification_ok is not None for item in self.items)
        columns = ["#", "SOC", "Status", "Total test time", "Sessions"]
        if verified:
            columns.append("Invariants")
        table = Table(
            columns,
            title=f"batch integration: {len(self.items)} SOCs, "
            f"{self.backend} backend, {self.workers} workers, "
            f"{self.elapsed_seconds:.2f} s",
        )
        for item in self.items:
            if item.result is not None:
                row = [
                    item.index,
                    item.soc_name,
                    "ok",
                    format_cycles(item.result.total_test_time),
                    item.result.schedule.session_count,
                ]
            else:
                row = [item.index, item.soc_name, f"FAILED: {item.error}", "-", "-"]
            if verified:
                status = item.verification_ok
                if status is None:
                    row.append("-")
                elif status:
                    row.append("clean")
                else:
                    row.append(f"{len(item.result.verification.errors)} violations")
            table.add_row(row)
        return table.render()


# -- worker plumbing ---------------------------------------------------------


def _integrate_item(steac: "Steac", index: int, item: WorkItem) -> BatchItem:
    """Run one work item on one platform instance, isolating errors.

    When tracing is on, the item runs under a ``batch.item`` span
    carrying its batch position and — for spec work — the ``(profile,
    seed, index)`` generation coordinates.
    """
    sp = span(
        "batch.item", index=index,
        profile=getattr(item, "profile", None), seed=getattr(item, "seed", None),
    )
    name = f"soc[{index}]"
    with sp:
        try:
            # inside the try: a malformed spec may raise from its own name
            # property (e.g. an unknown generator profile), and that must
            # fail this item, not the batch
            name = getattr(item, "name", None) or name
            if isinstance(item, Soc):
                soc = item
            else:
                build = getattr(item, "build", None)
                if not callable(build):
                    raise TypeError(
                        f"batch work item {item!r} is neither a Soc nor a spec "
                        "with a build() method"
                    )
                soc = build()
                name = getattr(soc, "name", name)
            out = BatchItem(index=index, soc_name=name, result=steac.integrate(soc))
        except Exception as exc:  # per-SOC isolation: record, don't raise
            out = BatchItem(
                index=index, soc_name=name, error=f"{type(exc).__name__}: {exc}"
            )
        if sp.id is not None:
            sp.set(soc=out.soc_name, ok=out.ok)
        return out


#: Per-process platform instance, created once by :func:`_init_process_worker`.
_PROCESS_STEAC: Optional["Steac"] = None


def _init_process_worker(config: "SteacConfig | None", trace: bool = False) -> None:
    """Process-pool initializer: one ``Steac`` per worker process,
    reused for every chip the worker integrates.  ``trace=True``
    (mirrored from the parent's tracer state) turns tracing on in the
    worker so per-item spans exist to ship back."""
    global _PROCESS_STEAC
    from repro.core.steac import Steac

    if trace:
        from repro.obs import enable_tracing

        enable_tracing()
    _PROCESS_STEAC = Steac(config)


def _process_one(index: int, item: WorkItem) -> BatchItem:
    """Module-level (hence picklable) process-pool work function.

    With tracing on, the worker's spans for this item ride back on
    ``BatchItem.spans`` as plain record dicts (the worker runs items
    sequentially, so a post-item drain captures exactly this item's
    subtree); the parent re-homes them via ``Tracer.adopt``."""
    out = _integrate_item(_PROCESS_STEAC, index, item)
    if tracing_enabled():
        out.spans = TRACER.drain()
    return out


def auto_workers(n_items: int) -> int:
    """The default worker count for ``n_items`` units of work: one per
    item, capped at the CPU count, never below one.  Used by
    :func:`integrate_many` and, for an explicit ``process`` request, by
    :func:`default_workers`."""
    return max(1, min(n_items, os.cpu_count() or 1))


def default_workers(workers: Optional[int], backend: str, n_items: int) -> int:
    """The worker count a fuzz sweep or a campaign runs ``n_items`` with.

    An explicit ``workers`` wins (floored at one).  Otherwise an
    explicit ``process`` request gets :func:`auto_workers` and every
    other backend one worker, so ``auto`` resolves to serial by default
    — safe for in-process plugin registries, whose entries never reach
    spawned worker processes."""
    if workers is not None:
        return max(1, workers)
    return auto_workers(n_items) if backend == "process" else 1


def resolve_backend(backend: str, workers: int, n_items: int) -> str:
    """Turn ``auto`` into a concrete backend name (and reject typos)."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown batch backend {backend!r}; choose from {', '.join(BACKENDS)}"
        )
    if backend != "auto":
        return backend
    if workers <= 1 or n_items <= 1:
        return "serial"
    return "process"


def _drain(results: Iterable, progress: Optional[Callable]) -> list:
    """Collect mapped results, reporting each to ``progress`` as it
    lands.  ``executor.map`` yields in input order, so the callback
    sees head-of-line completion — later results may already be done —
    but the reported count is always monotone non-decreasing."""
    if progress is None:
        return list(results)
    out = []
    for result in results:
        progress(result)
        out.append(result)
    return out


class ChunkRunner:
    """A persistent executor for chunked dispatch with barrier semantics
    — the one place the package builds a process pool.

    Long campaigns (:mod:`repro.gen.campaign`) process work in chunks
    and checkpoint at every chunk boundary; recreating a process pool
    per chunk would throw away warm workers hundreds of times per
    campaign.  A ``ChunkRunner`` owns one executor for its whole
    lifetime and exposes :meth:`map`, which is a
    **barrier**: it returns only when every item of the chunk is done,
    in input order — the caller can checkpoint the instant it returns
    and lose at most the next in-flight chunk to a crash.  A one-shot
    fan-out (a batch, a fuzz sweep, the repair Monte-Carlo) opens a
    runner for a single :meth:`map`.

    Use as a context manager.  A bare ``with executor:`` block would,
    on a ``KeyboardInterrupt`` raised while draining results, *block*
    until every already-queued item finishes — minutes of
    orphan-looking workers after the user asked to stop.  Here an
    exception (including ``KeyboardInterrupt``) cancels the queued work
    first, so the pool joins after at most the in-flight items.
    """

    def __init__(
        self,
        backend: str,
        workers: int = 1,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ):
        if backend not in ("serial", "process"):
            raise ValueError(
                f"unresolved chunk backend {backend!r}; run resolve_backend() first"
            )
        self.backend = backend
        self.workers = max(1, workers)
        self._pool = None
        if backend == "process":
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=initializer, initargs=initargs
            )

    def map(
        self,
        fn: Callable,
        iterables: Sequence[Iterable],
        chunksize: int = 1,
        progress: Optional[Callable] = None,
    ) -> list:
        """Order-preserving ``map(fn, *iterables)`` over one chunk —
        blocks until the whole chunk is collected (the checkpoint
        barrier).  ``serial`` runs a plain loop in the calling thread
        (the ``initializer`` is not run); ``process`` needs a picklable
        (module-level) ``fn``.  ``chunksize`` batches items per pool
        round-trip; ``progress`` is called with each result as it
        lands — the hook live job progress
        (:class:`repro.obs.JobProgress`) hangs off."""
        if self._pool is None:
            return _drain((fn(*args) for args in zip(*iterables)), progress)
        return _drain(self._pool.map(fn, *iterables, chunksize=chunksize), progress)

    def shutdown(self, cancel: bool = False) -> None:
        """Join the pool (``cancel=True`` drops queued-but-unstarted
        work first — the error and interrupt path)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> "ChunkRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(cancel=exc_type is not None)


def integrate_many(
    socs: Sequence[WorkItem],
    config: "SteacConfig | None" = None,
    workers: Optional[int] = None,
    backend: str = "auto",
    progress=None,
) -> BatchResult:
    """Integrate every SOC in ``socs`` concurrently.

    Args:
        socs: the chips — live ``Soc`` models and/or buildable specs
            (see the module docstring); each runs the full default flow
            independently on its worker's own ``Steac``.
        config: shared platform configuration (each worker constructs
            its own ``Steac`` from it; the process backend requires it
            to be picklable, which the stock ``SteacConfig`` is).
        workers: worker count; default ``min(len(socs), cpu_count)``.
        backend: ``auto`` / ``serial`` / ``process`` (see
            :data:`BACKENDS`); ``auto`` picks ``serial`` for trivial
            batches and ``process`` otherwise.  On platforms whose
            multiprocessing start method is *spawn* (macOS, Windows),
            the process backend — like any use of ``multiprocessing`` —
            requires the calling script to guard its entry point with
            ``if __name__ == "__main__":``; pass ``backend="serial"`` to
            run in the calling process instead.
        progress: optional :class:`repro.obs.JobProgress` (or anything
            with its ``start``/``advance`` shape) bumped once per
            finished chip — the serving layer passes the job's progress
            object here so ``GET /jobs/<id>`` shows live per-scenario
            counts while the batch runs.

    Returns:
        A :class:`BatchResult` whose items are in ``socs`` order; a SOC
        that raises during integration becomes a failed item and does
        not disturb its neighbours.
    """
    from repro.core.steac import Steac

    items = list(socs)
    if workers is None:
        workers = auto_workers(len(items))
    workers = max(1, workers)
    requested = backend
    backend = resolve_backend(backend, workers, len(items))

    with span("batch.run", backend=backend, chips=len(items)) as bsp:
        note = None
        if progress is not None:
            progress.start(len(items))

            def note(item: BatchItem) -> None:
                progress.advance(failed=0 if item.ok else 1)

        out: Optional[list[BatchItem]] = None
        if items and backend == "process":
            chunksize = max(1, len(items) // (workers * _CHUNKS_PER_WORKER))
            try:
                with ChunkRunner(
                    backend,
                    workers,
                    initializer=_init_process_worker,
                    initargs=(config, tracing_enabled()),
                ) as runner:
                    out = runner.map(
                        _process_one,
                        (range(len(items)), items),
                        chunksize=chunksize,
                        progress=note,
                    )
            except Exception:
                # anything escaping pool.map is pool machinery, not
                # integration logic (per-item errors are already caught in
                # _integrate_item): an unpicklable item/result or a crashed
                # worker.  When the caller asked for "auto", retry on the
                # serial backend (no pickle boundary, same deterministic
                # results) to honour the per-SOC isolation promise; an
                # *explicit* process request propagates the failure, so CI
                # smoke runs can catch picklability regressions.
                if requested != "auto":
                    raise
                backend = "serial"
            else:
                # re-home worker-side span records under the batch span
                for item in out:
                    if item.spans:
                        TRACER.adopt(item.spans, parent=bsp.id)
                    item.spans = None
        if out is None:  # serial, an empty batch, or the auto fallback
            steac = Steac(config)
            with ChunkRunner("serial") as runner:
                out = runner.map(
                    lambda i, item: _integrate_item(steac, i, item),
                    (range(len(items)), items),
                    progress=note,
                )
    return BatchResult(
        items=out,
        workers=workers,
        elapsed_seconds=bsp.seconds,
        backend=backend,
    )
