"""Process-local tracing: nestable spans over the integration flow.

A span is one timed region of the flow — a pipeline stage, a scheduler
search, one chip of a batch — opened with :func:`span` as a context
manager::

    with span("sched.session_search", soc="d695", tasks=21) as sp:
        ...
        sp.set(makespan=41232)

A span is the one clock for its region: ``sp.seconds`` is its
:func:`time.perf_counter` length, traced or not, and every duration the
flow reports is read from it.  A span made while the tracer is
*enabled* is also recorded, nesting through a per-thread stack; while
it is *disabled* (the default) a span takes no lock and records nothing
(``bench_sched_search.py`` gates the end-to-end overhead at <2%).

Records are plain dicts (``{"id", "parent", "name", "start", "wall",
"dur", "attrs"}``) — picklable and JSON-native by construction — so
batch process workers can ship their spans back to the parent
(:meth:`Tracer.drain` in the worker, :meth:`Tracer.adopt` in the
parent, which remaps ids and re-parents worker roots under the batch
span).  ``start`` is :func:`time.monotonic` — never steps backwards,
and on Linux the clock is shared machine-wide, so worker spans still
order correctly against parent spans.  ``dur`` is the span's
``seconds``.  ``wall`` is a display-only wall timestamp (when did this
run happen?) — nothing orders or diffs by it.

Two consumers read the records:

* :meth:`Tracer.export_jsonl` writes one record per line (the CLI's
  ``--trace-out``); :func:`load_jsonl` + :func:`span_tree` replay the
  file into a nested tree.
* :func:`summarize` folds a subtree into a compact aggregate (children
  grouped by name, counts and summed seconds) — the ``trace`` section
  of the v4 integration-result schema.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Optional


class Span:
    """One timed region (``seconds`` once closed); recorded, with an
    ``id``, only when made while its tracer was enabled."""

    __slots__ = (
        "_tracer", "name", "attrs", "id", "parent", "seconds", "_start", "_wall", "_t0",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        attrs: dict[str, Any],
        parent: Optional[int] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.id: Optional[int] = None
        self.seconds = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            stack = tracer._stack()
            if self.parent is None and stack:
                self.parent = stack[-1]
            self.id = next(tracer._ids)
            stack.append(self.id)
            self._start = time.monotonic()
            self._wall = time.time()  # detlint: ignore[DET002] -- display-only run timestamp; ordering uses the monotonic `start`
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.seconds = time.perf_counter() - self._t0
        tracer = self._tracer
        if tracer is None:
            return False
        stack = tracer._stack()
        if stack and stack[-1] == self.id:
            stack.pop()
        elif self.id is not None:  # pragma: no cover — unbalanced exit
            try:
                stack.remove(self.id)
            except ValueError:
                pass
        tracer._append({
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self._start,
            "wall": self._wall,
            "dur": self.seconds,
            "attrs": self.attrs,
        })
        return False


class Tracer:
    """A process-local span recorder.

    Disabled by default: its spans then only time.  Enabling is
    process-wide for this tracer; the per-thread span stack keeps
    concurrent threads' spans correctly parented.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._records: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- state -------------------------------------------------------------

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        """Drop every recorded span (the enabled flag is untouched)."""
        with self._lock:
            self._records.clear()

    def _stack(self) -> list[int]:
        stack: Optional[list[int]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)

    # -- span creation -----------------------------------------------------

    def span(self, name: str, parent: Optional[int] = None, **attrs: Any) -> Span:
        """A new child span (timed, but not recorded, while disabled).

        ``parent`` pins the parent id explicitly — for a caller on
        another thread, whose own span stack is empty; same-thread
        callers inherit the innermost open span from the stack.
        """
        return Span(self if self._enabled else None, name, attrs, parent=parent)

    # -- record access -----------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """A snapshot copy of every closed span, in completion order."""
        with self._lock:
            return list(self._records)

    def drain(self) -> list[dict[str, Any]]:
        """Remove and return every closed span (worker-side shipping)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def adopt(
        self, records: list[dict[str, Any]], parent: Optional[int] = None
    ) -> None:
        """Merge records from another process into this tracer.

        Worker-assigned ids collide with local ones, so every record
        gets a fresh id; roots (and records whose parent is not in the
        shipped set) are re-parented under ``parent``.
        """
        if not records:
            return
        with self._lock:
            mapping = {r["id"]: next(self._ids) for r in records}
            for r in records:
                merged = dict(r)
                merged["id"] = mapping[r["id"]]
                merged["parent"] = mapping.get(r["parent"], parent)
                self._records.append(merged)

    def export_jsonl(self, path: str) -> int:
        """Write every record to ``path`` as one JSON object per line;
        returns the record count."""
        records = self.records()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


#: The process-wide tracer every instrumented module shares.
TRACER = Tracer()


def span(name: str, parent: Optional[int] = None, **attrs: Any) -> Span:
    """A span on the global :data:`TRACER` (recorded only while enabled)."""
    return TRACER.span(name, parent=parent, **attrs)


def tracing_enabled() -> bool:
    """Whether the global tracer is recording (hot-path guard)."""
    return TRACER._enabled


def enable_tracing() -> None:
    TRACER.enable()


def disable_tracing() -> None:
    TRACER.disable()


# -- replay / aggregation ----------------------------------------------------


def load_jsonl(path: str) -> list[dict[str, Any]]:
    """Read records back from a ``--trace-out`` JSONL file."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def span_tree(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Replay flat records into a nested tree.

    Returns the root spans (parent absent from the record set), oldest
    first, each with a ``children`` list in start order.  Every node is
    a copy — the input records are untouched.
    """
    nodes: dict[int, dict[str, Any]] = {
        r["id"]: {**r, "children": []} for r in records
    }
    roots: list[dict[str, Any]] = []
    for record in sorted(records, key=lambda r: r["start"]):
        node = nodes[record["id"]]
        parent = nodes.get(record["parent"])
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def summarize(
    records: list[dict[str, Any]], root_id: int
) -> Optional[dict[str, Any]]:
    """Fold the subtree under ``root_id`` into a compact aggregate.

    Children are grouped by span name at every level: a batch of 100
    chips summarizes to one ``batch.item`` node with ``count: 100``
    and the summed seconds, not 100 siblings.  This is the ``trace``
    section of the v4 integration-result schema::

        {"name": ..., "count": n, "seconds": s, "children": [...]}
    """
    by_id = {r["id"]: r for r in records}
    if root_id not in by_id:
        return None
    kids: dict[Optional[int], list[dict[str, Any]]] = {}
    for record in records:
        kids.setdefault(record["parent"], []).append(record)

    def fold(group: list[dict[str, Any]]) -> dict[str, Any]:
        node: dict[str, Any] = {
            "name": group[0]["name"],
            "count": len(group),
            "seconds": round(sum(r["dur"] for r in group), 6),
        }
        children = [c for r in group for c in kids.get(r["id"], [])]
        if children:
            grouped: dict[str, list[dict[str, Any]]] = {}
            for child in sorted(children, key=lambda c: c["start"]):
                grouped.setdefault(child["name"], []).append(child)
            node["children"] = [fold(g) for g in grouped.values()]
        return node

    return fold([by_id[root_id]])
