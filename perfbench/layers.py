"""The traced run of the in-process workloads.

Tracing (:mod:`repro.obs`) records the spans the program already has —
``integrate``, ``pipeline.<stage>``, ``sched.session_search``,
``campaign.run`` / ``campaign.chunk``.  While a traced op runs, and only
then, :class:`Instrumentation` also wraps the layers' public functions at
the module attribute their callers look up, so those calls become spans
too.  ``assign_widths`` is called too often for a span per call; it is
timed into a counter instead.  Untraced ops run the unmodified program.

Each item is run twice, untraced and traced, alternating which goes
first; the ratio of the two calibrated sums is the tracing overhead.
Self time of a span is its duration minus its children's; the self time
of the op's own root span is the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Iterable

from calib import Calibrator
from inputs import CAMPAIGN_STRATEGIES as STRATEGIES
from spec import SELF_LAYERS

from repro.obs import METRICS, TRACER, span
from repro.sched import get_scheduler, register_scheduler, scan_time_cache_stats

#: (module, attribute, span name): the public layer functions wrapped in
#: the traced run, at the attribute the program's callers resolve.
SPAN_WRAPS = (
    ("repro.gen.generator", "SocGenerator.generate", "gen.generate"),
    ("repro.gen.writer", "roundtrip_errors", "gen.roundtrip"),
    ("repro.sched", "schedule_lower_bound", "sched.bound"),
    ("repro.sched.session", "session_schedule_floor", "sched.bound"),
    ("repro.core.pipeline", "generate_wrapper", "wrapper.generate"),
    ("repro.core.pipeline", "make_tam_mux", "tam.mux"),
    ("repro.controller.generator", "make_test_controller", "controller.build"),
    ("repro.verify", "verify_schedule", "verify.schedule"),
)
HOT_WRAP = ("repro.sched.session", "assign_widths")

ROOT_SPAN = "bench.op"

#: Span name -> layer credited with its self time (unlisted: "flow").
LAYER_OF = {
    "gen.generate": "gen",
    "gen.roundtrip": "gen",
    "pipeline.compile_bist": "bist",
    "pipeline.schedule": "sched",
    "sched.session_search": "sched",
    "sched.bound": "sched",
    **{f"sched.{name}": "sched" for name in STRATEGIES},
    "pipeline.insert_dft": "insert_dft",
    "wrapper.generate": "insert_dft",
    "tam.mux": "insert_dft",
    "controller.build": "insert_dft",
    "results.serialize": "results",
    "pipeline.verify": "verify",
    "verify.schedule": "verify",
    "campaign.run": "campaign",
    "campaign.chunk": "campaign",
    "campaign.shrink": "campaign",
}

#: Per-layer ``_ms`` metrics summed from span durations.
SPAN_METRICS = {
    "gen.generate_ms": ("gen.generate",),
    "gen.roundtrip_ms": ("gen.roundtrip",),
    "bist.compile_ms": ("pipeline.compile_bist",),
    "sched.schedule_ms": tuple(f"sched.{name}" for name in STRATEGIES),
    **{f"sched.{name}_ms": (f"sched.{name}",) for name in STRATEGIES},
    "sched.bound_ms": ("sched.bound",),
    "insert_dft_ms": ("pipeline.insert_dft",),
    "wrapper.generate_ms": ("wrapper.generate",),
    "tam.mux_ms": ("tam.mux",),
    "controller.build_ms": ("controller.build",),
    "results.serialize_ms": ("results.serialize",),
    "verify_ms": ("verify.schedule", "pipeline.verify"),
    "campaign.chunk_ms": ("campaign.chunk",),
}

#: Program counters read before and after each traced op.
COUNTERS = ("sched.moves.evaluated", "sched.moves.pruned", "sched.rounds",
            "cache.evaluator_memo.hits", "cache.evaluator_memo.misses",
            "campaign.scenarios", "campaign.chunks", "campaign.violations")


def _spanned(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Context manager: layer wrappers installed and tracing on inside."""

    def __init__(self) -> None:
        self._restore: list[Callable[[], None]] = []
        self.hot_calls = 0
        self.hot_seconds = 0.0

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._restore.append(lambda: setattr(owner, name, original))

    def _timed(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.hot_seconds += time.perf_counter() - t0
                self.hot_calls += 1

        return wrapper

    def __enter__(self) -> "Instrumentation":
        for module_name, attr, name in SPAN_WRAPS:
            self._patch(module_name, attr, functools.partial(_spanned, name=name))
        for strategy in STRATEGIES:
            original = get_scheduler(strategy)
            register_scheduler(strategy)(_spanned(original, f"sched.{strategy}"))
            self._restore.append(functools.partial(register_scheduler(strategy), original))
        self._patch(*HOT_WRAP, self._timed)
        TRACER.drain()
        TRACER.enable()
        return self

    def __exit__(self, *exc: object) -> bool:
        TRACER.disable()
        while self._restore:
            self._restore.pop()()
        return False


def _counters() -> dict[str, float]:
    snap = {name: METRICS.value(name) for name in COUNTERS}
    stats = scan_time_cache_stats()
    snap["cache.scan_time.hits"] = stats["hits"]
    snap["cache.scan_time.misses"] = stats["misses"]
    return snap


def _analyze(records: list[dict], root_id: int) -> dict:
    """Span totals by name, self time by layer, and the root's own time."""
    child = defaultdict(float)
    totals = defaultdict(float)
    for record in records:
        totals[record["name"]] += record["dur"]
        child[record["parent"]] += record["dur"]
    self_time = defaultdict(float)
    root = None
    for record in records:
        own = max(0.0, record["dur"] - child[record["id"]])
        if record["id"] == root_id:
            root = record
            unattributed = own
        else:
            self_time[LAYER_OF.get(record["name"], "flow")] += own
    if root is None:
        raise RuntimeError("traced op recorded no root span")
    return {"totals": totals, "self": self_time, "unattributed": unattributed,
            "root": root["dur"]}


class TracedPass:
    """Runs items untraced and traced and accumulates the layer numbers."""

    def __init__(self, cal: Calibrator, spans_path) -> None:
        self.cal = cal
        self.spans_path = spans_path
        self.rows: list[dict] = []
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []

    def run(self, items: Iterable, op: Callable, verify: Callable,
            reset: Callable[[], None], errors: list[str]) -> int:
        """Run every item both ways; returns the ops attempted.  ``op``
        returns the program's output, ``verify`` raises on a wrong one."""
        attempted = 0
        with open(self.spans_path, "w") as sink:
            for index, item in enumerate(items):
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    attempted += 1
                    reset()
                    try:
                        if traced:
                            self._traced(index, item, op, verify, sink)
                        else:
                            with self.cal.bracket() as bracket:
                                out = op(item)
                            verify(item, out)
                            self.plain_s.append(bracket.timed.s)
                    except Exception as exc:  # noqa: BLE001 — a failed op is counted
                        errors.append(f"{item}: {type(exc).__name__}: {exc}")
        return attempted

    def _traced(self, index: int, item, op, verify, sink) -> None:
        with Instrumentation() as inst:
            before = _counters()
            with self.cal.bracket() as bracket:
                with span(ROOT_SPAN, item=str(item)) as root:
                    out = op(item)
            after = _counters()
        records = TRACER.drain()
        verify(item, out)
        for record in records:
            sink.write(json.dumps({"op": index, **record}, sort_keys=True) + "\n")
        timed = bracket.timed
        spans = _analyze(records, root.id)
        row = {name: timed.scale(sum(spans["totals"].get(n, 0.0) for n in names)) * 1e3
               for name, names in SPAN_METRICS.items()}
        parts = ("wrapper.generate_ms", "tam.mux_ms", "controller.build_ms")
        row["insert_dft.stitch_ms"] = (
            max(0.0, row["insert_dft_ms"] - sum(row[p] for p in parts))
            if row["insert_dft_ms"] else 0.0
        )
        row["campaign.overhead_ms"] = (
            timed.scale(spans["totals"].get("campaign.run", 0.0)) * 1e3
            - row["campaign.chunk_ms"]
        )
        row["sched.assign_widths_ms"] = timed.scale(inst.hot_seconds) * 1e3
        row["sched.assign_widths.calls"] = inst.hot_calls
        row["counters"] = {key: after[key] - before[key] for key in after}
        row["self"] = {key: timed.scale(value) for key, value in spans["self"].items()}
        row["unattributed_s"] = timed.scale(spans["unattributed"])
        row["root_s"] = timed.scale(spans["root"])
        self.rows.append(row)
        self.traced_s.append(timed.s)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: means per op, ratios over all ops."""
        rows = self.rows
        if not rows:
            return {}
        n = len(rows)
        out = {name: sum(row[name] for row in rows) / n
               for name in (*SPAN_METRICS, "insert_dft.stitch_ms",
                            "campaign.overhead_ms", "sched.assign_widths_ms",
                            "sched.assign_widths.calls")}
        counts = defaultdict(float)
        for row in rows:
            for key, value in row["counters"].items():
                counts[key] += value
        for name in ("sched.moves.evaluated", "sched.moves.pruned", "sched.rounds",
                     "campaign.scenarios", "campaign.chunks", "campaign.violations"):
            out[name] = counts[name] / n
        for cache in ("cache.scan_time", "cache.evaluator_memo"):
            hits, misses = counts[f"{cache}.hits"], counts[f"{cache}.misses"]
            out[f"{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        root_total = sum(row["root_s"] for row in rows)
        for layer in SELF_LAYERS:
            out[f"self_pct.{layer}"] = (
                100.0 * sum(row["self"].get(layer, 0.0) for row in rows) / root_total
            )
        out["unattributed_pct"] = 100.0 * sum(row["unattributed_s"] for row in rows) / root_total
        out["obs.tracing_overhead_pct"] = (
            100.0 * (sum(self.traced_s) / sum(self.plain_s) - 1.0) if self.plain_s else 0.0
        )
        return out
