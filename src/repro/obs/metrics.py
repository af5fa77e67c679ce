"""A process-global metrics registry: counters, gauges, histograms.

One namespace unifies the platform's scattered stats dicts — dotted
internal names (``cache.scan_time.hits``, ``sched.moves.pruned``,
``serve.jobs.evicted``) registered once at module import by the
subsystem that owns them::

    _MOVES = METRICS.counter("sched.moves.evaluated", "moves tried")
    ...
    _MOVES.inc(n)          # hot paths batch locally, flush once per run

Two read paths:

* :meth:`MetricsRegistry.render_prometheus` emits the Prometheus text
  exposition format (``GET /metrics`` on the serve layer, ``repro
  metrics`` on the CLI).  Dots are not legal in Prometheus metric
  names, so ``cache.scan_time.hits`` renders as
  ``repro_cache_scan_time_hits``.
* :meth:`MetricsRegistry.value` / :meth:`snapshot` give tests and
  in-process consumers the raw numbers.

Pull-model *collectors* bridge stats sources that keep their own
counters; callers can also pass per-render ``extra`` samples for
server-scoped state (the serve layer's job table and result cache).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, TypeVar, Union

#: Histogram bucket upper bounds (seconds) — wide enough for a
#: millisecond pipeline stage and a minutes-long fuzz job alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: One pulled/extra sample: ``(name, kind, labels-or-None, value)``.
Sample = tuple[str, str, Optional[dict[str, str]], float]

#: A sorted, hashable label set: ``(("backend", "process"), ...)``.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing value, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._samples: dict[LabelKey, float] = {}

    def inc(self, n: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + n

    def get(self, **labels: str) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0)

    def samples(self) -> dict[LabelKey, float]:
        with self._lock:
            return dict(self._samples)

    def _reset(self) -> None:
        with self._lock:
            self._samples = {key: 0 for key in self._samples}


class Gauge(Counter):
    """A value that can go up and down (``set`` replaces)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        # label key -> [per-bucket counts..., +Inf count, sum]
        self._samples: dict[LabelKey, list[float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            row = self._samples.get(key)
            if row is None:
                row = self._samples[key] = [0.0] * (len(self.buckets) + 2)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    row[i] += 1
            row[-2] += 1  # +Inf == total count
            row[-1] += value

    def count(self, **labels: str) -> float:
        with self._lock:
            row = self._samples.get(_label_key(labels))
            return row[-2] if row else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            row = self._samples.get(_label_key(labels))
            return row[-1] if row else 0.0

    def samples(self) -> dict[LabelKey, list[float]]:
        with self._lock:
            return {key: list(row) for key, row in self._samples.items()}

    def _reset(self) -> None:
        with self._lock:
            self._samples.clear()


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Dotted internal name → legal Prometheus metric name."""
    return f"{prefix}_{name.replace('.', '_').replace('-', '_')}"


def _format_labels(labels: Optional[Iterable[tuple[str, str]]]) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in labels:
        text = str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{key}="{text}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: Any registered family (Gauge subclasses Counter).
Metric = Union[Counter, Histogram]

_M = TypeVar("_M", bound=Metric)


class MetricsRegistry:
    """Name → metric family table plus registered pull-collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, Metric] = {}
        self._collectors: list[Callable[[], Iterable[Sample]]] = []

    # -- registration ------------------------------------------------------

    def _register(
        self, name: str, factory: Callable[[], _M], cls: type[_M]
    ) -> _M:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = factory()
            if not isinstance(family, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        """Register (or fetch) the counter ``name``.  Registration also
        creates an unlabelled zero sample, so the family is visible in
        ``/metrics`` before the first event."""
        family = self._register(name, lambda: Counter(name, help), Counter)
        if family.kind == "counter":
            family.inc(0)
        return family

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, lambda: Gauge(name, help), Gauge)

    def histogram(
        self, name: str, help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help, buckets), Histogram
        )

    def collector(self, fn: Callable[[], Iterable[Sample]]) -> None:
        """Register a pull-collector: called at render/snapshot time,
        yielding :data:`Sample` tuples for stats kept elsewhere."""
        with self._lock:
            self._collectors.append(fn)

    # -- reads -------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """The current value of a registered counter/gauge sample."""
        with self._lock:
            family = self._families[name]
        if isinstance(family, Histogram):
            raise ValueError(f"metric {name!r} is a histogram; use count/sum")
        return family.get(**labels)

    def snapshot(self) -> dict[str, float]:
        """Every sample (families and collectors) as a flat dict keyed
        by ``name`` or ``name{k=v,...}`` — the test-facing view."""
        out: dict[str, float] = {}
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors)
        for family in families:
            if isinstance(family, Histogram):
                for key, row in family.samples().items():
                    suffix = _format_labels(key)
                    out[f"{family.name}_count{suffix}"] = row[-2]
                    out[f"{family.name}_sum{suffix}"] = row[-1]
                continue
            for key, value in family.samples().items():
                out[f"{family.name}{_format_labels(key)}"] = value
        for collect in collectors:
            for name, _kind, labels, value in collect():
                suffix = _format_labels(sorted(labels.items()) if labels else None)
                out[f"{name}{suffix}"] = value
        return out

    def reset(self) -> None:
        """Zero every sample, keeping registrations (test isolation)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family._reset()

    # -- Prometheus text exposition ----------------------------------------

    def render_prometheus(self, extra: Iterable[Sample] = ()) -> str:
        """The registry (families, collectors, and per-render ``extra``
        samples) in the Prometheus text exposition format."""
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
            collectors = list(self._collectors)
        lines: list[str] = []
        for family in families:
            name = prometheus_name(family.name)
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            if isinstance(family, Histogram):
                for key, row in sorted(family.samples().items()):
                    base = dict(key)
                    for i, bound in enumerate(family.buckets):
                        labels = _format_labels(
                            sorted({**base, "le": repr(bound)}.items())
                        )
                        lines.append(f"{name}_bucket{labels} {_format_value(row[i])}")
                    labels = _format_labels(sorted({**base, "le": "+Inf"}.items()))
                    lines.append(f"{name}_bucket{labels} {_format_value(row[-2])}")
                    plain = _format_labels(key)
                    lines.append(f"{name}_sum{plain} {_format_value(row[-1])}")
                    lines.append(f"{name}_count{plain} {_format_value(row[-2])}")
                continue
            for key, value in sorted(family.samples().items()):
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
        pulled: list[Sample] = []
        for collect in collectors:
            pulled.extend(collect())
        pulled.extend(extra)
        seen_types: set[str] = set()
        for name, kind, labels, value in pulled:
            rendered = prometheus_name(name)
            if rendered not in seen_types:
                seen_types.add(rendered)
                lines.append(f"# TYPE {rendered} {kind}")
            suffix = _format_labels(sorted(labels.items()) if labels else None)
            lines.append(f"{rendered}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumented module shares.
METRICS = MetricsRegistry()
