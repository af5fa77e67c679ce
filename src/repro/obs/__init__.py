"""``repro.obs`` — stdlib-only observability: tracing, metrics, progress.

Three small, independent pieces (see each module's docstring):

* :mod:`repro.obs.trace` — a process-local :class:`Tracer` of nestable
  spans, each the one clock of its region, recorded only while enabled;
  JSONL export, replayable span trees, and the compact summary that
  becomes the v4 integration result's ``trace`` section.
* :mod:`repro.obs.metrics` — a global counter/histogram registry
  rendered in the Prometheus text format (``GET /metrics``,
  ``repro metrics``).
* :mod:`repro.obs.progress` — :class:`JobProgress`, the shared
  scenarios-done/total counter behind live job progress on the serve
  layer.

``repro.obs`` imports nothing from the rest of the platform, so every
layer — pipeline, scheduler, batch, serve, CLI — can instrument itself
without import cycles.
"""

from repro.obs.metrics import METRICS, MetricsRegistry, prometheus_name
from repro.obs.progress import JobProgress
from repro.obs.trace import (
    TRACER,
    Tracer,
    disable_tracing,
    enable_tracing,
    load_jsonl,
    span,
    span_tree,
    summarize,
    tracing_enabled,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "prometheus_name",
    "JobProgress",
    "TRACER",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "load_jsonl",
    "span",
    "span_tree",
    "summarize",
    "tracing_enabled",
]
