"""The benchmark's catalog: workloads, metrics and the layer map.

``BENCHMARK.json`` at the repository root mirrors :data:`WORKLOADS`,
:data:`END_TO_END` and :data:`PER_LAYER` (the self-tests compare them).
Every workload reports every metric, so the end-to-end names are
generic; what "op" and "flow" mean on each workload is stated here.

=============  ==========================  ===========================  =====================
metric         sweep-large                 serve-mixed                  campaign-tiny
=============  ==========================  ===========================  =====================
ops_per_s      chips per second            jobs per second              scenarios per second
op_ms.p50      one chip: build, integrate  one job request, hit or      one ``run_campaign``
               and serialize               miss
flow_ms.p50    ``Steac.integrate`` alone   one cache miss: POST, the    one scenario (op time
                                           worker's CPU time, GET       over scenarios per op)
                                           result
test_cycles    every session schedule      every distinct job's         every strategy cell
                                           schedule                     of every scenario
dft_area_gates DFT items plus wrapper      DFT items plus wrapper       BRAINS BIST area of
               area of every result        area of every distinct job   every scenario chip
setup_s        fresh process: imports and  fresh server: start to its   fresh process: imports
               a warm-up chip              banner line, a warm-up job   and a warm-up campaign
peak_rss_mb    benchmark process           server process (VmHWM)       benchmark process
=============  ==========================  ===========================  =====================

``setup_s`` is the median of five fresh starts per run.  All host times
are calibrated (:mod:`calib`): in-process ops on the thread's CPU clock,
serve-mixed round trips and fresh starts on the wall clock, and the
server's share of a miss on its worker thread's CPU clock.  ``test_cycles`` and
``dft_area_gates`` are exact: every seed feeds the program the same
population in a different order, so they are identical on every run and
reject a speed-up bought with worse schedules or a changed area model.
"""

from __future__ import annotations

#: name -> why the workload is in the benchmark (one line each).
WORKLOADS = {
    "sweep-large": (
        "large generated chips integrated in process: session width "
        "allocation dominates, the top hot path, and InsertDft is the rest"
    ),
    "serve-mixed": (
        "one closed-loop HTTP client, skewed stream over named, spec and "
        ".soc chips: misses run InsertDft and write the cache, hits are "
        "content addressing"
    ),
    "campaign-tiny": (
        "short checkpointed campaigns on tiny chips: generator, BRAINS, three "
        "schedulers, verifier, .soc round trip and fsyncs, never InsertDft or "
        "the result cache"
    ),
}

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_ms.p50", "ms", "lower", 0.2),
    ("flow_ms.p50", "ms", "lower", 0.2),
    ("test_cycles", "cycles", "lower", 0.01),
    ("dft_area_gates", "gates", "lower", 0.01),
)

#: Layers whose self time the traced run attributes.
SELF_LAYERS = ("gen", "bist", "sched", "insert_dft", "results", "verify",
               "campaign", "flow")

#: (name, unit, better); per op of the traced run, calibrated, and 0 on
#: a workload that never reaches the layer.
PER_LAYER = (
    ("gen.generate_ms", "ms", "lower"),
    ("gen.roundtrip_ms", "ms", "lower"),
    ("bist.compile_ms", "ms", "lower"),
    ("cache.scan_time.hit_ratio", "ratio", "higher"),
    ("sched.schedule_ms", "ms", "lower"),
    ("sched.session_ms", "ms", "lower"),
    ("sched.nonsession_ms", "ms", "lower"),
    ("sched.serial_ms", "ms", "lower"),
    ("sched.bound_ms", "ms", "lower"),
    ("sched.assign_widths_ms", "ms", "lower"),
    ("sched.assign_widths.calls", "count", "lower"),
    ("sched.moves.evaluated", "count", "lower"),
    ("sched.moves.pruned", "count", "higher"),
    ("sched.rounds", "count", "lower"),
    ("cache.evaluator_memo.hit_ratio", "ratio", "higher"),
    ("insert_dft_ms", "ms", "lower"),
    ("wrapper.generate_ms", "ms", "lower"),
    ("tam.mux_ms", "ms", "lower"),
    ("controller.build_ms", "ms", "lower"),
    ("insert_dft.stitch_ms", "ms", "lower"),
    ("results.serialize_ms", "ms", "lower"),
    ("verify_ms", "ms", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.content_address_ms.name", "ms", "lower"),
    ("serve.content_address_ms.spec", "ms", "lower"),
    ("serve.content_address_ms.soc_text", "ms", "lower"),
    ("soc.digest_ms", "ms", "lower"),
    ("serve.queued_ms", "ms", "lower"),
    ("serve.run_ms", "ms", "lower"),
    ("serve.result_get_ms", "ms", "lower"),
    ("serve.miss_ms.p50", "ms", "lower"),
    ("serve.hit_ms.p50", "ms", "lower"),
    ("serve.hit_ms.p95", "ms", "lower"),
    ("serve.spec_hit_ms.p50", "ms", "lower"),
    ("cache.result.hit_ratio", "ratio", "higher"),
    ("cache.result.disk_hit_share", "ratio", "lower"),
    ("cache.result.evictions", "count", "lower"),
    ("serve.poll.count", "count", "lower"),
    ("campaign.chunk_ms", "ms", "lower"),
    ("campaign.overhead_ms", "ms", "lower"),
    ("campaign.scenarios", "count", "higher"),
    ("campaign.chunks", "count", "lower"),
    ("campaign.violations", "count", "lower"),
    *((f"self_pct.{layer}", "%", "lower") for layer in SELF_LAYERS),
    ("unattributed_pct", "%", "lower"),
    ("obs.tracing_overhead_pct", "%", "lower"),
    ("calib.ref_ms", "ms", "lower"),
    ("calib.guard_retries", "count", "lower"),
)

#: Layer -> the per-layer metrics that observe it and the end-to-end
#: metrics (``workload/metric``) a change to the layer should move.
#: Workloads not named should not move.
LAYER_MAP = {
    "generator (repro.gen)": {
        "metrics": ("gen.generate_ms", "gen.roundtrip_ms"),
        "moves": ("campaign-tiny/ops_per_s", "sweep-large/ops_per_s"),
    },
    "BRAINS and scan-time tables (repro.bist, repro.sched.timecalc)": {
        "metrics": ("bist.compile_ms", "cache.scan_time.hit_ratio"),
        "moves": ("sweep-large/ops_per_s", "serve-mixed/flow_ms.p50",
                  "campaign-tiny/ops_per_s"),
    },
    "scheduler (repro.sched)": {
        "metrics": ("sched.schedule_ms", "sched.session_ms",
                    "sched.nonsession_ms", "sched.serial_ms", "sched.bound_ms",
                    "sched.assign_widths_ms", "sched.assign_widths.calls",
                    "sched.moves.evaluated", "sched.moves.pruned",
                    "sched.rounds", "cache.evaluator_memo.hit_ratio"),
        "moves": ("sweep-large/ops_per_s", "sweep-large/op_ms.p50",
                  "sweep-large/flow_ms.p50", "campaign-tiny/ops_per_s",
                  "serve-mixed/flow_ms.p50"),
    },
    "InsertDft (repro.wrapper, repro.tam, repro.controller, repro.netlist)": {
        "metrics": ("insert_dft_ms", "wrapper.generate_ms", "tam.mux_ms",
                    "controller.build_ms", "insert_dft.stitch_ms"),
        "moves": ("serve-mixed/flow_ms.p50", "serve-mixed/ops_per_s",
                  "sweep-large/ops_per_s"),
    },
    "results (repro.core.results)": {
        "metrics": ("results.serialize_ms",),
        "moves": ("serve-mixed/flow_ms.p50", "sweep-large/ops_per_s"),
    },
    "verifier (repro.verify)": {
        "metrics": ("verify_ms",),
        "moves": ("campaign-tiny/ops_per_s", "serve-mixed/flow_ms.p50"),
    },
    "service (repro.serve, repro.soc.digest)": {
        "metrics": ("serve.submit_ms", "serve.content_address_ms.name",
                    "serve.content_address_ms.spec",
                    "serve.content_address_ms.soc_text", "soc.digest_ms",
                    "serve.queued_ms", "serve.run_ms", "serve.result_get_ms",
                    "serve.hit_ms.p50", "serve.hit_ms.p95",
                    "serve.spec_hit_ms.p50", "serve.miss_ms.p50",
                    "cache.result.hit_ratio", "cache.result.disk_hit_share",
                    "cache.result.evictions", "serve.poll.count"),
        "moves": ("serve-mixed/op_ms.p50", "serve-mixed/ops_per_s",
                  "serve-mixed/flow_ms.p50"),
    },
    "campaign engine (repro.gen.campaign)": {
        "metrics": ("campaign.chunk_ms", "campaign.overhead_ms",
                    "campaign.scenarios", "campaign.chunks",
                    "campaign.violations"),
        "moves": ("campaign-tiny/ops_per_s", "campaign-tiny/op_ms.p50"),
    },
    "whole op (diagnostics)": {
        "metrics": ("unattributed_pct", "obs.tracing_overhead_pct",
                    "calib.ref_ms", "calib.guard_retries",
                    *(f"self_pct.{layer}" for layer in SELF_LAYERS)),
        "moves": (),
    },
}
