"""sweep-large: generated ``large`` chips, each built, integrated
(``compare_strategies=False``) and serialized to its result document once
per run, in process.

Width allocation (``repro.sched.session.assign_widths``) only shows on
big chips, and on them scheduling is most of the flow; InsertDft is most
of the rest.  The scan-time-table cache is cleared and the heap collected
before every chip, so a chip's time does not depend on which chips ran
before it in the seed's order.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time

import inputs
from calib import Calibrator
from common import Context, Outcome, check, fresh_starts, peak_rss_mb, summary
from layers import TracedPass

from repro.core import Steac, SteacConfig
from repro.core.results import RESULT_SCHEMA
from repro.gen import SocGenerator, chip_name
from repro.obs import span
from repro.sched import clear_scan_time_cache

CONFIG = SteacConfig(strategy="session", compare_strategies=False)
RESULT_KEYS = ("soc", "schedule", "comparison", "bist", "wrappers", "tam",
               "dft_area", "programs", "stage_seconds")


def _op(profile: str, gen_seed: int) -> dict:
    soc = SocGenerator(gen_seed, profile).generate()
    t0 = time.thread_time()
    result = Steac(CONFIG).integrate(soc)
    t1 = time.thread_time()
    with span("results.serialize"):
        text = result.to_json()
    return {"text": text, "flow_s": t1 - t0}


def warmup(workdir) -> None:
    _op(*inputs.SWEEP_WARMUP)


def _reset() -> None:
    clear_scan_time_cache()
    gc.collect()


def _verify(gen_seed: int, out: dict) -> tuple[int, float]:
    """Schema check; returns the chip's test cycles and DFT area."""
    doc = json.loads(out["text"])
    check(doc.get("schema") == RESULT_SCHEMA, f"schema {doc.get('schema')!r}")
    missing = [key for key in RESULT_KEYS if key not in doc]
    check(not missing, f"result lacks {missing}")
    name = chip_name(inputs.SWEEP_PROFILE, gen_seed, 0)
    check(doc["soc"]["name"] == name, f"result names {doc['soc']['name']!r}, not {name!r}")
    schedule = doc["schedule"]
    check(schedule["strategy"] == "session-based", f"strategy {schedule['strategy']!r}")
    check(schedule["total_time"] > 0 and schedule["sessions"], "empty schedule")
    area = math.fsum([item["gates"] for item in doc["dft_area"]["items"]]
                     + [w["area_gates"] for w in doc["wrappers"].values()])
    check(area > 0, "no DFT area")
    return schedule["total_time"], area


def run(ctx: Context) -> Outcome:
    warmup(ctx.workdir)
    order = inputs.sweep_order(ctx.seed, ctx.seconds)
    op = lambda gen_seed: _op(inputs.SWEEP_PROFILE, gen_seed)
    errors: list[str] = []
    if ctx.trace:
        cal = Calibrator.in_process()
        traced = TracedPass(cal, ctx.outdir / f"spans-{ctx.workload}-s{ctx.seed}.jsonl")
        attempted = traced.run(order[: (len(order) + 1) // 2], op, _verify, _reset, errors)
        metrics = traced.metrics()
        metrics["calib.ref_ms"] = cal.ref_median()
        metrics["calib.guard_retries"] = cal.guard_retries
        return Outcome(attempted, len(errors), metrics, errors=errors)

    setup = fresh_starts(ctx)
    cal = Calibrator.in_process()
    op_s, raw_s, flow_ms, cycles, areas, records = [], [], [], [], [], []
    for gen_seed in order:
        _reset()
        try:
            with cal.bracket() as bracket:
                out = op(gen_seed)
            chip_cycles, chip_area = _verify(gen_seed, out)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            errors.append(f"chip {gen_seed}: {type(exc).__name__}: {exc}")
            continue
        timed = bracket.timed
        op_s.append(timed.s)
        raw_s.append(timed.raw_s)
        flow_ms.append(timed.scale(out["flow_s"]) * 1e3)
        cycles.append(chip_cycles)
        areas.append(chip_area)
        records.append({"chip": gen_seed, "cycles": chip_cycles, "area": chip_area,
                        "ms": timed.ms, "raw_ms": timed.raw_s * 1e3,
                        "ref_ms": timed.ref_ms, "flow_ms": flow_ms[-1]})
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": len(op_s) / sum(op_s) if op_s else 0.0,
        "op_ms.p50": statistics.median(op_s) * 1e3 if op_s else 0.0,
        "flow_ms.p50": statistics.median(flow_ms) if flow_ms else 0.0,
        "test_cycles": sum(cycles),
        "dft_area_gates": round(math.fsum(areas), 1),
    }
    detail = {
        "chips": len(order),
        "raw": {"ops_per_s": len(raw_s) / sum(raw_s) if raw_s else 0.0,
                "op_ms.p50": statistics.median(raw_s) * 1e3 if raw_s else 0.0},
        "setup_s": summary(setup),
        "calib.ref_ms": cal.ref_median(),
        "ops": records,
    }
    return Outcome(len(order), len(errors), metrics, detail, errors)
