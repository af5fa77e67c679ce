"""campaign-tiny: each op is a fresh, short ``run_campaign`` over the next
seeds — profile ``tiny``, strategies ``session``/``nonsession``/``serial``,
serial backend, one worker, several chunk barriers per op.

It runs the generator, BRAINS, three schedulers, ``verify_schedule``, the
``.soc`` writer/parser round trip and the checkpoint fsyncs, but never
InsertDft or the result cache.  ``ilp`` is left out: the MILP would be
>95% of a tiny scenario's time and measure the solver, not this repo.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import statistics

import inputs
from calib import Calibrator
from common import Context, Outcome, check, fresh_starts, peak_rss_mb, summary
from layers import TracedPass

from repro.bist.compiler import Brains, BrainsConfig
from repro.core import SteacConfig
from repro.gen import CAMPAIGN_REPORT_SCHEMA, SocGenerator, run_campaign
from repro.sched import clear_scan_time_cache


def _op(base: int, directory) -> dict:
    return run_campaign(
        directory,
        profile=inputs.CAMPAIGN_PROFILE,
        seeds=inputs.CAMPAIGN_SCENARIOS,
        seed_base=base,
        strategies=inputs.CAMPAIGN_STRATEGIES,
        chunk_size=inputs.CAMPAIGN_CHUNK,
        workers=1,
        backend="serial",
    )


def warmup(workdir) -> None:
    directory = workdir / "warmup"
    shutil.rmtree(directory, ignore_errors=True)
    _op(inputs.CAMPAIGN_WARMUP_BASE, directory)
    shutil.rmtree(directory)


def _verify(base: int, directory, report: dict) -> int:
    """Report and scenario-log checks; returns the op's test cycles."""
    seeds = inputs.CAMPAIGN_SCENARIOS
    check(report.get("schema") == CAMPAIGN_REPORT_SCHEMA, f"schema {report.get('schema')!r}")
    check(report["complete"] and report["scenarios"] == seeds,
          f"incomplete report: {report['scenarios']} of {seeds} scenarios")
    check(report["ok"] and report["violation_count"] == 0 and not report["findings"],
          f"{report['violation_count']} violation(s)")
    lines = (directory / "scenarios.jsonl").read_text().splitlines()
    check(len(lines) == seeds, f"{len(lines)} scenario lines, expected {seeds}")
    cycles = 0
    for offset, line in enumerate(lines):
        doc = json.loads(line)
        check(doc["seed"] == base + offset, f"scenario seed {doc['seed']} out of order")
        for strategy in inputs.CAMPAIGN_STRATEGIES:
            cell = doc["strategies"][strategy]
            check(cell.get("ok") is True, f"seed {doc['seed']} {strategy}: {cell}")
            cycles += cell["total_time"]
    return cycles


def _bist_area(bases: list[int]) -> float:
    """BRAINS area of every scenario chip with memories: the DFT hardware
    the campaign's flow sizes (the campaign reports no area itself, so it
    is compiled again here, after the timed ops)."""
    march = SteacConfig().march
    areas = []
    for base in bases:
        for seed in range(base, base + inputs.CAMPAIGN_SCENARIOS):
            soc = SocGenerator(seed, inputs.CAMPAIGN_PROFILE).generate()
            if soc.memories:
                engine = Brains().compile(
                    soc.memories, BrainsConfig(march=march, power_budget=soc.power_budget)
                )
                areas.append(engine.to_dict()["area_gates"])
    return math.fsum(areas)


def run(ctx: Context) -> Outcome:
    warmup(ctx.workdir)
    order = inputs.campaign_order(ctx.seed, ctx.seconds)
    errors: list[str] = []
    directory = ctx.workdir / "campaign"

    def reset() -> None:
        shutil.rmtree(directory, ignore_errors=True)
        clear_scan_time_cache()
        gc.collect()

    def op(base: int) -> dict:
        return _op(base, directory)

    def verify(base: int, report: dict) -> int:
        return _verify(base, directory, report)

    if ctx.trace:
        cal = Calibrator.in_process()
        traced = TracedPass(cal, ctx.outdir / f"spans-{ctx.workload}-s{ctx.seed}.jsonl")
        attempted = traced.run(order[: (len(order) + 1) // 2], op, verify, reset, errors)
        metrics = traced.metrics()
        metrics["calib.ref_ms"] = cal.ref_median()
        metrics["calib.guard_retries"] = cal.guard_retries
        return Outcome(attempted, len(errors), metrics, errors=errors)

    setup = fresh_starts(ctx)
    cal = Calibrator.in_process()
    op_s, raw_s, cycles, records = [], [], 0, []
    for base in order:
        reset()
        try:
            with cal.bracket() as bracket:
                report = op(base)
            op_cycles = verify(base, report)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            errors.append(f"campaign {base}: {type(exc).__name__}: {exc}")
            continue
        timed = bracket.timed
        cycles += op_cycles
        op_s.append(timed.s)
        raw_s.append(timed.raw_s)
        records.append({"seed_base": base, "cycles": op_cycles, "ms": timed.ms,
                        "raw_ms": timed.raw_s * 1e3, "ref_ms": timed.ref_ms})
    scenarios = inputs.CAMPAIGN_SCENARIOS
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": scenarios * len(op_s) / sum(op_s) if op_s else 0.0,
        "op_ms.p50": statistics.median(op_s) * 1e3 if op_s else 0.0,
        "flow_ms.p50": statistics.median(op_s) * 1e3 / scenarios if op_s else 0.0,
        "test_cycles": cycles,
        "dft_area_gates": round(_bist_area(sorted(order)), 1),
    }
    detail = {
        "campaigns": len(order),
        "raw": {"ops_per_s": scenarios * len(raw_s) / sum(raw_s) if raw_s else 0.0},
        "setup_s": summary(setup),
        "calib.ref_ms": cal.ref_median(),
        "calib.guard_retries": cal.guard_retries,
        "ops": records,
    }
    return Outcome(len(order), len(errors), metrics, detail, errors)
