"""Differential fuzzing as a library: every registered strategy over a
generated corpus, every schedule invariant-checked, every chip
round-tripped through the ``.soc`` writer/parser.

This is the engine behind ``python -m repro fuzz`` *and* the serving
layer's ``fuzz`` job kind — both produce the same
``repro/fuzz-report/v2`` document, so a sweep submitted over HTTP is
byte-comparable with one run from the shell.  A fuzz sweep is a
one-chunk campaign: :func:`run_fuzz` resolves its definition through
:class:`repro.gen.campaign.CampaignConfig`, and it and every campaign
chunk run scenarios through :func:`sweep`.  :func:`fuzz_scenario` is
module-level and fed only ``(profile, seed)`` coordinates, never live
models, so the process backend can pickle the work out to workers.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

#: v2: strategy cells split ``violations`` into per-severity ``errors``
#: / ``warnings`` lists (v1 listed both under one key while only errors
#: counted toward the verdict, so a warnings-only scenario reported
#: ``ok: true`` beside a non-empty ``violations`` list), and the
#: top-level report records its execution coordinates (resolved
#: ``backend``, ``workers``, ``ilp_max_tasks``) so a saved report can be
#: reproduced exactly.
FUZZ_SCHEMA = "repro/fuzz-report/v2"


def strategy_cell(
    soc, tasks: list, strategy: str, ilp_max_tasks: int
) -> tuple[dict, int]:
    """Race one strategy on a compiled chip: the ILP task gate,
    scheduling, the infeasible / crashed / skipped outcomes, and
    ``verify_schedule``.  Returns ``(the scenario document's cell for
    this strategy, its violation count)``.

    This is the one definition of "strategy X failed on this chip":
    :func:`fuzz_scenario` loops over it and the failure shrinker
    (:func:`repro.gen.shrink.signature_fires`) re-runs it on each cut.
    """
    from repro.sched import InfeasibleScheduleError, resolve_schedule
    from repro.verify import verify_schedule

    if strategy == "ilp" and len(tasks) > ilp_max_tasks:
        return {"skipped": f"> {ilp_max_tasks} tasks"}, 0
    try:
        result = resolve_schedule(strategy, soc, tasks)
    except InfeasibleScheduleError as exc:
        return {"infeasible": str(exc)}, 1
    except ImportError as exc:
        # an optional dependency (scipy for "ilp") is absent — not a
        # scheduling violation, skip like the pipeline does
        return {"skipped": f"optional dependency: {exc}"}, 0
    except Exception as exc:
        # a crashing scheduler is the defect class a differential
        # harness exists to report: record it in the cell (the scenario
        # document carries the replay coordinates) instead of sinking
        # the whole sweep
        return {"crashed": f"{type(exc).__name__}: {exc}"}, 1
    report = verify_schedule(soc, result, tasks=tasks)
    # errors and warnings ride in separate lists: only errors count
    # toward the verdict, and consumers must never have to re-filter a
    # mixed list to learn why "ok" said what it said
    return {
        "total_time": result.total_time,
        "sessions": result.session_count,
        "ok": report.ok,
        "errors": [v.to_dict() for v in report.errors],
        "warnings": [v.to_dict() for v in report.warnings],
    }, len(report.errors)


def fuzz_scenario(
    profile: str, seed: int, strategies: tuple, ilp_max_tasks: int
) -> tuple[dict, int]:
    """One fuzz scenario: generate the chip from its coordinates, race
    every strategy (:func:`strategy_cell`), round-trip the ``.soc``
    writer/parser.  Returns ``(scenario doc, violation count)``.
    """
    from repro.core import CompileBist, FlowContext, SteacConfig
    from repro.gen.generator import SocGenerator
    from repro.gen.writer import roundtrip_errors
    from repro.sched import schedule_lower_bound

    soc = SocGenerator(seed, profile).generate()
    ctx = FlowContext(soc=soc, config=SteacConfig(compare_strategies=False))
    CompileBist().run(ctx)
    bound = schedule_lower_bound(soc, ctx.tasks)
    rt_errors = roundtrip_errors(soc)
    violation_count = len(rt_errors)
    doc = {
        "soc": soc.name,
        "seed": seed,
        "tasks": len(ctx.tasks),
        "lower_bound": bound,
        "roundtrip_ok": not rt_errors,
        "roundtrip_errors": rt_errors,
        "strategies": {},
    }
    for strategy in strategies:
        cell, violations = strategy_cell(soc, ctx.tasks, strategy, ilp_max_tasks)
        doc["strategies"][strategy] = cell
        violation_count += violations
    return doc, violation_count


def scenario_warning_count(doc: dict) -> int:
    """Warning-severity violations recorded in one scenario document."""
    return sum(
        len(cell.get("warnings", ())) for cell in doc.get("strategies", {}).values()
    )


#: What one strategy cell of a scenario came to (a campaign's
#: per-strategy tally counts these).
CELL_OUTCOMES = ("ok", "violated", "infeasible", "crashed", "skipped")


def cell_outcome(cell: dict) -> str:
    """Classify one strategy cell (:func:`strategy_cell`) as one of
    :data:`CELL_OUTCOMES`."""
    for outcome in ("skipped", "infeasible", "crashed"):
        if outcome in cell:
            return outcome
    return "ok" if cell["ok"] else "violated"


def sweep(runner, config, first: int, count: int, progress=None) -> list:
    """Run scenarios for seeds ``first .. first + count - 1`` of a
    resolved sweep definition (:class:`repro.gen.campaign.CampaignConfig`)
    on a :class:`repro.core.batch.ChunkRunner`, in seed order.  Returns
    ``[(scenario doc, violation count), ...]``.

    The one place a scenario is handed to a runner: :func:`run_fuzz`
    sweeps once, a campaign once per chunk.  ``progress`` (a
    :class:`repro.obs.JobProgress`) advances as each scenario lands.
    """
    note = None
    if progress is not None:

        def note(outcome) -> None:
            progress.advance(violations=outcome[1])

    return runner.map(
        fuzz_scenario,
        (
            itertools.repeat(config.profile),
            range(first, first + count),
            itertools.repeat(config.strategies),
            itertools.repeat(config.ilp_max_tasks),
        ),
        progress=note,
    )


def run_fuzz(
    profile: str = "tiny",
    seeds: int = 20,
    seed_base: int = 0,
    strategies: Optional[Sequence[str]] = None,
    ilp_max_tasks: int = 6,
    workers: Optional[int] = None,
    backend: str = "auto",
    progress=None,
) -> dict:
    """Run a differential fuzz sweep, returning the
    ``repro/fuzz-report/v2`` document (``doc["ok"]`` is the verdict;
    the CLI and the serving layer both wrap this call).

    The sweep resolves as a one-chunk campaign
    (:meth:`repro.gen.campaign.CampaignConfig.resolved`): ``workers=None``
    takes :func:`repro.core.batch.default_workers`, one worker per seed
    (capped at the CPUs) for an explicit ``process`` request and a
    serial sweep otherwise.

    ``progress`` is an optional :class:`repro.obs.JobProgress` bumped
    once per finished scenario (with its violation count), so a served
    fuzz job exposes live ``done/total`` while the sweep runs.
    """
    from repro.core.batch import ChunkRunner
    from repro.gen.campaign import CampaignConfig
    from repro.obs import span

    if seeds < 1:
        raise ValueError(f"fuzz needs at least 1 seed, got {seeds}")
    config = CampaignConfig(
        profile=profile,
        seeds=seeds,
        seed_base=seed_base,
        strategies=tuple(strategies or ()),
        ilp_max_tasks=ilp_max_tasks,
        chunk_size=seeds,
        workers=workers,
        backend=backend,
    ).resolved()
    if progress is not None:
        progress.start(seeds)
    with span(
        "fuzz.run", profile=profile, seeds=seeds, backend=config.backend
    ), ChunkRunner(config.backend, config.workers) as runner:
        outcomes = sweep(runner, config, seed_base, seeds, progress)
    violation_count = sum(count for _, count in outcomes)
    return {
        "schema": FUZZ_SCHEMA,
        "profile": profile,
        "seed_base": seed_base,
        "seeds": seeds,
        "strategies": list(config.strategies),
        # the execution coordinates a reproduction needs: the resolved
        # backend (like batch-result v3 records it), the worker count,
        # and the MILP gate that decided which scenarios skipped "ilp"
        "backend": config.backend,
        "workers": config.workers,
        "ilp_max_tasks": ilp_max_tasks,
        "ok": violation_count == 0,
        "violation_count": violation_count,
        "warning_count": sum(scenario_warning_count(doc) for doc, _ in outcomes),
        "scenarios": [doc for doc, _ in outcomes],
    }
