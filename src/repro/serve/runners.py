"""From normalized job documents to result documents.

:func:`content_address` builds each of a job's chip references into a
:class:`repro.soc.Soc` once, at submit, and folds their
:meth:`repro.soc.Soc.digest` content addresses into the cache key;
:func:`execute` runs the job on those same chips, through the library
entry points the CLI uses (``Steac.integrate``, ``integrate_many``,
``run_fuzz``, ``repair_report``), so a served result is the verbatim
wire document of the matching shell command, and the chip a cache key
names is the chip the result was computed on (a generator profile
re-registered while the job is queued changes neither).  Both raise
:class:`repro.serve.keys.JobError` for user-caused failures (a
malformed ``.soc``, an unknown strategy) — the job manager records
those as *failed jobs*, distinct from server bugs.
"""

from __future__ import annotations

from repro.gen import ScenarioSpec
from repro.serve.keys import JobError, cache_key, soc_refs
from repro.soc import Soc


def result_schema(kind: str) -> str:
    """The wire-schema version a job kind produces (part of its cache
    key: bumping a schema invalidates that kind's cached entries)."""
    if kind == "integrate":
        from repro.core.results import RESULT_SCHEMA

        return RESULT_SCHEMA
    if kind == "batch":
        from repro.core.results import BATCH_SCHEMA

        return BATCH_SCHEMA
    if kind == "fuzz":
        from repro.gen import FUZZ_SCHEMA

        return FUZZ_SCHEMA
    if kind == "repair":
        from repro.repair import REPAIR_REPORT_SCHEMA

        return REPAIR_REPORT_SCHEMA
    raise JobError(f"unknown job kind {kind!r}")


def build_work_item(ref: dict) -> Soc:
    """Build the chip one normalized reference names (raising
    :class:`JobError` on semantic problems, e.g. unparsable ``.soc``
    text or an unknown generator profile).  A ``spec`` is built here,
    under the profile registered now."""
    test_pins = ref.get("test_pins")
    power_budget = ref.get("power_budget")
    if "soc_text" in ref:
        from repro.soc.itc02 import soc_from_text

        try:
            return soc_from_text(
                ref["soc_text"],
                test_pins=test_pins if test_pins is not None else 64,
                power_budget=power_budget if power_budget is not None else 0.0,
            )
        except ValueError as exc:
            raise JobError(f"unparsable soc_text: {exc}") from exc
    if "spec" in ref:
        spec = ref["spec"]
        from repro.gen import available_profiles

        if spec["profile"] not in available_profiles():
            raise JobError(
                f"unknown generator profile {spec['profile']!r} "
                f"(available: {', '.join(available_profiles())})"
            )
        return ScenarioSpec(
            profile=spec["profile"],
            seed=spec["seed"],
            index=spec["index"],
            test_pins=test_pins,
            power_budget=power_budget,
        ).build()
    name = ref["name"]
    overrides = {}
    if test_pins is not None:
        overrides["test_pins"] = test_pins
    if power_budget is not None:
        overrides["power_budget"] = power_budget
    if name == "d695":
        from repro.soc.itc02 import d695_soc

        return d695_soc(**overrides)
    from repro.soc.dsc import build_dsc_chip

    return build_dsc_chip(**overrides)


def content_address(normalized: dict) -> tuple[str, list[Soc]]:
    """Build a normalized job's chips and its cache key.

    Returns ``(key, work)``; the chips are reused for execution, so each
    is built (and inline ``.soc`` text parsed) exactly once.  Raises
    :class:`JobError` if any chip reference cannot be built.
    """
    work = [build_work_item(ref) for ref in soc_refs(normalized)]
    digests = [soc.digest() for soc in work]
    return cache_key(normalized, digests, result_schema(normalized["kind"])), work


def execute(
    normalized: dict, work: list[Soc], execution: dict, progress=None
) -> dict:
    """Run a normalized job, returning its wire document.

    ``execution`` carries the non-semantic knobs (``backend`` /
    ``workers``); they steer *how fast* the answer arrives, never what
    it is — the cache relies on that.  ``progress`` is an optional
    :class:`repro.obs.JobProgress` threaded into the batch and fuzz
    engines so long jobs expose live per-scenario counters while
    running; the other kinds (one chip, one report) ignore it.
    """
    from repro.obs import span

    kind = normalized["kind"]
    backend = execution.get("backend") or "auto"
    workers = execution.get("workers")
    try:
        with span("serve.job", kind=kind, backend=backend):
            return _dispatch(normalized, work, kind, backend, workers, progress)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, JobError):
            raise
        # registry lookups (unknown strategy / allocator) and
        # model validation raise KeyError/ValueError — user input, not
        # a server fault
        raise JobError(str(exc)) from exc


def _dispatch(
    normalized: dict, work: list[Soc], kind, backend, workers, progress
) -> dict:
    if kind == "integrate":
        from repro.core import Steac, SteacConfig

        config = SteacConfig(
            strategy=normalized["strategy"],
            compare_strategies=normalized["compare"],
            verify_schedule=normalized["verify"],
        )
        return Steac(config).integrate(work[0]).to_dict()
    if kind == "batch":
        from repro.core import Steac, SteacConfig

        config = SteacConfig(
            strategy=normalized["strategy"],
            compare_strategies=False,
            verify_schedule=normalized["verify"],
        )
        return (
            Steac(config)
            .integrate_many(
                work, workers=workers, backend=backend, progress=progress
            )
            .to_dict()
        )
    if kind == "fuzz":
        from repro.gen import run_fuzz

        return run_fuzz(
            profile=normalized["profile"],
            seeds=normalized["seeds"],
            seed_base=normalized["seed_base"],
            strategies=normalized["strategies"],
            ilp_max_tasks=normalized["ilp_max_tasks"],
            workers=workers,
            backend=backend,
            progress=progress,
        )
    if kind == "repair":
        from repro.repair import repair_report

        return repair_report(
            work[0],
            seed=normalized["seed"],
            trials=normalized["trials"],
            workers=workers or 0,
            allocator=normalized["allocator"],
            defects=normalized["defects"],
            defect_density=normalized["defect_density"],
            spare_rows=normalized["spare_rows"],
            spare_cols=normalized["spare_cols"],
            model_rows=normalized["model_rows"],
        )
    raise JobError(f"unknown job kind {kind!r}")
