"""Build schedulable tasks from SOC models."""

from __future__ import annotations

from repro.sched.result import TestTask
from repro.sched.timecalc import ScanTimeModel, functional_test_time
from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.soc.tests import TestKind

#: Cap on useful TAM width for soft cores (re-stitching beyond this buys
#: little and costs pins).
SOFT_CORE_MAX_WIDTH = 16


def scan_max_width(core: Core) -> int:
    """Largest useful TAM width for a core's scan test.

    Hard cores cannot split their internal chains, so width beyond the
    chain count only helps boundary cells; soft cores re-stitch freely.
    """
    if not core.scan_chains:
        return 1
    if core.is_soft:
        return min(SOFT_CORE_MAX_WIDTH, max(1, core.scan_flops))
    return max(1, len(core.scan_chains))


def tasks_from_core(core: Core, time_models: bool = True) -> list[TestTask]:
    """One :class:`TestTask` per test of ``core``.

    ``time_models=False`` skips building the (precomputed)
    :class:`~repro.sched.timecalc.ScanTimeModel` tables — scan tasks
    come back with no ``time_fn`` and zero duration.  That variant is
    **for control-IO/pin accounting only** (clock domains, control
    needs, port flags are all present); never schedule it.  The
    generator's pin-floor computation uses this to avoid building
    tables for chips it is still budgeting.
    """
    tasks: list[TestTask] = []
    domains = tuple(d.name for d in core.clock_domains)
    if not domains:
        # fall back to clock ports (cores built without ClockDomain lists)
        from repro.soc.ports import SignalKind

        domains = tuple(
            p.clock_domain or p.name for p in core.ports_of_kind(SignalKind.CLOCK)
        )
    for test in core.tests:
        name = f"{core.name}.{test.name}"
        if test.kind is TestKind.SCAN and core.scan_chains:
            max_width = scan_max_width(core)
            tasks.append(
                TestTask(
                    name=name,
                    core_name=core.name,
                    kind=test.kind,
                    control=core.control_needs,
                    clock_domains=domains,
                    power=test.power,
                    time_fn=ScanTimeModel.for_core(
                        core, test.patterns, max_width=max_width
                    ) if time_models else None,
                    max_width=max_width,
                )
            )
        else:
            tasks.append(
                TestTask(
                    name=name,
                    core_name=core.name,
                    kind=test.kind,
                    control=core.control_needs,
                    clock_domains=domains,
                    power=test.power,
                    fixed_time=functional_test_time(test.patterns),
                    uses_functional_pins=test.kind is TestKind.FUNCTIONAL,
                )
            )
    return tasks


def tasks_from_soc(soc: Soc, time_models: bool = True) -> list[TestTask]:
    """Tasks for every test of every wrapped core (memory BIST tasks are
    added separately by the BRAINS integration, see
    :mod:`repro.bist.scheduling`).  See :func:`tasks_from_core` for the
    accounting-only ``time_models=False`` variant."""
    tasks: list[TestTask] = []
    for core in soc.wrapped_cores:
        tasks.extend(tasks_from_core(core, time_models=time_models))
    return tasks
