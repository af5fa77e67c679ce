"""Cross-stage consistency checks: wrappers and pattern translation.

The schedule invariants (:mod:`repro.verify.invariants`) say a schedule
is *internally* legal; these checks say the downstream artifacts agree
with it:

* ``wrapper-balance`` — every generated wrapper partitions exactly the
  core's scan flops and boundary cells over its chains, soft-core
  re-stitching is balanced (lengths differ by at most one), and the
  wrapper was built for the width the schedule assigned;
* ``translation`` — translated ATE programs have exactly the cycle
  count the time model predicts (WIR preamble + the standard
  ``(1 + max(si, so)) * p + min(si, so)`` scan formula, or preamble +
  one cycle per functional vector), optionally lifted by the
  chip-level session preamble.

:func:`verify_integration` runs the schedule invariants and both sweeps
over one flow; it is the only driver, and the ``verify`` stage calls it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.patterns.ate import AteProgram
from repro.patterns.core_patterns import CorePatternSet

# one definition, shared with the translator, so the checker can never
# drift from what it checks
from repro.patterns.translate import CHIP_SESSION_PREAMBLE, wir_preamble_cycles
from repro.sched.ioalloc import SharingPolicy
from repro.sched.timecalc import scan_test_time
from repro.soc.core import Core
from repro.verify.invariants import verify_schedule
from repro.verify.report import VerificationReport
from repro.wrapper.balance import WrapperPlan, wrapper_cell_counts
from repro.wrapper.wir import WrapperInstruction

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import FlowContext


def check_wrapper_plan(
    core: Core,
    plan: WrapperPlan,
    report: VerificationReport,
    expected_width: Optional[int] = None,
) -> None:
    """Wrapper/chain-balance consistency for one generated wrapper."""
    report.check("wrapper-balance")
    subject = core.name
    if plan.core_name != core.name:
        report.add("wrapper-balance", subject,
                   f"plan belongs to {plan.core_name!r}")
        return
    if expected_width is not None and plan.width != expected_width:
        report.add("wrapper-balance", subject,
                   f"wrapper built for width {plan.width}, schedule "
                   f"assigned {expected_width}")
    internal = sum(c.internal_length for c in plan.chains)
    if internal != core.scan_flops:
        report.add("wrapper-balance", subject,
                   f"wrapper chains carry {internal} scan flops, core has "
                   f"{core.scan_flops}")
    want_in, want_out = wrapper_cell_counts(core)
    in_cells = sum(c.input_cells for c in plan.chains)
    out_cells = sum(c.output_cells for c in plan.chains)
    if in_cells != want_in:
        report.add("wrapper-balance", subject,
                   f"{in_cells} wrapper input cells for {want_in} functional "
                   f"input bits")
    if out_cells != want_out:
        report.add("wrapper-balance", subject,
                   f"{out_cells} wrapper output cells for {want_out} functional "
                   f"output bits")
    if plan.rebalanced:
        lengths = [c.internal_length for c in plan.chains if c.internal_length > 0]
        if lengths and max(lengths) - min(lengths) > 1:
            report.add("wrapper-balance", subject,
                       f"re-stitched chain lengths {lengths} are not balanced "
                       f"(spread > 1)")


def check_program_cycles(
    core: Core,
    plan: WrapperPlan,
    patterns: CorePatternSet,
    program: AteProgram,
    kind: str,
    report: VerificationReport,
) -> None:
    """Pattern-translation consistency: the program's cycle count must
    equal the time model's prediction (wrapper-level, or chip-level with
    the session preamble)."""
    report.check("translation")
    if kind == "scan":
        preamble = wir_preamble_cycles(WrapperInstruction.INTEST_PARALLEL)
        body = scan_test_time(
            plan.scan_in_depth, plan.scan_out_depth, len(patterns.scan_vectors)
        )
    else:
        preamble = wir_preamble_cycles(WrapperInstruction.FUNCTIONAL)
        body = len(patterns.functional_vectors)
    wrapper_level = preamble + body
    allowed = {wrapper_level, wrapper_level + CHIP_SESSION_PREAMBLE}
    if program.cycle_count not in allowed:
        report.add(
            "translation", f"{core.name}.{kind}",
            f"program {program.name!r} has {program.cycle_count} cycles; "
            f"time model predicts {wrapper_level} "
            f"(or {wrapper_level + CHIP_SESSION_PREAMBLE} chip-level)",
        )


def check_flow_artifacts(flow: "FlowContext", report: VerificationReport) -> VerificationReport:
    """The wrapper + translation sweep over a flow's artifacts: every
    wrapper against its core and scheduled width, and every translated
    program of a core the flow has pattern data for."""
    soc, wrappers = flow.soc, flow.wrappers
    widths = flow.schedule.scheduled_widths()
    for name, wrapper in sorted(wrappers.items()):
        try:
            core = soc.core(name)
        except KeyError:
            report.add("wrapper-balance", name, "wrapper for unknown core")
            continue
        check_wrapper_plan(core, wrapper.plan, report, expected_width=widths.get(name))
    for core_name, patterns in sorted(flow.pattern_data.items()):
        wrapper = wrappers.get(core_name)
        if wrapper is None:
            continue
        core = soc.core(core_name)
        for kind in ("scan", "func"):
            program = flow.programs.get(f"{core_name}.{kind}")
            if program is not None:
                check_program_cycles(core, wrapper.plan, patterns, program, kind, report)
    return report


def verify_integration(
    flow: "FlowContext", policy: Optional[SharingPolicy] = None
) -> VerificationReport:
    """Verify a whole flow (a finished ``IntegrationResult``, or a context
    run through ``schedule``): the schedule invariants against the flow's
    ``tasks``, then wrapper and translation consistency."""
    report = verify_schedule(flow.soc, flow.schedule, tasks=flow.tasks, policy=policy)
    return check_flow_artifacts(flow, report)
