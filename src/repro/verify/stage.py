"""The ``verify`` pipeline stage: invariant-check a flow's artifacts.

Appended to the default flow by ``SteacConfig(verify_schedule=True)``
(or ``default_stages(verify=True)``), after the Pattern Translator: by
then the context holds the tasks, the schedule, the generated wrappers
and any translated programs, so :func:`verify_integration`, the one
verification driver, checks the whole flow.  The report lands in
``ctx.verification`` (the result's, since the result is the finished
flow, and the JSON document's); ``verify_strict=True`` escalates an
unclean report to :class:`InvariantViolationError`, which batch runs
surface as a failed item.
"""

from __future__ import annotations

from repro.core.pipeline import FlowContext, Stage
from repro.verify.consistency import verify_integration


class InvariantViolationError(AssertionError):
    """A strict verification run found invariant violations."""

    def __init__(self, report):
        self.report = report
        summary = "; ".join(
            f"{v.rule}({v.subject}): {v.message}" for v in report.errors[:3]
        )
        extra = len(report.errors) - 3
        if extra > 0:
            summary += f"; +{extra} more"
        super().__init__(
            f"schedule for {report.soc_name!r} violates invariants — {summary}"
        )


class VerifySchedule(Stage):
    """Invariant-check everything the flow produced so far."""

    name = "verify"

    def execute(self, ctx: FlowContext) -> None:
        ctx.require("schedule")
        report = ctx.verification = verify_integration(ctx)
        if ctx.config.verify_strict and not report.ok:
            raise InvariantViolationError(report)
