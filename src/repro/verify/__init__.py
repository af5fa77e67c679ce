"""Schedule-invariant verification (the platform's machine-checkable
correctness oracle).

``verify_schedule`` validates any :class:`~repro.sched.ScheduleResult`
— resource mutexes, power ceiling, pin budget, session structure, and
makespan against the computable lower bound
(:mod:`repro.sched.bounds`) — returning a structured
:class:`VerificationReport`; the CLI ``fuzz`` command differentially
applies it to every registered strategy over generated SOC corpora.
``verify_integration(flow)`` is the one driver for a whole flow (a
:class:`~repro.core.pipeline.FlowContext`, which every
``IntegrationResult`` is): the schedule invariants against the flow's
``tasks``, then wrapper/chain-balance and, for each core with
``pattern_data``, pattern-translation consistency.  The
``VerifySchedule`` pipeline stage calls it on the running flow.
"""

from repro.verify.consistency import (
    check_flow_artifacts,
    check_program_cycles,
    check_wrapper_plan,
    verify_integration,
)
from repro.verify.invariants import policy_for_strategy, verify_schedule
from repro.verify.report import Violation, VerificationReport
from repro.verify.stage import InvariantViolationError, VerifySchedule

__all__ = [
    "InvariantViolationError",
    "VerificationReport",
    "VerifySchedule",
    "Violation",
    "check_flow_artifacts",
    "check_program_cycles",
    "check_wrapper_plan",
    "policy_for_strategy",
    "verify_integration",
    "verify_schedule",
]
