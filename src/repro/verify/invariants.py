"""Schedule-invariant checking: is this ``ScheduleResult`` actually legal?

The checker validates any schedule — from the built-in strategies, the
exact MILP, or a plugin — against the constraints the schedulers claim
to respect, by *recomputing* everything from the placed tests (never
trusting the result's own bookkeeping, which is separately
cross-checked at warning level):

========================  ===================================================
rule                      invariant
========================  ===================================================
``task-coverage``         every input task placed exactly once, nothing extra
``session-structure``     indices dense, sessions non-empty, widths sane
``core-mutex``            one core's tests never overlap in time (a BIST
                          group holds no core)
``functional-mutex``      one functional test at a time (chip pin interface)
``bist-mutex``            one BIST group at a time (shared engine/port)
``power-ceiling``         concurrent power never exceeds the chip budget
``pin-budget``            control + TAM data pins fit the chip pin budget
``accounting``            recorded session pin counts match recomputation
``makespan``              total time covers the last finish **and** the
                          computable lower bound (:mod:`repro.sched.bounds`)
========================  ===================================================

The time-indexed rules run on a global event sweep over test start
times, so they hold uniformly for barriered session schedules and for
non-session rectangle packings.  The three mutex rules are the
schedulers' one exclusion rule (:attr:`TestTask.exclusive`) re-derived
independently from the raw task fields (``core_name``,
``uses_functional_pins``, ``uses_bist_port``), so the checker does not
share the code it checks.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sched.bounds import schedule_lower_bound
from repro.sched.ioalloc import SharingPolicy, control_pins
from repro.sched.result import ScheduledTest, ScheduleResult, TestTask
from repro.soc.soc import Soc
from repro.verify.report import VerificationReport

#: Strategy names whose premise is dedicated (unshared) control pins.
_DEDICATED_PIN_STRATEGIES = frozenset({"non-session", "nonsession"})

#: Absolute tolerance for float power comparisons.
_POWER_EPS = 1e-6


def policy_for_strategy(strategy: str) -> SharingPolicy:
    """The sharing policy a strategy's schedules are checked under.

    Unknown (plugin) strategies get the default session-sharing policy —
    the *weakest* pin check, so no false positives; pass an explicit
    ``policy`` to :func:`verify_schedule` to tighten it.
    """
    if strategy in _DEDICATED_PIN_STRATEGIES:
        return SharingPolicy.none()
    return SharingPolicy()


def _all_tests(result: ScheduleResult) -> list[ScheduledTest]:
    return [test for session in result.sessions for test in session.tests]


def _overlaps(tests: Iterable[ScheduledTest]) -> list[tuple[ScheduledTest, ScheduledTest]]:
    """Pairs of tests whose half-open [start, finish) intervals overlap."""
    ordered = sorted(tests, key=lambda t: (t.start, t.finish))
    pairs = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if b.start >= a.finish:
                break
            if a.length > 0 and b.length > 0:
                pairs.append((a, b))
    return pairs


def _check_coverage(report, result, tasks: Optional[list[TestTask]]) -> None:
    report.check("task-coverage")
    placed = [t.task.name for t in _all_tests(result)]
    seen: set[str] = set()
    for name in placed:
        if name in seen:
            report.add("task-coverage", name, "task scheduled more than once")
        seen.add(name)
    if tasks is None:
        return
    expected = {t.name for t in tasks}
    for missing in sorted(expected - seen):
        report.add("task-coverage", missing, "input task missing from the schedule")
    for extra in sorted(seen - expected):
        report.add("task-coverage", extra, "scheduled task was not in the input set")


def _check_structure(report, result: ScheduleResult) -> None:
    report.check("session-structure")
    for position, session in enumerate(result.sessions):
        subject = f"session {session.index}"
        if session.index != position:
            report.add("session-structure", subject,
                       f"session index {session.index} at position {position} (not dense)")
        if not session.tests:
            report.add("session-structure", subject, "empty session", severity="warning")
        for test in session.tests:
            name = test.task.name
            if test.start < 0:
                report.add("session-structure", name, f"negative start {test.start}")
            if test.width < 1:
                report.add("session-structure", name, f"width {test.width} < 1")
            elif test.task.is_scan and test.width > test.task.max_width:
                report.add(
                    "session-structure", name,
                    f"width {test.width} exceeds the task's max useful width "
                    f"{test.task.max_width}",
                )
            elif not test.task.is_scan and test.width != 1:
                report.add("session-structure", name,
                           f"non-scan task carries width {test.width}",
                           severity="warning")


def _check_mutexes(report, result: ScheduleResult) -> None:
    tests = _all_tests(result)
    by_core: dict[str, list[ScheduledTest]] = {}
    for test in tests:
        if not test.task.uses_bist_port:  # a BIST group holds no core
            by_core.setdefault(test.task.core_name, []).append(test)
    report.check("core-mutex")
    for core, members in sorted(by_core.items()):
        for a, b in _overlaps(members):
            report.add("core-mutex", core,
                       f"{a.task.name} [{a.start}, {a.finish}) overlaps "
                       f"{b.task.name} [{b.start}, {b.finish})")
    report.check("functional-mutex")
    for a, b in _overlaps([t for t in tests if t.task.uses_functional_pins]):
        report.add("functional-mutex", a.task.name,
                   f"functional tests {a.task.name} and {b.task.name} overlap "
                   f"on the chip functional pin interface")
    report.check("bist-mutex")
    for a, b in _overlaps([t for t in tests if t.task.uses_bist_port]):
        report.add("bist-mutex", a.task.name,
                   f"BIST tasks {a.task.name} and {b.task.name} overlap "
                   f"on the shared BIST engine")


def _event_sweep(report, soc: Soc, result: ScheduleResult, policy: SharingPolicy) -> None:
    """Power and pin checks at every test-start instant (between starts
    the active set only shrinks, so starts dominate)."""
    tests = [t for t in _all_tests(result) if t.length > 0]
    report.check("power-ceiling")
    report.check("pin-budget")
    for probe in sorted({t.start for t in tests}):
        active = [t for t in tests if t.start <= probe < t.finish]
        if not active:
            continue
        if soc.power_budget > 0:
            power = sum(t.task.power for t in active)
            if power > soc.power_budget + _POWER_EPS:
                report.add(
                    "power-ceiling", f"t={probe}",
                    f"concurrent power {power:.2f} exceeds budget "
                    f"{soc.power_budget:.2f} ({', '.join(t.task.name for t in active)})",
                )
        ctrl = control_pins((t.task for t in active), policy)
        data = sum(2 * t.width for t in active if t.task.is_scan)
        if ctrl + data > soc.test_pins:
            report.add(
                "pin-budget", f"t={probe}",
                f"{ctrl} control + {data} TAM data pins exceed the "
                f"{soc.test_pins}-pin budget ({', '.join(t.task.name for t in active)})",
            )


def _check_accounting(report, soc: Soc, result: ScheduleResult, policy: SharingPolicy) -> None:
    """Cross-check the sessions' own pin bookkeeping (warning level: the
    recomputed event-sweep check above is authoritative)."""
    report.check("accounting")
    for session in result.sessions:
        subject = f"session {session.index}"
        if session.control_pins + session.data_pins > soc.test_pins:
            report.add("accounting", subject,
                       f"recorded {session.control_pins} control + "
                       f"{session.data_pins} data pins exceed the "
                       f"{soc.test_pins}-pin budget")
        if not session.tests or (session.control_pins == 0 and session.data_pins == 0):
            continue  # ILP fallback sessions carry no accounting
        recomputed = control_pins((t.task for t in session.tests), policy)
        if session.control_pins < recomputed:
            report.add("accounting", subject,
                       f"recorded {session.control_pins} control pins, "
                       f"recomputation needs {recomputed}",
                       severity="warning")
        scan = [t for t in session.tests if t.task.is_scan and t.length > 0]
        data_used = max(
            (
                sum(2 * t.width for t in scan if t.start <= probe < t.finish)
                for probe in sorted({t.start for t in scan})
            ),
            default=0,
        )
        if data_used > session.data_pins:
            report.add("accounting", subject,
                       f"scan widths use {data_used} concurrent data pins, "
                       f"session records only {session.data_pins}",
                       severity="warning")


def _check_makespan(report, soc, result, tasks: Optional[list[TestTask]]) -> None:
    report.check("makespan")
    tests = _all_tests(result)
    last_finish = max((t.finish for t in tests), default=0)
    if result.total_time < last_finish:
        report.add("makespan", result.strategy,
                   f"total time {result.total_time} ends before the last "
                   f"test finishes ({last_finish})")
    bound_tasks = tasks if tasks is not None else [t.task for t in tests]
    bound = schedule_lower_bound(soc, bound_tasks)
    if result.total_time < bound:
        report.add("makespan", result.strategy,
                   f"total time {result.total_time} beats the computable "
                   f"lower bound {bound} — the schedule is physically impossible")


def verify_schedule(
    soc: Soc,
    result: ScheduleResult,
    tasks: Optional[list[TestTask]] = None,
    policy: Optional[SharingPolicy] = None,
) -> VerificationReport:
    """Check every schedule invariant for ``result`` on ``soc``.

    Args:
        soc: the chip the schedule claims to test.
        tasks: the task set handed to the scheduler; when given, coverage
            (nothing dropped, nothing invented) is also verified and the
            lower bound uses the full input set.
        policy: sharing policy for pin accounting; default inferred from
            the result's strategy name (:func:`policy_for_strategy`).

    Returns:
        A :class:`VerificationReport`; ``report.ok`` means invariant-clean.
    """
    if policy is None:
        policy = policy_for_strategy(result.strategy)
    report = VerificationReport(soc_name=soc.name, strategy=result.strategy)
    _check_coverage(report, result, tasks)
    _check_structure(report, result)
    _check_mutexes(report, result)
    _event_sweep(report, soc, result, policy)
    _check_accounting(report, soc, result, policy)
    _check_makespan(report, soc, result, tasks)
    return report
