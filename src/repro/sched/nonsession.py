"""Non-session-based scheduling: preemption-free rectangle packing.

The comparison baseline of Section 3.  Tests start and finish
independently (no session barriers), which looks more parallel — but
because there is no reconfiguration point at which chip pins can be
re-multiplexed, **every** test's control IOs must be held on dedicated
pins for the whole test, leaving fewer pins for TAM data.  This is
exactly the paper's observation: "parallel testing may not be better
than serial testing ... more test control IOs are needed for parallel
testing, so fewer IO pins can be used as the test data IOs".

Algorithm: longest-first list scheduling over a pool of TAM wire pairs,
with a mutex per exclusive resource (:attr:`TestTask.exclusive`) and a
power timeline.
For each task every (candidate start, width) pair is evaluated and the
earliest-finish placement wins.
"""

from __future__ import annotations

from repro.sched.ioalloc import SharingPolicy, control_pins
from repro.sched.power import PowerTimeline
from repro.sched.result import ScheduledTest, ScheduleResult, Session, TestTask
from repro.sched.session import InfeasibleScheduleError
from repro.soc.soc import Soc


def schedule_nonsession(
    soc: Soc,
    tasks: list[TestTask],
    policy: SharingPolicy | None = None,
) -> ScheduleResult:
    """Non-session schedule: all control pins reserved for the full test.

    Without session boundaries there is no point at which the controller
    can re-multiplex pins or re-align reset/SE waveforms, so the default
    policy is :meth:`SharingPolicy.none` — every control signal of every
    test holds a dedicated pin for the whole test (the paper's premise).
    """
    if policy is None:
        policy = SharingPolicy.none()
    if not tasks:
        return ScheduleResult(soc_name=soc.name, strategy="non-session",
                              pin_budget=soc.test_pins)
    ctrl = control_pins(tasks, policy)
    data = soc.test_pins - ctrl
    pairs = data // 2
    if any(t.is_scan for t in tasks) and pairs < 1:
        raise InfeasibleScheduleError(
            f"non-session schedule infeasible: control IOs need {ctrl} of "
            f"{soc.test_pins} pins, leaving no TAM wire pair"
        )

    placed: list[ScheduledTest] = []
    wire_free = [0] * max(pairs, 1)  # per wire-pair availability time
    busy: dict[str, list[tuple[int, int]]] = {}  # per exclusive resource
    power = PowerTimeline(budget=soc.power_budget)

    def held_elsewhere(task: TestTask, start: int, finish: int) -> bool:
        for resource in task.exclusive:
            for s, f in busy.get(resource, []):
                if start < f and s < finish:
                    return True
        return False

    def candidate_starts() -> list[int]:
        points = {0}
        points.update(wire_free)
        for intervals in busy.values():
            points.update(f for _, f in intervals)
        for _s, f, _ in power.intervals:
            points.add(f)
        return sorted(points)

    for task in sorted(tasks, key=lambda t: -t.min_time):
        best = None  # (finish, start, width, wires)
        for start in candidate_starts():
            if best is not None and start >= best[0]:
                # durations are non-negative, so a start at or past the
                # best finish so far cannot finish strictly earlier
                break
            width_options = (
                range(1, min(task.max_width, pairs) + 1) if task.is_scan else [0]
            )
            for width in width_options:
                duration = task.time(width) if task.is_scan else task.fixed_time
                finish = start + duration
                if task.is_scan:
                    free = [i for i in range(pairs) if wire_free[i] <= start]
                    if len(free) < width:
                        continue
                    wires = free[:width]
                else:
                    wires = []
                if held_elsewhere(task, start, finish):
                    continue
                if not power.fits(start, finish, task.power):
                    continue
                # earliest finish wins; ties go to the earlier start (and,
                # within one start, to the narrower width found first)
                if best is None or (finish, start) < (best[0], best[1]):
                    best = (finish, start, width, wires)
        if best is None:
            raise InfeasibleScheduleError(f"could not place task {task.name!r}")
        finish, start, width, wires = best
        placed.append(ScheduledTest(task=task, width=max(width, 1), start=start))
        for i in wires:
            wire_free[i] = finish
        for resource in task.exclusive:
            busy.setdefault(resource, []).append((start, finish))
        power.add(start, finish, task.power)

    makespan = max(t.finish for t in placed)
    session = Session(index=0, tests=placed, control_pins=ctrl, data_pins=data)
    return ScheduleResult(
        soc_name=soc.name,
        strategy="non-session",
        sessions=[session],
        total_time=makespan,
        pin_budget=soc.test_pins,
        notes=f"{ctrl} control pins reserved throughout; {pairs} TAM wire pairs",
    )
