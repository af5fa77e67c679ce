"""Computable lower bounds on total test time.

Every scheduling strategy — heuristic, exact, or plugged in through the
registry — must respect these bounds; the invariant checker
(:mod:`repro.verify`) rejects any ``ScheduleResult`` whose total time
undercuts them, which is the differential harness's strongest oracle:
a "schedule" faster than the information-theoretic floor is a lying
schedule.

Three independent floors, combined with ``max``:

* **bottleneck** — the slowest single task at its best feasible width;
* **exclusive-resource serialization** — the tasks holding one resource
  of :attr:`~repro.sched.result.TestTask.exclusive` (a core, the chip's
  functional pin interface, the one BIST engine) never overlap, so their
  floor times sum;
* **TAM wire capacity** — a width-``w`` scan connection occupies ``w``
  wire pairs for ``time(w)`` cycles, so makespan × available pairs must
  cover every task's cheapest wire-cycle product.

All bounds ignore control-pin pressure and inter-session
reconfiguration, so they are valid for *any* sharing policy and for
non-session (rectangle-packing) schedules alike.
"""

from __future__ import annotations

from typing import Iterable

from repro.sched.result import TestTask
from repro.sched.timecalc import SESSION_RECONFIG_CYCLES
from repro.soc.soc import Soc


def task_width_cap(task: TestTask, test_pins: int) -> int:
    """The largest TAM width any schedule could grant ``task``."""
    if not task.is_scan:
        return 0
    return max(1, min(task.max_width, test_pins // 2))


def task_floor_time(task: TestTask, test_pins: int) -> int:
    """The fastest ``task`` can possibly run under ``test_pins``."""
    if task.is_scan:
        return task.time(task_width_cap(task, test_pins))
    return task.fixed_time


def task_wire_cycles_floor(task: TestTask, test_pins: int) -> int:
    """min over feasible widths of ``w * time(w)`` — the cheapest
    wire-pair x cycles budget the task can be run in (0 for non-scan).
    Only :attr:`TestTask.breakpoints` can attain it: a width between two
    runs no faster than the one before it and is wider."""
    if not task.is_scan:
        return 0
    cap = task_width_cap(task, test_pins)
    return min(w * t for w, t in task.breakpoints if w <= cap)


def exclusive_tallies(weighted: Iterable[tuple[TestTask, int]]) -> dict[str, int]:
    """Per exclusive resource (:attr:`TestTask.exclusive`), the summed
    weights of the ``(task, weight)`` pairs whose task holds it: those
    tasks run one at a time."""
    tallies: dict[str, int] = {}
    for task, weight in weighted:
        for resource in task.exclusive:
            tallies[resource] = tallies.get(resource, 0) + weight
    return tallies


def forced_session_floor(tasks: list[TestTask]) -> int:
    """Minimum number of *non-trivial* (nonzero-length) sessions any
    session schedule of ``tasks`` must use.

    Tasks holding one exclusive resource (:attr:`TestTask.exclusive`)
    land in distinct sessions, and a task whose duration is nonzero at
    every width makes its session non-trivial.  Zero-pattern tasks are
    excluded: they can ride in any session (or the merged trailing no-op
    session) without adding one.
    """
    if not tasks:
        return 0
    return max(exclusive_tallies((t, 1) for t in tasks if t.min_time > 0).values(),
               default=1)


def session_schedule_floor(
    soc: Soc, tasks: list[TestTask], reconfig: int = SESSION_RECONFIG_CYCLES
) -> int:
    """A lower bound on the total time of any *session* schedule,
    including inter-session reconfiguration.

    A session schedule runs its sessions back to back, so its makespan
    is the sum of session lengths — itself bounded below by
    :func:`schedule_lower_bound` — plus ``reconfig`` cycles between
    consecutive non-trivial sessions, of which there are at least
    :func:`forced_session_floor`.  The incremental session search uses
    this floor to prune: once the incumbent reaches it, no candidate
    session count (and no further local-search round) can strictly
    improve, so the search can stop without changing its answer.
    """
    if not tasks:
        return 0
    forced = forced_session_floor(tasks)
    return schedule_lower_bound(soc, tasks) + reconfig * max(0, forced - 1)


def schedule_lower_bound(soc: Soc, tasks: list[TestTask]) -> int:
    """A lower bound on the total test time of ANY schedule of ``tasks``
    on ``soc`` (see the module docstring for the three floors)."""
    if not tasks:
        return 0
    pins = soc.test_pins
    floors = [task_floor_time(t, pins) for t in tasks]
    bound = max(max(floors), *exclusive_tallies(zip(tasks, floors)).values())
    pairs = pins // 2
    if pairs > 0:
        total_wire_cycles = sum(task_wire_cycles_floor(t, pins) for t in tasks)
        bound = max(bound, -(-total_wire_cycles // pairs))  # ceil div
    return bound
