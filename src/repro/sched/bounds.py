"""Computable lower bounds on total test time.

Every scheduling strategy — heuristic, exact, or plugged in through the
registry — must respect these bounds; the invariant checker
(:mod:`repro.verify`) rejects any ``ScheduleResult`` whose total time
undercuts them, which is the differential harness's strongest oracle:
a "schedule" faster than the information-theoretic floor is a lying
schedule.

Five independent floors, combined with ``max``:

* **bottleneck** — the slowest single task at its best feasible width;
* **per-core serialization** — a core's tests never overlap, so each
  core's floor times sum;
* **functional-interface serialization** — the chip functional pin
  interface serves one functional test at a time;
* **BIST-engine serialization** — BIST groups share the one engine/port;
* **TAM wire capacity** — a width-``w`` scan connection occupies ``w``
  wire pairs for ``time(w)`` cycles, so makespan × available pairs must
  cover every task's cheapest wire-cycle product.

All bounds ignore control-pin pressure and inter-session
reconfiguration, so they are valid for *any* sharing policy and for
non-session (rectangle-packing) schedules alike.
"""

from __future__ import annotations

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


def forced_session_floor(tasks: list[TestTask]) -> int:
    """Minimum number of *non-trivial* (nonzero-length) sessions any
    session schedule of ``tasks`` must use.

    Tasks that are pairwise mutually exclusive — two tests of the same
    core, two functional tests (one functional interface), two BIST
    groups (one engine/port) — land in distinct sessions, and a task
    whose duration is nonzero at every width makes its session
    non-trivial.  Zero-pattern tasks are excluded: they can ride in any
    session (or the merged trailing no-op session) without adding one.
    """
    if not tasks:
        return 0
    per_core: dict[str, int] = {}
    functional = bist = 0
    for task in tasks:
        if task.min_time <= 0:
            continue
        per_core[task.core_name] = per_core.get(task.core_name, 0) + 1
        if task.uses_functional_pins:
            functional += 1
        if task.uses_bist_port:
            bist += 1
    return max(1, functional, bist, max(per_core.values(), default=1))


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
    on ``soc`` (see the module docstring for the five floors)."""
    if not tasks:
        return 0
    pins = soc.test_pins
    floors = [task_floor_time(t, pins) for t in tasks]
    bottleneck = max(floors)
    per_core: dict[str, int] = {}
    for task, floor in zip(tasks, floors):
        per_core[task.core_name] = per_core.get(task.core_name, 0) + floor
    core_serial = max(per_core.values())
    functional = sum(
        f for t, f in zip(tasks, floors) if t.uses_functional_pins
    )
    bist = sum(f for t, f in zip(tasks, floors) if t.uses_bist_port)
    bound = max(bottleneck, core_serial, functional, bist)
    pairs = pins // 2
    if pairs > 0:
        total_wire_cycles = sum(task_wire_cycles_floor(t, pins) for t in tasks)
        bound = max(bound, -(-total_wire_cycles // pairs))  # ceil div
    return bound
