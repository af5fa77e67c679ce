"""Exact session scheduling as a mixed-integer linear program.

Gives a provable optimum for small instances (DSC core tests, ITC'02
d695) to validate the heuristic scheduler, using
:func:`scipy.optimize.milp` (HiGHS).

Formulation — for tasks *t*, sessions *s*, candidate widths *w*:

* ``x[t,s,w] ∈ {0,1}`` — task *t* runs in session *s* at width *w*;
* ``y[d,s] ∈ {0,1}`` — clock domain *d* has a pin in session *s*;
* ``r[s], e[s], b[s] ∈ {0,1}`` — session *s* needs the shared reset pin,
  shared SE pin, or the BIST port;
* ``z[s] ∈ {0,1}`` — session *s* is used;
* ``L[s] ≥ 0`` — session length.

Constraints: each task placed once; ``L[s] ≥ time(t,w)·x``; pin budget
``Σ 2w·x + Σ_d y + r + e + 4b ≤ P`` per session; power; a mutex per
exclusive resource ``q`` (:attr:`~repro.sched.result.TestTask.exclusive`:
a core, the functional pin interface, the BIST engine),
``Σ_{t holds q} Σ_w x[t,s,w] ≤ 1`` per session; symmetry breaking on
``z``.  Objective: ``Σ L[s] + reconfig·(Σ z[s] − 1)``.

The shared-pin model matches :class:`repro.sched.ioalloc.SharingPolicy`'s
default (session-based sharing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.sched.ioalloc import BIST_PORT_PINS
from repro.sched.result import ScheduledTest, ScheduleResult, Session, TestTask
from repro.sched.session import InfeasibleScheduleError, _finalize_sessions, build_session
from repro.sched.timecalc import SESSION_RECONFIG_CYCLES
from repro.soc.soc import Soc


def candidate_widths(task: TestTask, max_pairs: int) -> list[int]:
    """Widths worth offering the ILP.

    Scan time is non-increasing in width, so only the *smallest* width
    achieving each distinct time value needs to be offered — the task's
    :attr:`~repro.sched.result.TestTask.breakpoints` up to the pair
    budget.  The pruned menu preserves optimality while shrinking the
    model.
    """
    if not task.is_scan:
        return [0]
    cap = min(task.max_width, max_pairs)
    return [w for w, _ in task.breakpoints if w <= cap]


@dataclass
class _Var:
    """Bookkeeping for one column of the MILP."""

    kind: str
    key: tuple


def schedule_ilp(
    soc: Soc,
    tasks: list[TestTask],
    n_sessions: int,
    reconfig: int = SESSION_RECONFIG_CYCLES,
    time_limit: float = 60.0,
) -> ScheduleResult:
    """Optimal session-based schedule with at most ``n_sessions`` sessions.

    Zero-duration tasks (zero-pattern tests) are excluded from the MILP
    and re-attached as one trailing zero-length no-op session by
    :func:`~repro.sched.session._finalize_sessions`, as the session and
    serial strategies do, because a zero-length test conflicts with
    nothing and costs nothing, so it cannot affect the optimum
    (modelling it would wrongly charge ``reconfig`` per used session and
    break the ``ilp <= heuristic`` invariant).
    """
    if not tasks:
        return ScheduleResult(soc_name=soc.name, strategy="ilp", pin_budget=soc.test_pins)
    noop = Session(
        index=0, tests=[ScheduledTest(task=t, width=1) for t in tasks if t.serial_time == 0]
    )
    tasks = [t for t in tasks if t.serial_time > 0]
    if not tasks:
        finished, total = _finalize_sessions([noop], reconfig)
        return ScheduleResult(
            soc_name=soc.name, strategy="ilp", sessions=finished, total_time=total,
            pin_budget=soc.test_pins, notes="all tasks zero-length",
        )
    pins = soc.test_pins
    max_pairs = pins // 2
    domains = sorted({d for t in tasks for d in t.clock_domains})
    sessions = range(n_sessions)

    variables: list[_Var] = []
    index: dict[tuple, int] = {}

    def add_var(kind: str, key: tuple) -> int:
        idx = len(variables)
        variables.append(_Var(kind, key))
        index[(kind,) + key] = idx
        return idx

    widths_of = {t.name: candidate_widths(t, max_pairs) for t in tasks}
    for t in tasks:
        for s in sessions:
            for w in widths_of[t.name]:
                add_var("x", (t.name, s, w))
    for d in domains:
        for s in sessions:
            add_var("y", (d, s))
    for s in sessions:
        add_var("r", (s,))
        add_var("e", (s,))
        add_var("b", (s,))
        add_var("z", (s,))
    for s in sessions:
        add_var("L", (s,))

    n = len(variables)
    task_by_name = {t.name: t for t in tasks}

    def x_idx(tname: str, s: int, w: int) -> int:
        return index[("x", tname, s, w)]

    constraints: list[LinearConstraint] = []

    def add_constraint(coeffs: dict[int, float], lb: float, ub: float) -> None:
        row = np.zeros(n)
        for i, c in coeffs.items():
            row[i] = c
        constraints.append(LinearConstraint(row, lb, ub))

    # 1. each task exactly once
    for t in tasks:
        coeffs = {x_idx(t.name, s, w): 1.0 for s in sessions for w in widths_of[t.name]}
        add_constraint(coeffs, 1.0, 1.0)

    big_m = max(t.serial_time for t in tasks)
    for t in tasks:
        for s in sessions:
            for w in widths_of[t.name]:
                # 2. L[s] >= time(t,w) * x
                add_constraint(
                    {index[("L", s)]: 1.0, x_idx(t.name, s, w): -float(t.time(max(w, 1)))},
                    0.0,
                    np.inf,
                )
                # 3. indicator links
                if t.clock_domains:
                    for d in t.clock_domains:
                        add_constraint(
                            {index[("y", d, s)]: 1.0, x_idx(t.name, s, w): -1.0}, 0.0, np.inf
                        )
                if t.control.resets:
                    add_constraint(
                        {index[("r", s)]: 1.0, x_idx(t.name, s, w): -1.0}, 0.0, np.inf
                    )
                if t.control.scan_enables:
                    add_constraint(
                        {index[("e", s)]: 1.0, x_idx(t.name, s, w): -1.0}, 0.0, np.inf
                    )
                if t.uses_bist_port:
                    add_constraint(
                        {index[("b", s)]: 1.0, x_idx(t.name, s, w): -1.0}, 0.0, np.inf
                    )
                add_constraint(
                    {index[("z", s)]: 1.0, x_idx(t.name, s, w): -1.0}, 0.0, np.inf
                )

    # 4. pin budget per session
    for s in sessions:
        coeffs: dict[int, float] = {}
        for t in tasks:
            for w in widths_of[t.name]:
                if w > 0:
                    coeffs[x_idx(t.name, s, w)] = 2.0 * w
        for d in domains:
            coeffs[index[("y", d, s)]] = 1.0
        coeffs[index[("r", s)]] = 1.0
        coeffs[index[("e", s)]] = 1.0
        coeffs[index[("b", s)]] = float(BIST_PORT_PINS)
        add_constraint(coeffs, -np.inf, float(pins))

    # 5. power budget per session
    if soc.power_budget > 0:
        for s in sessions:
            coeffs = {}
            for t in tasks:
                for w in widths_of[t.name]:
                    coeffs[x_idx(t.name, s, w)] = t.power
            add_constraint(coeffs, -np.inf, soc.power_budget)

    # 6. one mutex per exclusive resource
    holders: dict[str, list[TestTask]] = {}
    for t in tasks:
        for resource in t.exclusive:
            holders.setdefault(resource, []).append(t)
    for s in sessions:
        # a fixed row order: HiGHS's pick among equal optima follows it
        for _, members in sorted(holders.items()):
            if len(members) > 1:
                coeffs = {
                    x_idx(t.name, s, w): 1.0 for t in members for w in widths_of[t.name]
                }
                add_constraint(coeffs, -np.inf, 1.0)

    # 7. symmetry breaking: z[s] >= z[s+1]
    for s in range(n_sessions - 1):
        add_constraint({index[("z", s)]: 1.0, index[("z", s + 1)]: -1.0}, 0.0, np.inf)

    # objective: sum L + reconfig * (sum z - 1)
    objective = np.zeros(n)
    for s in sessions:
        objective[index[("L", s)]] = 1.0
        objective[index[("z", s)]] = float(reconfig)

    integrality = np.ones(n)
    lower = np.zeros(n)
    upper = np.ones(n)
    for s in sessions:
        i = index[("L", s)]
        integrality[i] = 0
        upper[i] = float(big_m)

    result = milp(
        c=objective,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options={"time_limit": time_limit},
    )
    if result.x is None:
        raise InfeasibleScheduleError(f"ILP infeasible for {soc.name!r}: {result.message}")

    # decode the solution into sessions
    memberships: dict[int, list[tuple[TestTask, int]]] = {s: [] for s in sessions}
    for var, value in zip(variables, result.x):
        if var.kind == "x" and value > 0.5:
            tname, s, w = var.key
            memberships[s].append((task_by_name[tname], w))
    decoded: list[Session] = []
    for s in sessions:
        if not memberships[s]:
            continue
        members = [t for t, _ in memberships[s]]
        session = build_session(len(decoded), members, soc)
        if session is None:
            # honor the ILP's width choices directly (build_session may
            # reject only due to heuristic width assignment differences)
            session = Session(
                index=len(decoded),
                tests=[ScheduledTest(task=t, width=max(w, 1)) for t, w in memberships[s]],
            )
        decoded.append(session)
    finished, total = _finalize_sessions(decoded + [noop], reconfig)
    return ScheduleResult(
        soc_name=soc.name,
        strategy="ilp",
        sessions=finished,
        total_time=total,
        pin_budget=pins,
        notes=f"MILP optimum (HiGHS), objective {result.fun - reconfig:.0f}",
    )
