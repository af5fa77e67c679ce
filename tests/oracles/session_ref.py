"""Reference session scheduler: the pre-incremental search, retained.

This oracle preserves the original full-rematerialization search that
:mod:`repro.sched.session` replaced with incremental delta evaluation:
every candidate move rebuilds *all* ``k`` sessions via
:func:`~repro.sched.session.build_session` and re-sums the makespan from
scratch.  It is deliberately simple — the semantics are easy to audit —
and deliberately slow, which makes it the perfect oracle:

* the differential tests (``tests/test_sched_incremental.py``) assert
  the incremental engine returns **bit-identical** schedules (same JSON
  document) on generated corpora and on the d695 golden fixture, and
* ``benchmarks/bench_sched_search.py`` races the two to measure (and
  gate, via ``BENCH_sched.json``) the incremental engine's speedup.

Both engines share the leaf computations (:func:`build_session`,
``_finalize_sessions``) — what differs is the *search*: how candidate
memberships are evaluated and how the running makespan is maintained.
The reference re-sums the makespan with :func:`_total_time`, which
lives here because only this search needs it.  Do not "optimize" this
module; its value is being the unoptimized baseline.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.sched.ioalloc import SharingPolicy
from repro.sched.result import ScheduleResult, Session, TestTask
from repro.sched.session import (
    InfeasibleScheduleError,
    _finalize_sessions,
    build_session,
)
from repro.sched.timecalc import SESSION_RECONFIG_CYCLES
from repro.soc.soc import Soc


def _total_time(sessions: list[Session], reconfig: int) -> int:
    """Makespan of a session sequence: lengths plus one reconfiguration
    between consecutive *non-trivial* sessions.  A zero-length session
    (every member test has zero patterns) applies no cycles, so the chip
    is never actually reconfigured for it — charging it
    ``SESSION_RECONFIG_CYCLES`` would inflate the makespan."""
    used = [s for s in sessions if s.tests and s.length > 0]
    if not used:
        return 0
    return sum(s.length for s in used) + reconfig * (len(used) - 1)


def _materialize(
    memberships: list[list[TestTask]], soc: Soc, policy: SharingPolicy
) -> Optional[list[Session]]:
    sessions = []
    for i, members in enumerate(memberships):
        session = build_session(i, members, soc, policy)
        if session is None:
            return None
        sessions.append(session)
    return sessions


def _greedy_seed(
    tasks: list[TestTask], k: int, soc: Soc, policy: SharingPolicy, reconfig: int
) -> Optional[list[list[TestTask]]]:
    memberships: list[list[TestTask]] = [[] for _ in range(k)]
    for task in sorted(tasks, key=lambda t: -t.min_time):
        best_idx, best_total = None, None
        for i in range(k):
            trial = [list(m) for m in memberships]
            trial[i].append(task)
            sessions = _materialize(trial, soc, policy)
            if sessions is None:
                continue
            total = _total_time(sessions, reconfig)
            if best_total is None or total < best_total:
                best_idx, best_total = i, total
        if best_idx is None:
            return None
        memberships[best_idx].append(task)
    return memberships


def _local_search(
    memberships: list[list[TestTask]],
    soc: Soc,
    policy: SharingPolicy,
    reconfig: int,
    max_rounds: int = 60,
) -> list[list[TestTask]]:
    best = [list(m) for m in memberships]
    sessions = _materialize(best, soc, policy)
    best_total = _total_time(sessions, reconfig)
    for _ in range(max_rounds):
        improved = False
        # single-task moves
        for src, dst in itertools.permutations(range(len(best)), 2):
            for task in list(best[src]):
                trial = [list(m) for m in best]
                trial[src].remove(task)
                trial[dst].append(task)
                sessions = _materialize(trial, soc, policy)
                if sessions is None:
                    continue
                total = _total_time(sessions, reconfig)
                if total < best_total:
                    best, best_total, improved = trial, total, True
                    break
            if improved:
                break
        if improved:
            continue
        # pairwise swaps
        for a, b in itertools.combinations(range(len(best)), 2):
            for ta in list(best[a]):
                for tb in list(best[b]):
                    trial = [list(m) for m in best]
                    trial[a].remove(ta)
                    trial[b].remove(tb)
                    trial[a].append(tb)
                    trial[b].append(ta)
                    sessions = _materialize(trial, soc, policy)
                    if sessions is None:
                        continue
                    total = _total_time(sessions, reconfig)
                    if total < best_total:
                        best, best_total, improved = trial, total, True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return best


def schedule_sessions_reference(
    soc: Soc,
    tasks: list[TestTask],
    n_sessions: int | None = None,
    policy: SharingPolicy = SharingPolicy(),
    reconfig: int = SESSION_RECONFIG_CYCLES,
    max_sessions: int = 8,
) -> ScheduleResult:
    """The original (full-rematerialization) session search.

    Same contract as :func:`repro.sched.session.schedule_sessions`; the
    incremental engine must match this function's output bit for bit.
    """
    if not tasks:
        return ScheduleResult(soc_name=soc.name, strategy="session-based",
                              pin_budget=soc.test_pins)
    if n_sessions is not None:
        candidates = [n_sessions]
    else:
        per_core: dict[str, int] = {}
        for t in tasks:
            per_core[t.core_name] = per_core.get(t.core_name, 0) + 1
        forced = max(
            1,
            sum(1 for t in tasks if t.uses_functional_pins),
            sum(1 for t in tasks if t.uses_bist_port),
            max(per_core.values()),
        )
        candidates = list(range(forced, min(len(tasks), forced + max_sessions - 1) + 1))
    best_sessions: Optional[list[Session]] = None
    best_total: Optional[int] = None
    for k in candidates:
        seed = _greedy_seed(tasks, k, soc, policy, reconfig)
        if seed is None:
            continue
        improved = _local_search(seed, soc, policy, reconfig)
        sessions = _materialize(improved, soc, policy)
        total = _total_time(sessions, reconfig)
        if best_total is None or total < best_total:
            best_sessions, best_total = sessions, total
    if best_sessions is None:
        raise InfeasibleScheduleError(
            f"no feasible session schedule for {soc.name!r} with "
            f"{soc.test_pins} pins (tried {candidates} sessions)"
        )
    used, total = _finalize_sessions(best_sessions, reconfig)
    return ScheduleResult(
        soc_name=soc.name,
        strategy="session-based",
        sessions=used,
        total_time=total,
        pin_budget=soc.test_pins,
        notes=f"{len(used)} sessions, reconfig {reconfig} cycles each",
    )
