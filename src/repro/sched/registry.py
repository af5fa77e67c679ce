"""Scheduler plugin registry: strategies resolve by name.

The Core Test Scheduler ships four strategies — ``session`` (the paper's
contribution), ``nonsession`` and ``serial`` (the Section-3 baselines),
and ``ilp`` (the exact MILP used to validate the heuristic).  Each is
registered in :data:`STRATEGIES`, a :class:`repro.util.registry.Registry`,
under its name so callers (``SteacConfig.strategy``, the CLI
``--strategy`` flag, ``compare_strategies``) pick schedulers by name
instead of hardcoding a dispatch chain, and so downstream code can plug
in new strategies without touching the platform:

    >>> from repro.sched.registry import register_scheduler
    >>> @register_scheduler("greedy2")
    ... def schedule_greedy2(soc, tasks, *, n_sessions=None, policy=None):
    ...     ...

Every scheduler shares one calling convention::

    fn(soc, tasks, *, n_sessions=None, policy=None) -> ScheduleResult

``n_sessions``/``policy`` are honoured where the strategy supports them
and ignored otherwise (the MILP's shared-pin model is fixed to the
default session-sharing policy, for instance).
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Protocol

from repro.sched.ioalloc import SharingPolicy
from repro.sched.result import ScheduleResult, TestTask
from repro.soc.soc import Soc
from repro.util.registry import Registry


class SchedulerFn(Protocol):
    """The uniform scheduler entry point."""

    def __call__(
        self,
        soc: Soc,
        tasks: list[TestTask],
        *,
        n_sessions: Optional[int] = None,
        policy: Optional[SharingPolicy] = None,
    ) -> ScheduleResult: ...


STRATEGIES: Registry[SchedulerFn] = Registry("scheduling strategy")

#: Look up a strategy by name (``ValueError`` listing the available ones
#: for an unknown name).
get_scheduler = STRATEGIES.lookup

#: Registered strategy names, sorted.
available_strategies = STRATEGIES.names


def register_scheduler(name: str) -> Callable[[SchedulerFn], SchedulerFn]:
    """Decorator: register ``fn`` as the scheduling strategy ``name``
    (the last registration wins, so tests and plugins can shadow a
    built-in)."""
    return functools.partial(STRATEGIES.register, name)


def resolve_schedule(
    name: str,
    soc: Soc,
    tasks: list[TestTask],
    *,
    n_sessions: Optional[int] = None,
    policy: Optional[SharingPolicy] = None,
) -> ScheduleResult:
    """Run the named strategy — the one-call front end to the registry."""
    return get_scheduler(name)(soc, tasks, n_sessions=n_sessions, policy=policy)


# -- built-in strategies ---------------------------------------------------


@register_scheduler("session")
def _session(
    soc: Soc,
    tasks: list[TestTask],
    *,
    n_sessions: Optional[int] = None,
    policy: Optional[SharingPolicy] = None,
) -> ScheduleResult:
    from repro.sched.session import schedule_sessions

    return schedule_sessions(
        soc, tasks, n_sessions=n_sessions, policy=policy or SharingPolicy()
    )


@register_scheduler("nonsession")
def _nonsession(
    soc: Soc,
    tasks: list[TestTask],
    *,
    n_sessions: Optional[int] = None,
    policy: Optional[SharingPolicy] = None,
) -> ScheduleResult:
    from repro.sched.nonsession import schedule_nonsession

    # The session-sharing ``policy`` is deliberately NOT forwarded: the
    # non-session premise is dedicated control pins for the whole test
    # (``SharingPolicy.none()``, the scheduler's own default).
    return schedule_nonsession(soc, tasks)


@register_scheduler("serial")
def _serial(
    soc: Soc,
    tasks: list[TestTask],
    *,
    n_sessions: Optional[int] = None,
    policy: Optional[SharingPolicy] = None,
) -> ScheduleResult:
    from repro.sched.session import schedule_serial

    return schedule_serial(soc, tasks, policy=policy or SharingPolicy())


@register_scheduler("ilp")
def _ilp(
    soc: Soc,
    tasks: list[TestTask],
    *,
    n_sessions: Optional[int] = None,
    policy: Optional[SharingPolicy] = None,
) -> ScheduleResult:
    from repro.sched.ilp import schedule_ilp
    from repro.sched.session import MAX_SESSIONS

    cap = n_sessions or min(len(tasks), MAX_SESSIONS) or 1
    return schedule_ilp(soc, tasks, n_sessions=cap)
