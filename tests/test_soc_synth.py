"""Scheduler stress tests on synthetic SOCs: the schedulers must stay
sound across randomly generated chips of varying shape.  The chips come
from the profile-driven generator (``SocGenerator(seed, "small")``), the
one synthetic-chip source."""

from hypothesis import given, settings, strategies as st

from repro.bist import MARCH_C_MINUS, plan_bist
from repro.gen import SocGenerator
from repro.sched import (
    InfeasibleScheduleError,
    schedule_nonsession,
    schedule_serial,
    schedule_sessions,
    tasks_from_soc,
)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_session_scheduler_sound_on_synthetic_socs(seed):
    """For any synthetic SOC: every test scheduled exactly once, budgets
    respected, serial baseline never beaten by more than its own length."""
    soc = SocGenerator(seed, "small").generate()
    plan = plan_bist(soc.memories, MARCH_C_MINUS, power_budget=soc.power_budget)
    tasks = tasks_from_soc(soc) + plan.to_tasks()
    result = schedule_sessions(soc, tasks)
    names = sorted(t.task.name for s in result.sessions for t in s.tests)
    assert names == sorted(t.name for t in tasks)
    for session in result.sessions:
        if soc.power_budget > 0:  # a zero budget means unconstrained
            assert session.power <= soc.power_budget + 1e-9
        data_used = sum(2 * t.width for t in session.tests if t.task.is_scan)
        assert session.control_pins + data_used <= soc.test_pins
    serial = schedule_serial(soc, tasks)
    assert result.total_time <= serial.total_time


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_nonsession_sound_or_infeasible(seed):
    """Non-session either schedules everything without overlap violations
    or raises cleanly."""
    soc = SocGenerator(seed, "small").generate()
    tasks = tasks_from_soc(soc)
    try:
        result = schedule_nonsession(soc, tasks)
    except InfeasibleScheduleError:
        return
    tests = result.sessions[0].tests
    assert len(tests) == len(tasks)
    # per-core mutex: intervals of the same core never overlap
    by_core: dict[str, list] = {}
    for t in tests:
        by_core.setdefault(t.task.core_name, []).append((t.start, t.finish))
    for intervals in by_core.values():
        intervals.sort()
        for (_s1, f1), (s2, _f2) in zip(intervals, intervals[1:]):
            assert f1 <= s2
    assert result.total_time == max(t.finish for t in tests)
