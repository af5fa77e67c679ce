"""Tests for the scheduler plugin registry (strategies by name)."""

import pytest

from repro.sched import (
    available_strategies,
    get_scheduler,
    register_scheduler,
    resolve_schedule,
    schedule_sessions,
    tasks_from_soc,
)
from repro.sched.registry import STRATEGIES
from repro.soc import Soc
from repro.soc.demo import build_demo_core


def small_soc(n_cores: int = 2, test_pins: int = 24) -> Soc:
    soc = Soc("reg_soc", test_pins=test_pins)
    for i in range(n_cores):
        soc.add_core(build_demo_core(name=f"demo{i}", patterns=3))
    return soc


class TestRegistry:
    def test_builtins_registered(self):
        assert {"session", "nonsession", "serial", "ilp"} <= set(available_strategies())

    def test_unknown_name_is_value_error_listing_available(self):
        with pytest.raises(ValueError) as exc:
            get_scheduler("magic")
        assert "session" in str(exc.value)

    def test_resolve_matches_direct_call(self):
        soc = small_soc()
        tasks = tasks_from_soc(soc)
        via_registry = resolve_schedule("session", soc, tasks)
        direct = schedule_sessions(soc, tasks)
        assert via_registry.total_time == direct.total_time
        assert via_registry.session_count == direct.session_count

    def test_register_custom_strategy(self):
        @register_scheduler("always_serial")
        def _always_serial(soc, tasks, *, n_sessions=None, policy=None):
            return resolve_schedule("serial", soc, tasks, policy=policy)

        try:
            soc = small_soc()
            tasks = tasks_from_soc(soc)
            result = resolve_schedule("always_serial", soc, tasks)
            assert result.total_time == resolve_schedule("serial", soc, tasks).total_time
        finally:
            STRATEGIES.pop("always_serial", None)

    def test_nonsession_keeps_dedicated_pin_premise(self):
        """The registry must not leak the session-sharing policy into the
        non-session baseline (the Section-3 comparison depends on it)."""
        from repro.sched.nonsession import schedule_nonsession

        soc = small_soc(3)
        tasks = tasks_from_soc(soc)
        assert (
            resolve_schedule("nonsession", soc, tasks).total_time
            == schedule_nonsession(soc, tasks).total_time
        )


class TestIlpByName:
    def test_ilp_resolves_and_is_no_worse_than_heuristic(self):
        soc = small_soc(2)
        tasks = tasks_from_soc(soc)
        ilp = resolve_schedule("ilp", soc, tasks)
        heuristic = resolve_schedule("session", soc, tasks)
        assert ilp.strategy == "ilp"
        assert ilp.sessions
        assert ilp.total_time <= heuristic.total_time

    def test_ilp_honors_n_sessions(self):
        soc = small_soc(3)
        tasks = tasks_from_soc(soc)
        result = resolve_schedule("ilp", soc, tasks, n_sessions=2)
        assert result.session_count <= 2
