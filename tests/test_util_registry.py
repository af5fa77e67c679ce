"""Tests for the one plugin registry (:class:`repro.util.registry.Registry`)."""

import pytest

from repro.analysis.registry import RULES, get_rule
from repro.gen.profiles import PROFILES, get_profile
from repro.repair.registry import ALLOCATORS, get_allocator
from repro.sched.registry import STRATEGIES, get_scheduler
from repro.util.registry import Registry


class TestRegistry:
    def test_register_returns_entry_and_last_wins(self):
        widgets = Registry("widget")
        assert widgets.register("b", 1) == 1
        widgets.register("a", 2)
        widgets.register("b", 3)
        assert widgets.lookup("b") == 3
        assert widgets.names() == ["a", "b"]

    def test_unknown_name_lists_sorted_names(self):
        widgets = Registry("widget")
        widgets.register("b", 1)
        widgets.register("a", 2)
        with pytest.raises(ValueError) as exc:
            widgets.lookup("c")
        assert str(exc.value) == "unknown widget 'c'; available: a, b"
        assert exc.value.__suppress_context__  # no chained KeyError


@pytest.mark.parametrize(
    "registry, lookup, kind",
    [
        (STRATEGIES, get_scheduler, "scheduling strategy"),
        (ALLOCATORS, get_allocator, "repair allocator"),
        (PROFILES, get_profile, "generator profile"),
        (RULES, get_rule, "lint rule"),
    ],
    ids=["strategies", "allocators", "profiles", "rules"],
)
def test_every_plugin_point_is_one_registry(registry, lookup, kind):
    assert isinstance(registry, Registry) and registry.kind == kind
    with pytest.raises(ValueError) as exc:
        lookup("magic")
    assert str(exc.value) == (
        f"unknown {kind} 'magic'; available: {', '.join(sorted(registry))}"
    )
