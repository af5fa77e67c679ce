"""Differential tests pinning the session width allocator to its oracle.

``repro.sched.session.assign_widths`` hands out TAM wire pairs through a
heap over per-task width breakpoints.  ``tests/oracles/
assign_widths_ref.py`` keeps the original loop, which re-sorts every
scan task on each grant and probes wider widths one at a time.  The two
must agree on every input: the same ``None``, the same widths and the
same key order.  The session-search differential suite cannot see an
allocator change, because the reference search reaches the same grant
loop through ``build_session``.

The search's ``_SessionEvaluator`` does not run that grant loop: it
prices a membership as the smallest breakpoint level whose narrowest
widths fit the spare pairs, over per-task records and a level table
built once per search.  The reference search prices members through
``build_session`` (``assign_widths``'s greedy, then ``TestTask.time``
per member), so the session differential suite does see an error in how
the evaluator computes a length.  ``TestSessionLength`` races the
evaluator against ``build_session(...).length`` directly, one
membership at a time and under every sharing policy.  That oracle runs
the greedy heap loop itself, so no copy of the old evaluator is kept
under ``tests/oracles/``.

``TestWireCyclesFloor`` holds ``task_wire_cycles_floor``, which prices
only breakpoints, equal to the per-width loop it replaced.
"""

import dataclasses
import functools
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CompileBist, FlowContext, SteacConfig
from repro.gen import SocGenerator
from repro.sched import (
    SharingPolicy,
    TestTask,
    assign_widths,
    build_session,
    task_width_cap,
    task_wire_cycles_floor,
)
from repro.sched.session import _SessionEvaluator
from repro.sched.timecalc import ScanTimeModel
from repro.soc import Soc, TestKind
from repro.soc.dsc import build_dsc_chip

from oracles.assign_widths_ref import assign_widths_reference

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # tier-1 must be reproducible run to run
)


def table_task(name, times, max_width):
    return TestTask(
        name=name, core_name=name, kind=TestKind.SCAN,
        time_fn=ScanTimeModel(core_name=name, patterns=1, times=tuple(times)),
        max_width=max_width,
    )


def fixed_task(name, time):
    return TestTask(name=name, core_name=name, kind=TestKind.FUNCTIONAL, fixed_time=time)


def assert_same(tasks, data_pins):
    expected = assign_widths_reference(tasks, data_pins)
    got = assign_widths(tasks, data_pins)
    if expected is None:
        assert got is None
    else:
        assert got == expected
        assert list(got) == list(expected), "key order drifted"


@st.composite
def sessions(draw):
    """One session's members and a data-pin budget.

    Scan tables are non-increasing with plateaus, their first entries
    and drops come from small pools so tasks tie on time, and
    ``max_width`` may fall short of the table or run past it.  Fixed-time
    tasks are interleaved, and one task may use an ad-hoc callable.
    """
    tasks = []
    for i in range(draw(st.integers(1, 8))):
        first = draw(st.sampled_from([0, 60, 120, 240]))
        drops = draw(st.lists(st.sampled_from([0, 0, 20, 60]), max_size=7))
        times = list(itertools.accumulate(drops, lambda t, d: max(0, t - d), initial=first))
        tasks.append(table_task(f"s{i}", times, draw(st.integers(0, len(times) + 3))))
    if draw(st.booleans()):
        base, cap = draw(st.sampled_from([120, 240])), draw(st.integers(1, 6))
        tasks.append(TestTask(
            name="fn", core_name="fn", kind=TestKind.SCAN,
            time_fn=lambda w: base // min(w, cap), max_width=draw(st.integers(1, cap + 3)),
        ))
    for j in range(draw(st.integers(0, 3))):
        tasks.append(fixed_task(f"f{j}", draw(st.sampled_from([0, 60, 240]))))
    tasks = draw(st.permutations(tasks))
    saturated = 2 * sum(max(1, t.max_width) for t in tasks if t.is_scan)
    return tasks, draw(st.integers(0, saturated + 6))


class TestAgainstReference:
    @settings(max_examples=300, **COMMON)
    @given(session=sessions())
    def test_generated_sessions_match(self, session):
        assert_same(*session)

    def test_zero_max_width_returns_normally(self):
        tasks = [table_task("a", [90, 60], 0), table_task("b", [80, 40], 2)]
        for pins in range(0, 12):
            assert_same(tasks, pins)
        # the saturated critical task holds everyone at one pair
        assert assign_widths(tasks, 10) == {"a": 1, "b": 1}

    def test_spare_pairs_skip_a_stuck_critical_task(self):
        # "a" needs three more pairs to get shorter; the one spare pair
        # goes to "b", the next task it can shorten
        tasks = [table_task("a", [100, 100, 100, 50], 4), table_task("b", [80, 40], 2)]
        assert assign_widths(tasks, 6) == {"a": 1, "b": 2}
        assert_same(tasks, 6)

    def test_equal_times_break_ties_in_membership_order(self):
        a, b = table_task("a", [100, 50], 2), table_task("b", [100, 50], 2)
        assert assign_widths([a, b], 6) == {"a": 2, "b": 1}
        assert assign_widths([b, a], 6) == {"b": 2, "a": 1}


class TestBreakpoints:
    def test_plateaus_collapse_to_the_widths_that_shorten(self):
        task = table_task("a", [100, 100, 60, 60, 60, 30], 6)
        assert task.breakpoints == ((1, 100), (3, 60), (6, 30))

    def test_bounded_by_max_width(self):
        assert table_task("a", [100, 100, 60, 30], 3).breakpoints == ((1, 100), (3, 60))
        assert table_task("a", [100, 60], 6).breakpoints == ((1, 100), (2, 60))
        assert table_task("a", [100, 60], 0).breakpoints == ((1, 100),)

    def test_non_monotone_callable_keeps_strict_drops_only(self):
        times = {1: 50, 2: 70, 3: 40, 4: 40, 5: 45, 6: 10}
        task = TestTask(name="x", core_name="x", kind=TestKind.SCAN,
                        time_fn=times.__getitem__, max_width=6)
        assert task.breakpoints == ((1, 50), (3, 40), (6, 10))

    def test_built_once_per_task(self):
        task = table_task("a", [100, 60], 2)
        assert task.breakpoints is task.breakpoints


class TestWireCyclesFloor:
    """``task_wire_cycles_floor`` prices breakpoints only; the per-width
    loop it replaced must give the same number on every task."""

    @settings(max_examples=300, **COMMON)
    @given(session=sessions(), test_pins=st.integers(0, 40))
    def test_breakpoints_match_every_width(self, session, test_pins):
        for task in session[0]:
            if task.is_scan:
                cap = task_width_cap(task, test_pins)
                expected = min(w * task.time(w) for w in range(1, cap + 1))
            else:
                expected = 0
            assert task_wire_cycles_floor(task, test_pins) == expected


CHIPS = {
    "dsc": build_dsc_chip,
    "large": lambda: SocGenerator(4, "large").generate(),
    "small": lambda: SocGenerator(5, "small").generate(),
}


@functools.cache
def chip_tasks(name):
    soc = CHIPS[name]()
    ctx = FlowContext(soc=soc, config=SteacConfig(compare_strategies=False))
    CompileBist().run(ctx)
    return soc, ctx.tasks


POLICIES = st.builds(SharingPolicy, share_resets=st.booleans(),
                     share_scan_enables=st.booleans(),
                     te_from_controller=st.booleans())


def assert_length_matches(soc, tasks, key, policy=SharingPolicy()):
    session = build_session(0, [tasks[i] for i in key], soc, policy)
    expected = None if session is None else session.length
    evaluator = _SessionEvaluator(soc, policy, tasks)
    assert evaluator.length(key) == expected
    assert evaluator.length(key) == expected  # answered by the memo


class TestSessionLength:
    """``_SessionEvaluator.length`` equals ``build_session(...).length``,
    or ``None`` where ``build_session`` returns ``None``."""

    @settings(max_examples=300, **COMMON)
    @given(session=sessions())
    def test_generated_sessions_match_build_session(self, session):
        tasks, data_pins = session
        soc = Soc(name="chip", test_pins=max(1, data_pins))
        assert_length_matches(soc, tasks, tuple(range(len(tasks))))

    @settings(max_examples=600, **COMMON)
    @given(data=st.data())
    def test_index_tuples_match_build_session(self, data):
        """Ordered index tuples, repeats allowed, over real CompileBist
        tasks, the chip's pin budget or a smaller one, and any sharing
        policy.  They reach every rejection (same core, two functional
        tests, power, control and data pins) and sessions with no scan
        task (DSC's ``*_func`` and ``MBIST.g*``); the policy decides
        how the evaluator's reset, scan-enable and test-enable totals
        turn into control pins."""
        soc, tasks = chip_tasks(data.draw(st.sampled_from(sorted(CHIPS))))
        policy = data.draw(POLICIES)
        pins = data.draw(st.one_of(st.just(soc.test_pins), st.integers(1, soc.test_pins)))
        key = data.draw(st.lists(st.integers(0, len(tasks) - 1), max_size=8,
                                 unique=data.draw(st.booleans())))
        assert_length_matches(dataclasses.replace(soc, test_pins=pins), tasks,
                              tuple(key), policy)

    def test_dsc_pairs_under_every_policy_and_pin_budget(self):
        """Every DSC membership of one or two tasks, in both orders, at
        every pin budget up to the chip's and under all eight sharing
        policies.  USB and TV carry resets, scan enables and test
        enables, so each of the policy's three rules decides some of
        these answers."""
        soc, tasks = chip_tasks("dsc")
        keys = [key for r in (1, 2)
                for key in itertools.permutations(range(len(tasks)), r)]
        for flags in itertools.product((False, True), repeat=3):
            policy = SharingPolicy(*flags)
            for pins in range(1, soc.test_pins + 1):
                chip = dataclasses.replace(soc, test_pins=pins)
                evaluator = _SessionEvaluator(chip, policy, tasks)
                for key in keys:
                    session = build_session(0, [tasks[i] for i in key], chip, policy)
                    expected = None if session is None else session.length
                    assert evaluator.length(key) == expected, (key, pins, policy)
