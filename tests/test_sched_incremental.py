"""Differential tests pinning the incremental session-search engine to
the retained reference implementation.

``repro.sched.session`` evaluates candidate moves by delta — only the
one or two sessions a move touches are re-evaluated, memoized session
lengths are reused corpus-wide, candidates a session-length lower bound
rules out are dismissed without a lookup, the search short-circuits
once the incumbent reaches the computable floor, and the candidate-count
window stops after a count whose search kept an empty session.  None of
that may change a single byte of output: ``schedule_sessions_reference``
(``tests/oracles/session_ref.py``) keeps the original full-
rematerialization search verbatim over the whole window, and these
tests race the two on generated corpora and on the d695 golden
workload, comparing the canonical JSON serialization bit for bit.  The
unbounded local search (``tests/oracles/local_search_ref.py``) races
the bounded one on the search's own counters too.
"""

import copy
import dataclasses
import itertools
import json
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import CompileBist, FlowContext, SteacConfig  # noqa: E402
from repro.gen import SocGenerator, apply_ops  # noqa: E402
from repro.gen.shrink import apply_op  # noqa: E402
from repro.obs import METRICS  # noqa: E402
from repro.sched import (  # noqa: E402
    InfeasibleScheduleError,
    SharingPolicy,
    TestTask,
    forced_session_floor,
    schedule_lower_bound,
    schedule_sessions,
    session_schedule_floor,
    tasks_from_soc,
)
from repro.sched import session as session_module  # noqa: E402
from repro.sched.bounds import exclusive_tallies  # noqa: E402
from repro.sched.session import MAX_SESSIONS, _SessionEvaluator  # noqa: E402
from repro.sched.timecalc import ScanTimeModel  # noqa: E402
from repro.soc import Soc, TestKind  # noqa: E402
from repro.soc.dsc import build_dsc_chip  # noqa: E402
from repro.soc.itc02 import d695_soc  # noqa: E402

from oracles.local_search_ref import local_search_reference  # noqa: E402
from oracles.session_ref import schedule_sessions_reference  # noqa: E402

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # tier-1 must be reproducible run to run
)

POLICIES = st.builds(SharingPolicy, share_resets=st.booleans(),
                     share_scan_enables=st.booleans(),
                     te_from_controller=st.booleans())


@st.composite
def short_chips(draw):
    """A chip of a few tasks lasting at most five cycles each, and a
    reconfiguration of at most two, so improving candidates often win by
    a single cycle and a bound one cycle too high dismisses one.
    Cores repeat (mutexes), clock domains cost control pins, and power
    may bind.  A hand-built task may carry a negative power, which can
    make a session's drop-one infeasible."""
    tasks = []
    for i in range(draw(st.integers(3, 10))):
        core = f"c{draw(st.integers(0, 5))}"
        common = dict(name=f"t{i}", core_name=core,
                      clock_domains=(f"clk{draw(st.integers(0, 2))}",),
                      power=draw(st.sampled_from([0.0, 1.0, 2.0, -1.0])))
        if draw(st.booleans()):
            first = draw(st.integers(0, 5))
            drops = draw(st.lists(st.integers(0, 2), max_size=4))
            times = list(itertools.accumulate(drops, lambda t, d: max(0, t - d),
                                              initial=first))
            tasks.append(TestTask(kind=TestKind.SCAN, max_width=len(times), time_fn=ScanTimeModel(
                core_name=core, patterns=1, times=tuple(times)), **common))
        else:
            tasks.append(TestTask(kind=TestKind.FUNCTIONAL, fixed_time=draw(st.integers(0, 5)),
                                  uses_functional_pins=draw(st.booleans()), **common))
    soc = Soc(name="chip", test_pins=draw(st.integers(2, 16)),
              power_budget=draw(st.sampled_from([0.0, 3.0, 5.0])))
    return soc, tasks, draw(st.integers(0, 2))


def tasks_for(soc):
    ctx = FlowContext(soc=soc, config=SteacConfig(compare_strategies=False))
    CompileBist().run(ctx)
    return ctx.tasks


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestDifferential:
    """Incremental vs reference: bit-identical on every input."""

    @settings(max_examples=15, **COMMON)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           profile=st.sampled_from(["tiny", "small"]),
           policy=POLICIES)
    def test_generated_corpora_bit_identical(self, seed, profile, policy):
        soc = SocGenerator(seed, profile).generate()
        tasks = tasks_for(soc)
        # the generator's pin floor keeps every policy feasible
        fast = schedule_sessions(soc, tasks, policy=policy)
        slow = schedule_sessions_reference(soc, tasks, policy=policy)
        assert canonical(fast) == canonical(slow), (
            f"incremental engine diverged on seed={seed} profile={profile} "
            f"policy={policy}"
        )

    @settings(max_examples=8, **COMMON)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           k=st.integers(min_value=1, max_value=6))
    def test_pinned_session_count_bit_identical(self, seed, k):
        """With ``n_sessions`` pinned the candidate window collapses to
        one k — both engines must agree on the schedule *and* on
        infeasibility, down to the exception message."""
        soc = SocGenerator(seed, "tiny").generate()
        tasks = tasks_for(soc)
        try:
            slow = schedule_sessions_reference(soc, tasks, n_sessions=k)
        except InfeasibleScheduleError as exc:
            with pytest.raises(InfeasibleScheduleError) as err:
                schedule_sessions(soc, tasks, n_sessions=k)
            assert str(err.value) == str(exc)
        else:
            fast = schedule_sessions(soc, tasks, n_sessions=k)
            assert canonical(fast) == canonical(slow)

    def test_d695_bit_identical(self):
        soc = d695_soc(test_pins=48)
        tasks = tasks_from_soc(soc)
        fast = schedule_sessions(soc, tasks)
        slow = schedule_sessions_reference(soc, tasks)
        assert canonical(fast) == canonical(slow)

    def test_empty_task_list(self):
        soc = d695_soc(test_pins=48)
        assert canonical(schedule_sessions(soc, [])) == \
            canonical(schedule_sessions_reference(soc, []))


class TestBoundedSearch:
    """The bounded local search against the unbounded one it replaced
    (``tests/oracles/local_search_ref.py``, patched in as
    ``repro.sched.session._local_search``): the same schedule or the
    same refusal, and the same ``rounds`` and ``moves`` counts, since a
    dismissed candidate is still scanned and could not have been
    accepted."""

    COUNTERS = ("sched.rounds", "sched.moves.evaluated")

    def race(self, soc, tasks, **kwargs):
        """``schedule_sessions`` under the shipped search, then under the
        unbounded one: each outcome (canonical schedule or refusal) with
        its rounds and moves."""
        runs = []
        for search in (session_module._local_search, local_search_reference):
            before = [METRICS.value(name) for name in self.COUNTERS]
            with mock.patch.object(session_module, "_local_search", search):
                try:
                    outcome = canonical(schedule_sessions(soc, tasks, **kwargs))
                except InfeasibleScheduleError as exc:
                    outcome = str(exc)
            after = [METRICS.value(name) for name in self.COUNTERS]
            runs.append((outcome, [a - b for a, b in zip(after, before)]))
        return runs

    @settings(max_examples=30, **COMMON)
    @given(chip=st.one_of(
               st.tuples(st.sampled_from(["tiny", "small"]),
                         st.integers(min_value=0, max_value=10_000)),
               st.tuples(st.just("large"), st.integers(min_value=0, max_value=7))),
           policy=POLICIES,
           k=st.one_of(st.none(), st.integers(min_value=2, max_value=6)))
    def test_same_schedules_rounds_and_moves_as_unbounded_search(self, chip, policy, k):
        profile, seed = chip
        soc = SocGenerator(seed, profile).generate()
        bounded, unbounded = self.race(soc, tasks_for(soc), n_sessions=k, policy=policy)
        assert bounded == unbounded, f"{profile} seed={seed} k={k} policy={policy}"

    @settings(max_examples=300, **COMMON)
    @given(chip=short_chips(), policy=POLICIES,
           k=st.one_of(st.none(), st.integers(min_value=2, max_value=5)))
    def test_one_cycle_wins_survive_the_bound(self, chip, policy, k):
        soc, tasks, reconfig = chip
        bounded, unbounded = self.race(soc, tasks, n_sessions=k, policy=policy,
                                       reconfig=reconfig)
        assert bounded == unbounded


class TestWindowStop:
    """The premise of the candidate-count loop's stop: once a count's
    local search kept a member-less session in every state it passed
    through, every larger count in the window schedules exactly as that
    count does, so the counts the loop skips could not have won."""

    @settings(max_examples=40, **COMMON)
    @given(chip=st.one_of(
               st.tuples(st.sampled_from(["tiny", "small", "d695-like"]),
                         st.integers(min_value=0, max_value=10_000)),
               st.tuples(st.just("large"), st.integers(min_value=0, max_value=35))),
           policy=POLICIES)
    def test_counts_after_the_stop_schedule_like_it(self, chip, policy):
        profile, seed = chip
        soc = SocGenerator(seed, profile).generate()
        tasks = tasks_for(soc)
        search, searched = session_module._local_search, []

        def recording(members, *args, **kwargs):
            result = search(members, *args, **kwargs)
            searched.append((len(members), result[2]))
            return result

        before = METRICS.value("sched.candidates.pruned")
        with mock.patch.object(session_module, "_local_search", recording):
            schedule_sessions(soc, tasks, policy=policy)
        skipped = METRICS.value("sched.candidates.pruned") - before
        # the loop stops at the first count that kept an empty session
        assert not any(kept for _, kept in searched[:-1]), searched
        stop, kept = searched[-1]
        if not kept:
            return
        forced = max(exclusive_tallies((t, 1) for t in tasks).values())
        later = range(stop + 1, min(len(tasks), forced + MAX_SESSIONS - 1) + 1)
        assert skipped == len(later), (searched, skipped)
        expected = schedule_sessions(soc, tasks, n_sessions=stop, policy=policy).to_dict()
        for k in later:
            assert schedule_sessions(soc, tasks, n_sessions=k, policy=policy).to_dict() \
                == expected, f"{profile} seed={seed} policy={policy}: k={k} vs {stop}"


class TestLengthBound:
    """The contract the search's bound rests on, on real CompileBist
    tasks under any sharing policy and pin budget: adding a task to a
    feasible session never makes it shorter, nor shorter than the task's
    floor, and dropping a member never makes it infeasible or longer."""

    CHIPS = {"dsc": build_dsc_chip, "d695": lambda: d695_soc(test_pins=48)}

    @settings(max_examples=40, **COMMON)
    @given(chip=st.one_of(
               st.tuples(st.sampled_from(["tiny", "small", "large"]),
                         st.integers(min_value=0, max_value=10_000)),
               st.tuples(st.sampled_from(sorted(CHIPS)), st.just(0))),
           policy=POLICIES, data=st.data())
    def test_adding_a_task_never_shortens_a_session(self, chip, policy, data):
        name, seed = chip
        soc = self.CHIPS[name]() if name in self.CHIPS else SocGenerator(seed, name).generate()
        tasks = tasks_for(soc)
        pins = data.draw(st.one_of(st.just(soc.test_pins),
                                   st.integers(min_value=1, max_value=soc.test_pins)))
        evaluator = _SessionEvaluator(dataclasses.replace(soc, test_pins=pins),
                                      policy, tasks)
        members: tuple[int, ...] = ()
        for task in data.draw(st.permutations(range(len(tasks)))):
            base = evaluator.length(members)
            for t in range(len(tasks)):
                if t in members:
                    continue
                grown = evaluator.length(members + (t,))
                if grown is not None:
                    assert grown >= max(base, evaluator.floors[t]), (members, t)
            for j in range(len(members)):
                shrunk = evaluator.length(members[:j] + members[j + 1:])
                assert shrunk is not None and shrunk <= base, (members, j)
            if evaluator.length(members + (task,)) is not None:
                members += (task,)


class TestGoldenAnchor:
    """Both engines must reproduce the committed d695 fixture — the
    differential pair cannot drift together unnoticed."""

    def _golden_sessions(self, name="d695_schedule.json"):
        from pathlib import Path
        fixture = Path(__file__).parent / "golden" / name
        return json.loads(fixture.read_text())

    def test_large_chip_matches_golden(self):
        """A generated ``large`` chip: many scan tasks per session, so
        width assignment takes every exit (saturated critical task,
        grants past a stuck critical task, no grant possible) on real
        data.  Regenerate with ``schedule_sessions`` over
        ``SocGenerator(4, "large")``'s CompileBist tasks."""
        golden = self._golden_sessions("large_s4_schedule.json")
        soc = SocGenerator(4, "large").generate()
        doc = schedule_sessions(soc, tasks_for(soc)).to_dict()
        assert soc.name == golden["soc"]
        assert doc["total_time"] == golden["total_time"]
        assert doc["sessions"] == golden["sessions"]

    def test_reference_matches_golden(self):
        golden = self._golden_sessions()
        soc = d695_soc(test_pins=48)
        result = schedule_sessions_reference(soc, tasks_from_soc(soc))
        doc = result.to_dict()
        assert doc["total_time"] == golden["total_time"]
        assert doc["sessions"] == golden["sessions"]

    def test_incremental_matches_golden(self):
        golden = self._golden_sessions()
        soc = d695_soc(test_pins=48)
        result = schedule_sessions(soc, tasks_from_soc(soc))
        doc = result.to_dict()
        assert doc["total_time"] == golden["total_time"]
        assert doc["sessions"] == golden["sessions"]


class TestTraversal:
    """The search's path, not just its answer: rounds, moves evaluated,
    memo hits and misses, candidates the session-length bound dismissed,
    candidate session counts skipped, and the makespan are pinned per
    chip.  A drift in the neighbourhood, its order, the bound, the
    window's stop, or the memo's accounting (seeding the memo with the
    empty membership, say) fails here even when the schedule survives.
    Rounds, moves and makespans are those of the unbounded search; the
    bound removes memo lookups only.  The counts after one whose search
    kept an empty session are skipped, and they only re-read
    memberships already priced, so the misses are those of the full
    window."""

    COUNTERS = ("sched.rounds", "sched.moves.evaluated",
                "cache.evaluator_memo.hits", "cache.evaluator_memo.misses",
                "sched.moves.bounded", "sched.candidates.pruned")

    def traversal(self, soc, tasks):
        before = [METRICS.value(name) for name in self.COUNTERS]
        result = schedule_sessions(soc, tasks)
        after = [METRICS.value(name) for name in self.COUNTERS]
        return [a - b for a, b in zip(after, before)] + [result.total_time]

    def test_d695(self):
        soc = d695_soc(test_pins=48)
        assert self.traversal(soc, tasks_from_soc(soc)) == \
            [13, 324, 284, 193, 105, 5, 31_073]

    def test_dsc(self):
        soc = build_dsc_chip()
        assert self.traversal(soc, tasks_for(soc)) == \
            [2, 140, 188, 47, 78, 1, 2_410_258]

    def test_large(self):
        soc = SocGenerator(4, "large").generate()
        assert self.traversal(soc, tasks_for(soc)) == \
            [4, 539, 279, 98, 493, 6, 169_575]


class TestBounds:
    """The pruning floor must be a true lower bound — otherwise the
    early break could cut off a better schedule."""

    @settings(max_examples=15, **COMMON)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           profile=st.sampled_from(["tiny", "small"]))
    def test_floor_never_exceeds_achieved_makespan(self, seed, profile):
        soc = SocGenerator(seed, profile).generate()
        tasks = tasks_for(soc)
        floor = session_schedule_floor(soc, tasks)
        result = schedule_sessions(soc, tasks)
        assert 0 < floor <= result.total_time

    def test_forced_floor_counts_only_nonzero_tasks(self):
        soc = d695_soc(test_pins=48)
        tasks = tasks_from_soc(soc)
        forced = forced_session_floor(tasks)
        assert forced >= 1
        # d695 is scan-only with one task per core: no mutex forces a
        # second session, so the floor reduces to the time bound
        assert session_schedule_floor(soc, tasks) >= \
            schedule_lower_bound(soc, tasks)

    def test_empty_tasks_floor_is_zero(self):
        assert session_schedule_floor(d695_soc(), []) == 0


class TestScanTimeTables:
    """Scan-time tables are never cached on a core, so a mutated core is
    priced as it is now."""

    def test_copied_chip_cut_reads_fresh_tables(self):
        """The shrinker deep-copies a chip it has already evaluated, then
        cuts it.  Dropping a chain of soft core ``c0`` (4 chains, 410
        flops) changes neither its patterns nor its useful width
        ``min(16, flops)``, so a table memo keyed by those two would
        serve the uncut table.  The cut copy must price like a chip built
        fresh with the same cut, which is what ``replay_repro`` runs."""
        soc = SocGenerator(0, "small").generate()
        tasks_from_soc(soc)
        cut = {"op": "drop_chain", "core": "c0", "name": "c0_c0"}
        copied = copy.deepcopy(soc)
        apply_op(copied, cut)
        fresh = apply_ops(SocGenerator(0, "small").generate(), [cut])
        assert copied.core("c0").scan_flops == fresh.core("c0").scan_flops == 380

        def tables(chip):
            return {t.name: t.time_fn.times for t in tasks_from_soc(chip) if t.is_scan}

        assert tables(copied) == tables(fresh)
        assert tables(copied)["c0.c0_scan"][0] == 50_497
