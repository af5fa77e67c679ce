"""Differential tests pinning the incremental session-search engine to
the retained reference implementation.

``repro.sched.session`` evaluates candidate moves by delta — only the
one or two sessions a move touches are re-evaluated, memoized session
lengths are reused corpus-wide, and the search short-circuits once the
incumbent reaches the computable floor.  None of that may change a
single byte of output: ``schedule_sessions_reference``
(``tests/oracles/session_ref.py``) keeps the original full-
rematerialization search verbatim, and these tests race the two on
generated corpora and on the d695 golden workload, comparing the
canonical JSON serialization bit for bit.
"""

import copy
import json

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
    forced_session_floor,
    schedule_lower_bound,
    schedule_sessions,
    session_schedule_floor,
    tasks_from_soc,
)
from repro.sched.timecalc import best_width_time, core_scan_time  # noqa: E402
from repro.soc.dsc import build_dsc_chip  # noqa: E402
from repro.soc.itc02 import d695_soc  # noqa: E402

from oracles.session_ref import schedule_sessions_reference  # noqa: E402

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # tier-1 must be reproducible run to run
)


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
           policy=st.builds(SharingPolicy, share_resets=st.booleans(),
                            share_scan_enables=st.booleans(),
                            te_from_controller=st.booleans()))
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
    memo hits and misses, and the makespan are pinned per chip.  A drift
    in the neighbourhood, its order, or the memo's accounting (seeding
    the memo with the empty membership, say) fails here even when the
    schedule survives."""

    COUNTERS = ("sched.rounds", "sched.moves.evaluated",
                "cache.evaluator_memo.hits", "cache.evaluator_memo.misses")

    def traversal(self, soc, tasks):
        before = [METRICS.value(name) for name in self.COUNTERS]
        result = schedule_sessions(soc, tasks)
        after = [METRICS.value(name) for name in self.COUNTERS]
        return [a - b for a, b in zip(after, before)] + [result.total_time]

    def test_d695(self):
        soc = d695_soc(test_pins=48)
        assert self.traversal(soc, tasks_from_soc(soc)) == \
            [43, 1_539, 3_241, 232, 31_073]

    def test_dsc(self):
        soc = build_dsc_chip()
        assert self.traversal(soc, tasks_for(soc)) == \
            [3, 222, 490, 73, 2_410_258]

    def test_large(self):
        soc = SocGenerator(4, "large").generate()
        assert self.traversal(soc, tasks_for(soc)) == \
            [16, 2_660, 5_623, 365, 169_575]


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


class TestBestWidthTime:
    """``best_width_time`` now reads the precomputed table; answers must
    match the direct per-width recomputation exactly."""

    def test_matches_direct_scan_over_d695(self):
        soc = d695_soc(test_pins=48)
        for core in soc.cores:
            if not core.scan_chains:
                continue
            for max_width in (1, 3, soc.test_pins):
                width, time = best_width_time(core, max_width)
                direct_best = min(
                    core_scan_time(core, w) for w in range(1, max_width + 1)
                )
                direct_width = min(
                    w for w in range(1, max_width + 1)
                    if core_scan_time(core, w) == direct_best
                )
                assert (width, time) == (direct_width, direct_best), (
                    f"{core.name} max_width={max_width}"
                )
