"""Tests for redundancy allocation: must-repair, the exact and greedy
solvers, and the allocator registry."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.repair import (
    FailBitmap,
    available_allocators,
    get_allocator,
    must_repair,
    register_allocator,
    resolve_allocation,
    solve_exact,
    solve_greedy,
)
from repro.repair.registry import ALLOCATORS
from repro.soc import RedundancySpec


def bitmap(*fails, rows=8, cols=8) -> FailBitmap:
    return FailBitmap(rows, cols, frozenset(fails))


def covered(bm: FailBitmap, solution) -> bool:
    return bm.without_lines(solution.rows, solution.cols).is_clear


class TestMustRepair:
    def test_clean_bitmap_needs_nothing(self):
        result = must_repair(bitmap(), RedundancySpec(2, 2))
        assert result.feasible and not result.rows and not result.cols
        assert result.residual.is_clear

    def test_overloaded_row_forced_onto_spare_row(self):
        bm = bitmap((2, 0), (2, 1), (2, 2), (5, 5))
        result = must_repair(bm, RedundancySpec(2, 2))
        assert result.rows == {2}  # 3 fails > 2 spare columns
        assert result.residual.fails == {(5, 5)}

    def test_both_rules_fire(self):
        """Row 0 exceeds the spare columns and column 6 exceeds the
        spare rows — both must-repair rules trigger."""
        bm = bitmap((0, 0), (0, 1), (0, 2), (3, 6), (4, 6))
        result = must_repair(bm, RedundancySpec(1, 2))
        assert result.rows == {0}
        assert result.cols == {6}
        assert result.residual.is_clear

    def test_infeasible_when_must_repair_exceeds_spares(self):
        bm = bitmap(*(((r, c)) for r in (0, 1, 2) for c in range(4)))
        result = must_repair(bm, RedundancySpec(2, 2))
        assert not result.feasible

    def test_no_spare_cols_flags_every_failing_row(self):
        bm = bitmap((1, 1), (4, 2))
        result = must_repair(bm, RedundancySpec(4, 0))
        assert result.rows == {1, 4}
        assert result.feasible


class TestExactSolver:
    def test_single_fail_uses_one_spare(self):
        solution = solve_exact(bitmap((3, 4)), RedundancySpec(2, 2))
        assert solution.repairable and solution.spares_used == 1

    def test_unrepairable_diagonal(self):
        """A k+1-fail diagonal defeats k spares of any mix."""
        bm = bitmap(*((i, i) for i in range(5)))
        assert not solve_exact(bm, RedundancySpec(2, 2)).repairable

    def test_repairable_diagonal_at_exact_budget(self):
        bm = bitmap(*((i, i) for i in range(4)))
        solution = solve_exact(bm, RedundancySpec(2, 2))
        assert solution.repairable and solution.spares_used == 4
        assert covered(bm, solution)

    def test_optimal_prefers_shared_lines(self):
        """Four fails in one row cost one spare row, not four columns."""
        bm = bitmap((2, 0), (2, 3), (2, 5), (2, 7))
        solution = solve_exact(bm, RedundancySpec(1, 4))
        assert solution.repairable
        assert solution.rows == (2,) and solution.cols == ()

    def test_counts_nodes(self):
        solution = solve_exact(bitmap((0, 0), (1, 1)), RedundancySpec(2, 2))
        assert solution.nodes > 0


class TestGreedySolver:
    def test_single_fail(self):
        solution = solve_greedy(bitmap((3, 4)), RedundancySpec(2, 2))
        assert solution.repairable and solution.spares_used == 1

    def test_line_defect_repaired_by_must_repair(self):
        bm = bitmap(*((4, c) for c in range(8)))
        solution = solve_greedy(bm, RedundancySpec(1, 1))
        assert solution.repairable and solution.rows == (4,)

    def test_reports_unrepairable(self):
        bm = bitmap(*((i, i) for i in range(5)))
        assert not solve_greedy(bm, RedundancySpec(2, 2)).repairable

    def test_solution_always_covers(self):
        rng = random.Random(11)
        for _ in range(50):
            fails = {(rng.randrange(8), rng.randrange(8)) for _ in range(rng.randrange(1, 7))}
            bm = bitmap(*fails)
            solution = solve_greedy(bm, RedundancySpec(2, 2))
            if solution.repairable:
                assert covered(bm, solution)


@st.composite
def small_bitmaps(draw):
    n = draw(st.integers(0, 6))
    fails = draw(
        st.sets(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=n, max_size=n
        )
    )
    return FailBitmap(8, 8, frozenset(fails))


class TestSolverAgreement:
    @given(small_bitmaps())
    @settings(max_examples=150, deadline=None)
    def test_greedy_never_beats_exact(self, bm):
        """Exact is optimal: whenever greedy repairs, exact repairs with
        no more spares; and any claimed repair actually covers."""
        spares = RedundancySpec(2, 2)
        exact = solve_exact(bm, spares)
        greedy = solve_greedy(bm, spares)
        if exact.repairable:
            assert covered(bm, exact)
        if greedy.repairable:
            assert covered(bm, greedy)
            assert exact.repairable
            assert exact.spares_used <= greedy.spares_used

    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_agreement_on_optimally_repairable_bitmaps(self, fails):
        """≤4 fails against 2R+2C spares is always optimally repairable
        (one spare per fail at worst) — both solvers must repair it."""
        bm = FailBitmap(6, 6, frozenset(fails))
        spares = RedundancySpec(2, 2)
        exact = solve_exact(bm, spares)
        greedy = solve_greedy(bm, spares)
        assert exact.repairable and greedy.repairable
        assert covered(bm, exact) and covered(bm, greedy)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"exact", "greedy"} <= set(available_allocators())

    def test_resolve_runs_named_solver(self):
        solution = resolve_allocation("exact", bitmap((1, 1)), RedundancySpec(1, 1))
        assert solution.solver == "exact" and solution.repairable

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="greedy"):
            get_allocator("magic")

    def test_plugin_registration_shadows_and_restores(self):
        calls = []

        @register_allocator("test_plugin")
        def solve_plugin(bm, spares):
            calls.append(bm)
            return solve_greedy(bm, spares)

        try:
            resolve_allocation("test_plugin", bitmap((0, 0)), RedundancySpec(1, 0))
            assert len(calls) == 1
        finally:
            ALLOCATORS.pop("test_plugin", None)
