"""March detection-guarantee tests: the classical theory results that
BRAINS's coverage evaluator must reproduce (van de Goor)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist import (
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS,
    MATS_PLUS,
    MATS_PP,
    AddressAliasFault,
    AddressNoAccessFault,
    DataRetentionFault,
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
    coverage_table,
    detects,
    fault_population,
    run_march,
    simulate_coverage,
    with_retention,
)
from repro.bist.memory_model import FaultFreeMemory

SIZE = 12

cells = st.integers(0, SIZE - 1)
bits = st.integers(0, 1)
bools = st.booleans()


@st.composite
def cell_pairs(draw):
    a = draw(cells)
    v = draw(cells.filter(lambda x: x != a))
    return a, v


class TestFaultFreeSanity:
    @pytest.mark.parametrize("march", [MATS, MATS_PLUS, MARCH_X, MARCH_C_MINUS, MARCH_B])
    def test_all_algorithms_pass_clean_memory(self, march):
        assert run_march(FaultFreeMemory(SIZE), march)


class TestStuckAtGuarantees:
    """Every shipped algorithm guarantees 100% SAF coverage."""

    @given(cell=cells, value=bits)
    def test_mats_detects_all_saf(self, cell, value):
        assert detects(MATS, StuckAtFault(cell, value), SIZE)

    @given(cell=cells, value=bits)
    def test_march_c_minus_detects_all_saf(self, cell, value):
        assert detects(MARCH_C_MINUS, StuckAtFault(cell, value), SIZE)


class TestTransitionGuarantees:
    @given(cell=cells, rising=bools)
    def test_march_x_detects_all_tf(self, cell, rising):
        assert detects(MARCH_X, TransitionFault(cell, rising), SIZE)

    @given(cell=cells, rising=bools)
    def test_march_c_minus_detects_all_tf(self, cell, rising):
        assert detects(MARCH_C_MINUS, TransitionFault(cell, rising), SIZE)

    def test_mats_plus_misses_some_tf(self):
        """MATS+ covers SAF+AF but not TF (the final w0 is never read)."""
        missed = [
            cell for cell in range(SIZE)
            if not detects(MATS_PLUS, TransitionFault(cell, rising=False), SIZE)
        ]
        assert missed  # at least one guaranteed escape


class TestCouplingGuarantees:
    """March C- guarantees all unlinked CFin, CFid and CFst."""

    @settings(max_examples=60, deadline=None)
    @given(pair=cell_pairs(), rising=bools)
    def test_cfin(self, pair, rising):
        a, v = pair
        assert detects(MARCH_C_MINUS, InversionCouplingFault(a, v, rising), SIZE)

    @settings(max_examples=60, deadline=None)
    @given(pair=cell_pairs(), rising=bools, forced=bits)
    def test_cfid(self, pair, rising, forced):
        a, v = pair
        assert detects(
            MARCH_C_MINUS, IdempotentCouplingFault(a, v, rising, forced), SIZE
        )

    @settings(max_examples=60, deadline=None)
    @given(pair=cell_pairs(), state=bits, forced=bits)
    def test_cfst(self, pair, state, forced):
        a, v = pair
        assert detects(MARCH_C_MINUS, StateCouplingFault(a, v, state, forced), SIZE)

    def test_march_x_misses_some_cfid(self):
        escapes = [
            (a, v)
            for a in range(4)
            for v in range(4)
            if a != v
            and not detects(
                MARCH_X, IdempotentCouplingFault(a, v, rising=True, forced_value=0), SIZE
            )
        ]
        assert escapes


class TestStuckOpenGuarantees:
    @given(cell=cells)
    def test_mats_pp_detects_sof(self, cell):
        """MATS++'s r0 right after w0 catches stuck-open cells."""
        assert detects(MATS_PP, StuckOpenFault(cell), SIZE)

    @given(cell=cells)
    def test_march_y_detects_sof(self, cell):
        assert detects(MARCH_Y, StuckOpenFault(cell), SIZE)

    def test_march_c_minus_misses_sof(self):
        """No read-after-write in the same element: SOF escapes March C-
        (interior cells mirror the neighbouring read)."""
        missed = [
            cell for cell in range(1, SIZE - 1)
            if not detects(MARCH_C_MINUS, StuckOpenFault(cell), SIZE)
        ]
        assert missed


class TestAddressFaultGuarantees:
    @given(cell=cells)
    def test_mats_plus_detects_no_access(self, cell):
        assert detects(MATS_PLUS, AddressNoAccessFault(cell), SIZE)

    @given(pair=cell_pairs())
    def test_mats_plus_detects_alias(self, pair):
        a, b = pair
        assert detects(MATS_PLUS, AddressAliasFault(a, b), SIZE)

    @given(pair=cell_pairs())
    def test_march_c_minus_detects_alias(self, pair):
        a, b = pair
        assert detects(MARCH_C_MINUS, AddressAliasFault(a, b), SIZE)


class TestRetention:
    @given(cell=cells, leak=bits)
    def test_retention_variant_catches_drf(self, cell, leak):
        ret = with_retention(MARCH_C_MINUS)
        assert detects(ret, DataRetentionFault(cell, leak), SIZE)

    @given(cell=cells, leak=bits)
    def test_plain_march_c_minus_misses_drf(self, cell, leak):
        assert not detects(MARCH_C_MINUS, DataRetentionFault(cell, leak), SIZE)


class TestCoverageReports:
    def test_simulate_coverage_march_c_minus(self):
        result = simulate_coverage(MARCH_C_MINUS, size=10, coupling_pairs=8)
        for cls in ("SAF", "TF", "CFin", "CFid", "CFst", "AF"):
            assert result.coverage(cls) == pytest.approx(100.0), cls
        assert result.coverage("SOF") < 100.0
        assert result.coverage("DRF") == 0.0

    def test_escapes_recorded(self):
        result = simulate_coverage(MATS_PLUS, size=8, coupling_pairs=4)
        assert result.escapes

    def test_coverage_monotone_mats_family(self):
        """MATS -> MATS+ -> MATS++ never loses total coverage."""
        totals = [
            simulate_coverage(m, size=8, coupling_pairs=6).total_coverage
            for m in (MATS, MATS_PLUS, MATS_PP)
        ]
        assert totals == sorted(totals)

    def test_coverage_table_renders(self):
        text = coverage_table([MATS_PLUS, MARCH_C_MINUS], size=8, coupling_pairs=4).render()
        assert "March C-" in text and "MATS+" in text

    def test_inconsistent_march_rejected(self):
        from repro.bist import parse_march

        bad = parse_march("{*(r1)}")  # reads 1 from random power-up state
        with pytest.raises(ValueError, match="fault-free"):
            simulate_coverage(bad, size=8)

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_coupling_population_needs_two_cells(self, size):
        with pytest.raises(ValueError, match=r"size must be at least 2 .*CFin"):
            fault_population(size)
        with pytest.raises(ValueError, match="size"):
            simulate_coverage(MARCH_C_MINUS, size=size)

    def test_single_cell_population_without_coupling(self):
        faults = fault_population(1, ("SAF", "TF", "AF"), coupling_pairs=5)
        assert [f.describe() for f in faults] == [
            "SAF0(0)", "SAF1(0)", "TF_UP(0)", "TF_DOWN(0)", "AF_open(0)",
        ]

    def test_negative_coupling_pairs_rejected(self):
        with pytest.raises(ValueError, match="coupling_pairs must be non-negative, got -1"):
            fault_population(8, coupling_pairs=-1)
        with pytest.raises(ValueError, match="coupling_pairs"):
            coverage_table([MATS_PLUS], size=8, coupling_pairs=-1)
