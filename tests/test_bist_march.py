"""Tests for March notation, algorithms, and the memory/fault models."""

import pytest
from hypothesis import given, strategies as st

from repro.bist import (
    ALGORITHMS,
    MARCH_C_MINUS,
    MarchElement,
    MarchTest,
    Op,
    Order,
    algorithm,
    parse_march,
    with_retention,
)
from repro.bist.memory_model import FaultFreeMemory, FaultyMemory
from repro.bist import (
    AddressAliasFault,
    AddressNoAccessFault,
    DataRetentionFault,
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
)


class TestNotation:
    def test_parse_march_c_minus(self):
        test = parse_march("{*(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0); *(r0)}")
        assert test.complexity == 10
        assert len(test.elements) == 6
        assert test.elements[1].order is Order.UP
        assert test.elements[3].order is Order.DOWN

    def test_format_round_trip(self):
        for test in ALGORITHMS:
            assert parse_march(test.format()).elements == test.elements

    def test_pause_notation(self):
        test = parse_march("{*(w0); pause,*(r0)}")
        assert test.elements[1].pause_before
        assert "pause," in test.format()

    def test_bad_notation_raises(self):
        with pytest.raises(ValueError):
            parse_march("{x(w0)}")
        with pytest.raises(ValueError):
            parse_march("{*(w9)}")
        with pytest.raises(ValueError):
            parse_march("{*w0}")

    def test_empty_element_rejected(self):
        with pytest.raises(ValueError):
            MarchElement(Order.UP, ())

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            MarchTest("x", ())


class TestLibrary:
    def test_complexities(self):
        expected = {
            "MATS": 4, "MATS+": 5, "MATS++": 6, "March X": 6, "March Y": 8,
            "March C-": 10, "March C": 11, "March A": 15, "March B": 17,
            "March SS": 22,
        }
        for test in ALGORITHMS:
            assert test.complexity == expected[test.name], test.name

    def test_lookup(self):
        assert algorithm("march c-") is MARCH_C_MINUS
        with pytest.raises(KeyError):
            algorithm("March Z")

    def test_operation_count(self):
        assert MARCH_C_MINUS.operation_count(1024) == 10 * 1024

    def test_with_retention_adds_pauses(self):
        ret = with_retention(MARCH_C_MINUS)
        assert any(e.pause_before for e in ret.elements)
        assert not any(e.pause_before for e in MARCH_C_MINUS.elements)
        assert ret.complexity == MARCH_C_MINUS.complexity

    def test_ops_properties(self):
        assert Op.R1.is_read and Op.R1.value_bit == 1
        assert Op.W0.is_write and Op.W0.value_bit == 0


class TestMemoryModel:
    def test_write_read(self):
        mem = FaultFreeMemory(8)
        mem.write(3, 1)
        assert mem.read(3) == 1
        mem.write(3, 0)
        assert mem.read(3) == 0

    def test_bounds_checked(self):
        mem = FaultFreeMemory(8)
        with pytest.raises(IndexError):
            mem.read(8)
        with pytest.raises(IndexError):
            mem.write(-1, 0)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            FaultFreeMemory(0)

    def test_power_up_is_seeded_random(self):
        a = FaultFreeMemory(64, seed=3)
        b = FaultFreeMemory(64, seed=3)
        assert a.state.cells == b.state.cells

    def test_pause_holds_data(self):
        mem = FaultFreeMemory(4)
        mem.write(0, 1)
        mem.pause()
        assert mem.read(0) == 1


class TestFaultBehaviors:
    def test_stuck_at(self):
        mem = FaultyMemory(8, StuckAtFault(2, 1))
        mem.write(2, 0)
        assert mem.read(2) == 1
        mem.write(3, 0)
        assert mem.read(3) == 0  # other cells fine

    def test_transition_up(self):
        mem = FaultyMemory(8, TransitionFault(2, rising=True), initial_overrides={2: 0})
        mem.write(2, 1)  # 0 -> 1 blocked
        assert mem.read(2) == 0
        mem.write(2, 0)
        assert mem.read(2) == 0

    def test_transition_down(self):
        mem = FaultyMemory(8, TransitionFault(2, rising=False), initial_overrides={2: 1})
        mem.write(2, 0)  # 1 -> 0 blocked
        assert mem.read(2) == 1

    def test_inversion_coupling(self):
        fault = InversionCouplingFault(1, 5, rising=True)
        mem = FaultyMemory(8, fault, initial_overrides={1: 0, 5: 0})
        mem.write(1, 1)  # aggressor 0->1 flips victim
        assert mem.read(5) == 1

    def test_idempotent_coupling(self):
        fault = IdempotentCouplingFault(1, 5, rising=False, forced_value=1)
        mem = FaultyMemory(8, fault, initial_overrides={1: 1, 5: 0})
        mem.write(1, 0)
        assert mem.read(5) == 1
        mem.write(1, 0)  # no transition: victim keeps its (written) state
        mem.write(5, 0)
        assert mem.read(5) == 0

    def test_state_coupling(self):
        fault = StateCouplingFault(1, 5, aggressor_state=1, forced_value=0)
        mem = FaultyMemory(8, fault, initial_overrides={1: 1, 5: 0})
        mem.write(5, 1)  # lost: coupling active
        assert mem.read(5) == 0
        mem.write(1, 0)  # deactivate
        mem.write(5, 1)
        assert mem.read(5) == 1

    def test_stuck_open_returns_sense_amp(self):
        mem = FaultyMemory(8, StuckOpenFault(3), initial_overrides={3: 1})
        mem.write(2, 1)
        assert mem.read(2) == 1  # sense amp now 1
        assert mem.read(3) == 1  # SOF cell mirrors sense amp
        mem.write(4, 0)
        assert mem.read(4) == 0
        assert mem.read(3) == 0

    def test_address_alias(self):
        mem = FaultyMemory(8, AddressAliasFault(2, 6))
        mem.write(2, 1)
        assert mem.read(6) == 1
        mem.write(6, 0)
        assert mem.read(2) == 0

    def test_address_no_access(self):
        mem = FaultyMemory(8, AddressNoAccessFault(4))
        mem.write(4, 1)
        assert mem.read(4) == 0

    def test_data_retention(self):
        mem = FaultyMemory(8, DataRetentionFault(2, 0))
        mem.write(2, 1)
        assert mem.read(2) == 1
        mem.pause()
        assert mem.read(2) == 0

    def test_aggressor_equals_victim_rejected(self):
        with pytest.raises(ValueError):
            InversionCouplingFault(3, 3, rising=True)
        with pytest.raises(ValueError):
            AddressAliasFault(2, 2)

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 1)), min_size=1, max_size=30
        )
    )
    def test_property_fault_free_memory_is_consistent(self, writes):
        mem = FaultFreeMemory(8)
        shadow = dict(enumerate(mem.state.cells))
        for addr, value in writes:
            mem.write(addr, value)
            shadow[addr] = value
            assert mem.read(addr) == value
        for addr, value in shadow.items():
            assert mem.read(addr) == value
