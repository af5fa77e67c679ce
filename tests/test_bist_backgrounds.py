"""Tests for word-oriented March testing with data backgrounds."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist import MARCH_C_MINUS, MATS_PLUS
from repro.bist.backgrounds import standard_backgrounds, word_march_cycles

from oracles.word_march import (
    IntraWordCouplingFault,
    WordMemory,
    WordStuckBitFault,
    run_word_march,
)


class TestStandardBackgrounds:
    def test_one_bit_word(self):
        assert standard_backgrounds(1) == [0]

    def test_four_bit_word(self):
        assert [f"{b:04b}" for b in standard_backgrounds(4)] == ["0000", "1010", "1100"]

    def test_count_is_log2_plus_one(self):
        assert len(standard_backgrounds(8)) == 4
        assert len(standard_backgrounds(16)) == 5
        assert len(standard_backgrounds(32)) == 6

    def test_bad_width(self):
        with pytest.raises(ValueError):
            standard_backgrounds(0)

    @given(bits=st.integers(2, 64))
    def test_property_every_bit_pair_split(self, bits):
        """The defining property: any two distinct bit positions receive
        opposite values under some background."""
        backgrounds = standard_backgrounds(bits)
        for i in range(bits):
            for j in range(i + 1, bits):
                assert any(
                    ((bg >> i) & 1) != ((bg >> j) & 1) for bg in backgrounds
                ), (i, j)


class TestWordMemory:
    def test_read_write(self):
        mem = WordMemory(4, 8)
        mem.write(2, 0xAB)
        assert mem.read(2) == 0xAB

    def test_masking(self):
        mem = WordMemory(4, 4)
        mem.write(0, 0xFF)
        assert mem.read(0) == 0xF

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            WordMemory(0, 8)


class TestWordMarch:
    def test_fault_free_passes(self):
        result = run_word_march(WordMemory(16, 8), MARCH_C_MINUS)
        assert result.passed
        assert result.backgrounds_run == 4

    def test_operation_count_matches_model(self):
        result = run_word_march(WordMemory(16, 8), MARCH_C_MINUS)
        assert result.operations == word_march_cycles(MARCH_C_MINUS, 16, 8)

    @given(word=st.integers(0, 7), bit=st.integers(0, 7), value=st.integers(0, 1))
    def test_stuck_bit_always_detected(self, word, bit, value):
        fault = WordStuckBitFault(word, bit, value)
        result = run_word_march(WordMemory(8, 8), MARCH_C_MINUS, fault)
        assert not result.passed
        assert result.fail_addr == word

    def test_intra_word_cf_escapes_solid_background(self):
        """With only the solid background, aggressor and victim always get
        equal values, so a forced-to-equal coupling is invisible."""
        fault = IntraWordCouplingFault(3, 1, 5, rising=True, forced_value=1)
        result = run_word_march(
            WordMemory(8, 8), MARCH_C_MINUS, fault, backgrounds=[0]
        )
        assert result.passed  # escape!

    @settings(max_examples=40, deadline=None)
    @given(
        word=st.integers(0, 7),
        bits=st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda t: t[0] != t[1]),
        rising=st.booleans(),
        forced=st.integers(0, 1),
    )
    def test_property_backgrounds_catch_intra_word_cf(self, word, bits, rising, forced):
        """The full background set restores the March C- CFid guarantee
        inside words."""
        aggressor, victim = bits
        fault = IntraWordCouplingFault(word, aggressor, victim, rising, forced)
        result = run_word_march(WordMemory(8, 8), MARCH_C_MINUS, fault)
        assert not result.passed

    def test_weak_march_still_weak(self):
        """Backgrounds fix word-orientation, not algorithm weakness:
        MATS+ still misses intra-word idempotent couplings."""
        escapes = 0
        for aggressor in range(4):
            for victim in range(4):
                if aggressor == victim:
                    continue
                fault = IntraWordCouplingFault(0, aggressor, victim, True, 1)
                if run_word_march(WordMemory(4, 4), MATS_PLUS, fault).passed:
                    escapes += 1
        assert escapes > 0

    def test_bad_fault_params(self):
        with pytest.raises(ValueError):
            IntraWordCouplingFault(0, 3, 3, True, 1)
