"""Tests for the procedural netlist generators, including ATPG stress
runs on randomly generated scannable cores."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import generate_scan_patterns
from repro.netlist import Simulator
from oracles.netlist_builder import random_combinational, random_scan_core
from oracles.scan_vectors import chain_length_problems


class TestRandomCombinational:
    def test_structure(self):
        m = random_combinational("r", n_inputs=4, n_gates=10, n_outputs=2, seed=3)
        assert m.validate() == []
        assert len(m.input_ports) == 4
        assert len(m.output_ports) == 2

    def test_seed_determinism(self):
        a = random_combinational("a", 4, 10, 2, seed=7)
        b = random_combinational("b", 4, 10, 2, seed=7)
        assert [i.ref for i in a.instances] == [i.ref for i in b.instances]

    def test_simulable(self):
        m = random_combinational("r", 4, 20, 3, seed=5)
        sim = Simulator(m)
        sim.set_inputs({p: 1 for p in m.input_ports})
        sim.evaluate()
        for po in m.output_ports:
            assert sim.get(po) in (0, 1)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            random_combinational("r", 1, 5, 1)


class TestRandomScanCore:
    def test_structure_and_model_agree(self):
        module, core = random_scan_core("rc", n_inputs=5, n_gates=20, n_flops=6, seed=2)
        assert module.validate() == []
        assert core.scan_flops == 6
        assert core.chain_lengths == [6]

    def test_atpg_reaches_high_coverage(self):
        module, core = random_scan_core("rc", n_inputs=5, n_gates=20, n_flops=6, seed=2)
        result = generate_scan_patterns(module, core)
        # random logic contains redundancies (dead gates), so absolute
        # coverage varies; what must hold is 100% of *testable* faults
        testable = result.fault_result.total_faults - len(result.untestable)
        assert len(result.fault_result.detected) == testable - len(result.aborted)
        assert result.coverage > 50.0

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_atpg_tests_detect_their_faults(self, seed):
        """For random circuits: every pattern ATPG emits is well formed
        and the suite detects what the fault simulator says it does."""
        module, core = random_scan_core("rc", n_inputs=4, n_gates=12, n_flops=4, seed=seed)
        result = generate_scan_patterns(module, core)
        assert chain_length_problems(result.patterns, {"c0": 4}) == []
        assert 0.0 <= result.coverage <= 100.0
        detected = len(result.fault_result.detected)
        undetected = len(result.fault_result.undetected)
        assert detected + undetected == result.fault_result.total_faults
