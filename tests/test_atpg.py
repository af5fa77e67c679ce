"""Tests for the ATPG substrate: engines, PODEM, fault simulation, and
full-scan pattern generation — including the flagship loop: ATPG
patterns, carried through STIL, replayed on the wrapped gates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import (
    CombEngine,
    ParallelSim,
    StuckFault,
    all_stuck_faults,
    combinational_view,
    fault_simulate,
    fill_x,
    generate_scan_patterns,
    podem,
    trace_chain_flops,
)
from repro.netlist import LOW, CombLoopError, Module, Netlist, Simulator, flatten
from repro.netlist.cells import HIGH as H, LOW as L
from repro.patterns import replay, translate_core_to_wrapper, wrapper_scan_program
from repro.soc.demo import build_demo_core, build_demo_core_module
from repro.stil import core_from_stil, core_to_stil
from repro.wrapper import generate_wrapper

from oracles.scan_vectors import chain_length_problems


def make_and_or() -> Module:
    # y = (a & b) | c
    m = Module("ao")
    for p in ("a", "b", "c"):
        m.add_input(p)
    m.add_output("y")
    m.add_instance("u0", "AND2", A="a", B="b", Y="n0")
    m.add_instance("u1", "OR2", A="n0", B="c", Y="y")
    return m


def make_redundant() -> Module:
    # y = a | (a & b): the AND output stuck-at-0 is untestable
    m = Module("red")
    m.add_input("a")
    m.add_input("b")
    m.add_output("y")
    m.add_instance("u0", "AND2", A="a", B="b", Y="n0")
    m.add_instance("u1", "OR2", A="a", B="n0", Y="y")
    return m


class TestCombEngine:
    def test_evaluate(self):
        engine = CombEngine(make_and_or())
        values = engine.evaluate({"a": 1, "b": 1, "c": 0})
        assert values["y"] == H

    def test_x_defaults(self):
        engine = CombEngine(make_and_or())
        values = engine.evaluate({"c": 1})
        assert values["y"] == H  # c=1 dominates OR

    def test_forcing(self):
        engine = CombEngine(make_and_or())
        values = engine.evaluate({"a": 1, "b": 1, "c": 0}, force=("n0", 0))
        assert values["y"] == L

    def test_rejects_sequential(self):
        m = Module("seq")
        m.add_input("clk")
        m.add_input("d")
        m.add_output("q")
        m.add_instance("ff", "DFF", D="d", CK="clk", Q="q")
        with pytest.raises(ValueError, match="sequential"):
            CombEngine(m)

    @pytest.mark.parametrize("engine", [CombEngine, ParallelSim])
    def test_loop_names_both_instances(self, engine):
        m = Module("loop")
        m.add_input("a")
        m.add_output("y")
        m.add_instance("u_nand", "NAND2", A="a", B="y", Y="n")
        m.add_instance("u_inv", "INV", A="n", Y="y")
        with pytest.raises(CombLoopError, match=r"\['u_inv', 'u_nand'\]"):
            engine(m)


class TestParallelSim:
    def test_matches_comb_engine(self):
        module = make_and_or()
        sim = ParallelSim(module)
        engine = CombEngine(module)
        patterns = [
            {"a": a, "b": b, "c": c}
            for a in (0, 1) for b in (0, 1) for c in (0, 1)
        ]
        words = ParallelSim.pack(patterns, sim.inputs)
        outs = sim.run(words)
        for i, pattern in enumerate(patterns):
            expected = engine.evaluate(pattern)["y"]
            assert (outs["y"] >> i) & 1 == expected

    def test_pack_rejects_too_many(self):
        with pytest.raises(ValueError):
            ParallelSim.pack([{}] * 65, ["a"])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=64))
    def test_property_parallel_equals_serial(self, tuples):
        module = make_and_or()
        sim = ParallelSim(module)
        engine = CombEngine(module)
        patterns = [{"a": a, "b": b, "c": c} for a, b, c in tuples]
        outs = sim.run(ParallelSim.pack(patterns, sim.inputs))
        for i, pattern in enumerate(patterns):
            assert (outs["y"] >> i) & 1 == engine.evaluate(pattern)["y"]


class TestPodem:
    def test_finds_test_for_testable_fault(self):
        engine = CombEngine(make_and_or())
        result = podem(engine, StuckFault("n0", 0))
        assert result.testable
        # the test must set a=b=1, c=0
        filled = fill_x(result.test, engine.inputs)
        good = engine.evaluate(filled)
        bad = engine.evaluate(filled, force=("n0", 0))
        assert good["y"] != bad["y"]

    def test_proves_redundant_fault_untestable(self):
        engine = CombEngine(make_redundant())
        result = podem(engine, StuckFault("n0", 0))
        assert not result.testable
        assert not result.aborted

    def test_unknown_net_raises(self):
        engine = CombEngine(make_and_or())
        with pytest.raises(KeyError):
            podem(engine, StuckFault("zz", 0))

    def test_pi_faults_testable(self):
        engine = CombEngine(make_and_or())
        for net in ("a", "b", "c"):
            for v in (0, 1):
                assert podem(engine, StuckFault(net, v)).testable

    @settings(max_examples=20, deadline=None)
    @given(value=st.integers(0, 1))
    def test_property_every_generated_test_detects_its_fault(self, value):
        engine = CombEngine(make_and_or())
        for fault in all_stuck_faults(engine.module):
            result = podem(engine, StuckFault(fault.net, value))
            if not result.testable:
                continue
            filled = fill_x(result.test, engine.inputs)
            good = engine.evaluate(filled)
            bad = engine.evaluate(filled, force=(fault.net, value))
            outs = [po for po in engine.outputs if good[po] != bad[po]]
            assert outs, f"{fault.net}/SA{value} test does not detect"


class TestFaultSimulate:
    def test_exhaustive_patterns_reach_full_coverage(self):
        module = make_and_or()
        patterns = [
            {"a": a, "b": b, "c": c}
            for a in (0, 1) for b in (0, 1) for c in (0, 1)
        ]
        result = fault_simulate(module, all_stuck_faults(module), patterns)
        assert result.coverage == pytest.approx(100.0)

    def test_redundant_fault_never_detected(self):
        module = make_redundant()
        patterns = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        result = fault_simulate(module, [StuckFault("n0", 0)], patterns)
        assert result.coverage == 0.0

    def test_no_patterns_no_coverage(self):
        module = make_and_or()
        result = fault_simulate(module, all_stuck_faults(module), [])
        assert result.coverage == 0.0


class TestCombinationalView:
    def test_flops_become_pseudo_ports(self):
        view = combinational_view(build_demo_core_module())
        assert view.flops == ["ff0", "ff1"]
        assert "ppi_ff0" in view.module.input_ports
        assert "ppo_ff1" in view.module.output_ports

    def test_view_is_combinational(self):
        view = combinational_view(build_demo_core_module())
        CombEngine(view.module)  # must not raise

    def test_chain_tracing(self):
        chains = trace_chain_flops(build_demo_core_module(), build_demo_core())
        assert chains == {"c0": ["ff0", "ff1"]}

    def test_broken_chain_raises(self):
        module = build_demo_core_module()
        core = build_demo_core()
        core.scan_chains[0] = type(core.scan_chains[0])(
            "c0", 2, "a", "so"  # wrong scan-in
        )
        with pytest.raises(ValueError, match="cannot trace"):
            trace_chain_flops(module, core)


class TestGenerateScanPatterns:
    @pytest.fixture(scope="class")
    def atpg(self):
        return generate_scan_patterns(build_demo_core_module(), build_demo_core())

    def test_full_coverage(self, atpg):
        assert atpg.coverage == pytest.approx(100.0)
        assert not atpg.aborted

    def test_vectors_well_formed(self, atpg):
        chain_lengths = {"c0": 2}
        assert chain_length_problems(atpg.patterns, chain_lengths) == []
        assert all(len(v.pi) == 3 for v in atpg.patterns.scan_vectors)

    def test_stil_round_trip_preserves_vectors(self, atpg):
        core = build_demo_core(patterns=atpg.pattern_count)
        text = core_to_stil(core, atpg.patterns)
        extracted = core_from_stil(text)
        assert extracted.patterns.scan_vectors == atpg.patterns.scan_vectors
        assert extracted.core.tests[0].patterns == atpg.pattern_count

    def test_full_loop_atpg_to_wrapper_replay(self, atpg):
        """ATPG vectors -> STIL -> wrapper generation -> translation ->
        replay on the real wrapped gates: zero mismatches."""
        core = build_demo_core(patterns=atpg.pattern_count)
        stil_text = core_to_stil(core, atpg.patterns)
        extracted = core_from_stil(stil_text)

        netlist = Netlist()
        netlist.add(build_demo_core_module())
        gen = generate_wrapper(extracted.core, netlist, width=1)
        tb = Module("tb")
        wrapper = gen.module
        tb.add_input("ck")
        for port in wrapper.input_ports:
            if port not in ("wrck", "clk"):
                tb.add_input(port)
        for port in wrapper.output_ports:
            tb.add_output(port)
        conns = {p: ("ck" if p in ("wrck", "clk") else p)
                 for p in wrapper.input_ports + wrapper.output_ports}
        tb.add_instance("u_wrap", wrapper.name, **conns)
        netlist.add(tb)
        netlist.top_name = "tb"
        sim = Simulator(flatten(netlist))
        sim.reset_state(LOW)
        sim.set_inputs({p: LOW for p in tb.input_ports})

        wp = translate_core_to_wrapper(extracted.core, extracted.patterns, gen.plan)
        program = wrapper_scan_program(extracted.core, wp)
        assert replay(program, sim, "ck") == []

    def test_replay_detects_injected_defect(self, atpg):
        """Same loop, but with a netlist defect (an inverter spliced into
        the carry path): the ATPG program must flag mismatches."""
        core = build_demo_core(patterns=atpg.pattern_count)
        broken = build_demo_core_module()
        # splice: carry net feeds ff1 through an inverter (wrong polarity)
        for inst in broken.instances:
            if inst.name == "ff1":
                inst.conns["D"] = "n_carry_bad"
        broken.add_instance("u_defect", "INV", A="n_carry", Y="n_carry_bad")

        netlist = Netlist()
        netlist.add(broken)
        gen = generate_wrapper(core, netlist, width=1)
        tb = Module("tb")
        wrapper = gen.module
        tb.add_input("ck")
        for port in wrapper.input_ports:
            if port not in ("wrck", "clk"):
                tb.add_input(port)
        for port in wrapper.output_ports:
            tb.add_output(port)
        conns = {p: ("ck" if p in ("wrck", "clk") else p)
                 for p in wrapper.input_ports + wrapper.output_ports}
        tb.add_instance("u_wrap", wrapper.name, **conns)
        netlist.add(tb)
        netlist.top_name = "tb"
        sim = Simulator(flatten(netlist))
        sim.reset_state(LOW)
        sim.set_inputs({p: LOW for p in tb.input_ports})

        wp = translate_core_to_wrapper(core, atpg.patterns, gen.plan)
        program = wrapper_scan_program(core, wp)
        assert replay(program, sim, "ck") != []
