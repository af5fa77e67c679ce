"""Tests for BIST hardware generation (TPG, sequencer, controller),
cycle accounting, grouping, and the BRAINS compiler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist import (
    Brains,
    BrainsConfig,
    MARCH_C_MINUS,
    MATS_PLUS,
    StuckAtFault,
    make_bist_controller,
    make_sequencer,
    make_tpg,
    march_cycles,
    microcode,
    plan_bist,
    run_tpg,
)
from repro.bist.memory_model import FaultFreeMemory, FaultyMemory
from repro.bist.tpg import ELEMENT_SWITCH_CYCLES, TPG_SETUP_CYCLES
from repro.soc import MemorySpec, MemoryType
from repro.soc.dsc import build_dsc_memories

from oracles.march_ref import run_tpg as run_tpg_reference


def spec(name="m0", words=64, bits=8, tp=False, power=1.0):
    return MemorySpec(
        name, words, bits,
        MemoryType.TWO_PORT if tp else MemoryType.SINGLE_PORT,
        power=power,
    )


class TestMarchCycles:
    def test_formula(self):
        words = 64
        expected = TPG_SETUP_CYCLES + 10 * words + ELEMENT_SWITCH_CYCLES * 6
        assert march_cycles(MARCH_C_MINUS, words) == expected

    def test_two_port_doubles_pass_count(self):
        single = march_cycles(MARCH_C_MINUS, 64, two_port=False)
        double = march_cycles(MARCH_C_MINUS, 64, two_port=True)
        assert double == 2 * (single - TPG_SETUP_CYCLES) + TPG_SETUP_CYCLES

    @given(words=st.integers(1, 4096))
    def test_property_behavioral_matches_formula(self, words):
        """The formula against the retained TPG, which counts op by op."""
        mem = FaultFreeMemory(min(words, 64))
        run = run_tpg_reference(mem, MATS_PLUS, two_port=False)
        assert run.cycles == march_cycles(MATS_PLUS, mem.size)


class TestRunTpg:
    def test_clean_memory_passes(self):
        assert run_tpg(FaultFreeMemory(32), MARCH_C_MINUS).passed

    def test_fault_recorded(self):
        mem = FaultyMemory(32, StuckAtFault(7, 1))
        run = run_tpg(mem, MARCH_C_MINUS, name="x")
        assert not run.passed
        assert run.fail_addr == 7
        assert run.fail_op in ("r0", "r1")

    def test_two_port_runs_twice(self):
        mem = FaultFreeMemory(16)
        run = run_tpg_reference(mem, MATS_PLUS, two_port=True)
        assert run.cycles == march_cycles(MATS_PLUS, 16, two_port=True)


class TestGeneratedHardware:
    def test_tpg_validates(self):
        module = make_tpg(spec(words=256))
        assert module.validate() == []

    def test_tpg_area_scales_with_address_bits(self):
        small = make_tpg(spec(name="s", words=16)).area()
        large = make_tpg(spec(name="l", words=4096)).area()
        assert large > small

    def test_sequencer_validates(self):
        assert make_sequencer(MARCH_C_MINUS).validate() == []

    def test_sequencer_microcode(self):
        program = microcode(MARCH_C_MINUS)
        assert len(program) == MARCH_C_MINUS.complexity
        assert program[0].op.value == "w0"
        assert program[-1].last_in_element

    def test_controller_validates(self):
        assert make_bist_controller(8, 3).validate() == []

    def test_controller_rejects_empty(self):
        with pytest.raises(ValueError):
            make_bist_controller(0, 1)

    def test_controller_area_scales_with_memories(self):
        a = make_bist_controller(4, 2, name="c4").area()
        b = make_bist_controller(22, 5, name="c22").area()
        assert b > a


class TestPlanBist:
    def test_no_budget_single_group(self):
        plan = plan_bist([spec(f"m{i}", 64) for i in range(5)], MARCH_C_MINUS)
        assert len(plan.groups) == 1
        assert plan.memory_count == 5

    def test_power_budget_splits(self):
        memories = [spec(f"m{i}", 64, power=2.0) for i in range(6)]
        plan = plan_bist(memories, MARCH_C_MINUS, power_budget=5.0)
        assert len(plan.groups) >= 3
        for group in plan.groups:
            assert group.power <= 5.0

    def test_grouped_never_slower_than_serial(self):
        memories = build_dsc_memories()
        plan = plan_bist(memories, MARCH_C_MINUS, power_budget=6.0)
        assert plan.total_cycles <= plan.serial_cycles

    def test_group_time_is_max_member(self):
        memories = [spec("a", 1024), spec("b", 64)]
        plan = plan_bist(memories, MARCH_C_MINUS)
        assert plan.total_cycles == march_cycles(MARCH_C_MINUS, 1024)

    def test_oversized_memory_raises(self):
        with pytest.raises(ValueError, match="exceeds the power budget"):
            plan_bist([spec("big", 64, power=9.0)], MARCH_C_MINUS, power_budget=5.0)

    def test_max_groups_respected(self):
        memories = [spec(f"m{i}", 64, power=2.0) for i in range(6)]
        plan = plan_bist(memories, MARCH_C_MINUS, power_budget=0.0, max_groups=2)
        assert len(plan.groups) <= 2

    def test_tasks_share_engine_mutex(self):
        memories = [spec(f"m{i}", 64, power=2.0) for i in range(4)]
        plan = plan_bist(memories, MARCH_C_MINUS, power_budget=3.0)
        tasks = plan.to_tasks()
        assert len(tasks) == len(plan.groups)
        assert all(t.core_name == "MBIST" for t in tasks)
        assert all(t.uses_bist_port for t in tasks)

    def test_render(self):
        plan = plan_bist([spec("a", 64)], MARCH_C_MINUS)
        assert "speedup" in plan.render()

    @settings(max_examples=25, deadline=None)
    @given(
        powers=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=10),
        budget=st.floats(3.0, 8.0),
    )
    def test_property_grouping_sound(self, powers, budget):
        memories = [spec(f"m{i}", 32, power=p) for i, p in enumerate(powers)]
        plan = plan_bist(memories, MARCH_C_MINUS, power_budget=budget)
        assert plan.memory_count == len(memories)
        names = sorted(m.name for g in plan.groups for m in g.memories)
        assert names == sorted(m.name for m in memories)
        for group in plan.groups:
            assert group.power <= budget + 1e-9


class TestBrainsCompiler:
    @pytest.fixture(scope="class")
    def engine(self):
        return Brains().compile(
            build_dsc_memories(), BrainsConfig(march=MARCH_C_MINUS, power_budget=6.0)
        )

    def test_tpg_per_memory(self, engine):
        assert len(engine.tpg_modules) == 22

    def test_netlist_modules_validate(self, engine):
        assert engine.controller_module.validate(engine.netlist) == []
        for module in engine.sequencer_modules:
            assert module.validate(engine.netlist) == []

    def test_total_area_positive(self, engine):
        assert engine.total_area > 1000

    def test_fault_free_run_passes(self, engine):
        result = engine.run(model_words=64)
        assert result.all_pass
        assert len(result.results) == 22

    def test_fault_localized(self, engine):
        result = engine.run(faults={"cpu_d0": StuckAtFault(3, 0)}, model_words=64)
        assert result.failing == ["cpu_d0"]

    def test_reported_cycles_are_true_size(self, engine):
        result = engine.run(model_words=16)
        byname = {r.memory_name: r for r in result.results}
        fb0 = next(s for s in engine.specs if s.name == "fb0")
        assert byname["fb0"].cycles == march_cycles(MARCH_C_MINUS, fb0.words)

    def test_tables_render(self, engine):
        assert "BIST controller" in engine.area_table().render()

    def test_empty_memories_rejected(self):
        with pytest.raises(ValueError):
            Brains().compile([])

    def test_multiple_sequencers(self):
        engine = Brains().compile(
            [spec("a", 64), spec("b", 64)],
            BrainsConfig(march=MATS_PLUS, sequencers=2),
        )
        assert len(engine.sequencer_modules) == 2


class TestWordOrientedCompile:
    def test_word_oriented_multiplies_cycles(self):
        from repro.bist.scheduling import memory_test_cycles
        from repro.bist import standard_backgrounds

        m = spec("m", words=256, bits=16)
        bit_cycles = memory_test_cycles(MARCH_C_MINUS, m, word_oriented=False)
        word_cycles = memory_test_cycles(MARCH_C_MINUS, m, word_oriented=True)
        assert word_cycles == bit_cycles * len(standard_backgrounds(16))

    def test_word_oriented_engine(self):
        memories = [spec("a", 64, 8), spec("b", 64, 32)]
        bit_engine = Brains().compile(memories, BrainsConfig(march=MARCH_C_MINUS))
        word_engine = Brains().compile(
            memories, BrainsConfig(march=MARCH_C_MINUS, word_oriented=True)
        )
        assert word_engine.total_cycles > bit_engine.total_cycles
        # 32-bit words need 6 backgrounds, 8-bit need 4
        assert word_engine.memory_cycles(memories[1]) == 6 * bit_engine.memory_cycles(memories[1])
        assert word_engine.memory_cycles(memories[0]) == 4 * bit_engine.memory_cycles(memories[0])

    def test_word_oriented_tasks_reflect_cost(self):
        memories = [spec("a", 64, 8, power=1.0)]
        plan_bit = Brains().compile(memories, BrainsConfig(march=MARCH_C_MINUS)).plan
        plan_word = Brains().compile(
            memories, BrainsConfig(march=MARCH_C_MINUS, word_oriented=True)
        ).plan
        assert plan_word.to_tasks()[0].fixed_time > plan_bit.to_tasks()[0].fixed_time
