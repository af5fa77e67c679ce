"""Tests for the staged pipeline API (repro.core.pipeline)."""

import dataclasses

import pytest

from repro.core import (
    FlowContext,
    IntegrationResult,
    Pipeline,
    Schedule,
    Stage,
    Steac,
    SteacConfig,
)
from repro.core.pipeline import MissingArtifactError
from repro.sched import resolve_schedule, tasks_from_soc
from repro.soc import MemorySpec, Soc
from repro.soc.demo import build_demo_core
from repro.soc.dsc import build_dsc_chip


def small_soc() -> Soc:
    soc = Soc("pipe_soc", test_pins=24)
    soc.add_core(build_demo_core(patterns=4))
    soc.add_memory(MemorySpec("m0", words=256, bits=8))
    return soc


class TestDefaultFlow:
    def test_stage_order_matches_fig1(self):
        assert Pipeline.default().stage_names == [
            "parse_stil", "compile_bist", "schedule", "insert_dft",
            "translate_patterns",
        ]

    def test_pipeline_run_equals_integrate(self):
        via_pipeline = Pipeline.default().run(Steac().context(small_soc()))
        via_integrate = Steac().integrate(small_soc())
        assert via_pipeline.schedule.total_time == via_integrate.total_test_time
        assert set(via_pipeline.wrappers) == set(via_integrate.wrappers)
        assert (
            via_pipeline.netlist.top.name == via_integrate.netlist.top.name
        )

    def test_every_stage_records_time(self):
        ctx = Pipeline.default().run(Steac().context(small_soc()))
        assert set(ctx.stage_seconds) == set(Pipeline.default().stage_names)
        assert all(t >= 0.0 for t in ctx.stage_seconds.values())

    def test_integration_result_carries_stage_seconds(self):
        result = Steac().integrate(small_soc())
        assert "schedule" in result.stage_seconds

    def test_integrate_returns_the_finished_flow(self):
        """The result is the context the stages filled: no second record."""
        result = Steac(SteacConfig(compare_strategies=False)).integrate(build_dsc_chip())
        assert isinstance(result, FlowContext)
        assert dataclasses.fields(IntegrationResult) == dataclasses.fields(FlowContext)
        placed = [test.task for session in result.schedule.sessions for test in session.tests]
        assert len(placed) == len(result.tasks)
        assert {id(task) for task in placed} == {id(task) for task in result.tasks}
        assert result.runtime_seconds > 0.0


class TestPartialFlows:
    def test_until_schedule_stops_before_dft(self):
        ctx = Steac().context(small_soc())
        Pipeline.default().until("schedule").run(ctx)
        assert ctx.schedule is not None
        assert ctx.netlist is None
        assert ctx.wrappers == {}

    def test_since_resumes_on_same_context(self):
        ctx = Steac().context(small_soc())
        Pipeline.default().until("schedule").run(ctx)
        Pipeline.default().since("insert_dft").run(ctx)
        assert ctx.netlist is not None
        assert ctx.netlist.top.validate(ctx.netlist) == []

    def test_schedule_only_flow_derives_tasks(self):
        """A flow starting at the scheduler still works on a bare SOC."""
        soc = Soc("bare", test_pins=24)
        soc.add_core(build_demo_core(patterns=3))
        ctx = FlowContext(soc=soc)
        Pipeline([Schedule()]).run(ctx)
        assert ctx.schedule.total_time > 0

    def test_stage_timing_is_not_control_state(self):
        """Only ``tasks is None`` makes the scheduler derive tasks: a
        timing entry for ``compile_bist`` does not stop it."""
        soc = Soc("bare", test_pins=24)
        soc.add_core(build_demo_core(patterns=3))
        ctx = FlowContext(soc=soc)
        assert ctx.tasks is None
        ctx.stage_seconds["compile_bist"] = 0.0
        Schedule().run(ctx)
        assert [t.name for t in ctx.tasks] == [t.name for t in tasks_from_soc(soc)]
        assert ctx.schedule.total_time > 0

    def test_dft_before_schedule_fails_fast(self):
        ctx = Steac().context(small_soc())
        with pytest.raises(MissingArtifactError):
            Pipeline.default().since("insert_dft").run(ctx)

    def test_until_unknown_stage_name(self):
        with pytest.raises(KeyError, match="floorplan"):
            Pipeline.default().until("floorplan")

    def test_since_unknown_stage_name(self):
        with pytest.raises(KeyError, match="floorplan"):
            Pipeline.default().since("floorplan")

    def test_replacing_unknown_stage_name(self):
        class Nop(Stage):
            name = "nop"

            def execute(self, ctx):
                pass

        with pytest.raises(KeyError) as exc:
            Pipeline.default().replacing("floorplan", Nop())
        # the error names the stages that do exist
        assert "parse_stil" in str(exc.value)


class TestComposition:
    def test_replacing_swaps_a_stage(self):
        class SerialSchedule(Stage):
            name = "schedule"

            def execute(self, ctx):
                ctx.schedule = resolve_schedule("serial", ctx.soc, ctx.tasks)

        pipeline = Pipeline.default().replacing("schedule", SerialSchedule())
        ctx = pipeline.run(Steac().context(small_soc()))
        assert ctx.schedule.strategy == "serial"
        assert ctx.netlist is not None  # downstream stages consumed it

    def test_append_operator(self):
        seen = []

        class Audit(Stage):
            name = "audit"

            def execute(self, ctx):
                seen.append(ctx.schedule.total_time)

        pipeline = Pipeline.default() | Audit()
        pipeline.run(Steac().context(small_soc()))
        assert seen and seen[0] > 0

    def test_stages_are_reusable_across_socs(self):
        pipeline = Pipeline.default()
        a = pipeline.run(Steac().context(small_soc()))
        b = pipeline.run(Steac().context(build_dsc_chip()))
        assert a.soc.name != b.soc.name
        assert a.schedule.total_time != b.schedule.total_time


class TestConfigThroughPipeline:
    def test_ilp_selectable_via_config(self):
        soc = Soc("ilp_soc", test_pins=24)
        for i in range(2):
            soc.add_core(build_demo_core(name=f"demo{i}", patterns=3))
        config = SteacConfig(strategy="ilp", compare_strategies=False)
        result = Steac(config).integrate(soc)
        assert result.schedule.strategy == "ilp"
        baseline = Steac(SteacConfig(compare_strategies=False)).integrate(soc)
        assert result.total_test_time <= baseline.total_test_time

    def test_compare_with_empty_disables_comparison(self):
        soc = Soc("nocmp_soc", test_pins=24)
        soc.add_core(build_demo_core(patterns=3))
        result = Steac(SteacConfig(compare_with=())).integrate(soc)
        assert result.comparison == {}

    def test_underscore_core_names_wire_the_tam_mux(self):
        """Regression: the mux-input hookup used to parse the core name
        out of the port string, miswiring cores with '_' in the name."""
        soc = Soc("uscore_soc", test_pins=24)
        soc.add_core(build_demo_core(name="core_x", patterns=3))
        result = Steac(SteacConfig(compare_strategies=False)).integrate(soc)
        top = result.netlist.top
        mux_inst = next(i for i in top.instances if i.name == "u_tam_mux")
        wrap_inst = next(i for i in top.instances if i.name == "u_wrap_core_x")
        wpo_nets = {n for p, n in wrap_inst.conns.items() if p.startswith("wpo")}
        mux_data_nets = {
            n for p, n in mux_inst.conns.items()
            if not p.startswith("sel") and not p.startswith("tam_out")
        }
        assert mux_data_nets and mux_data_nets <= wpo_nets

    def test_compare_with_extends_comparison(self):
        soc = Soc("cmp_soc", test_pins=24)
        soc.add_core(build_demo_core(patterns=3))
        config = SteacConfig(compare_with=("session", "serial", "ilp"))
        result = Steac(config).integrate(soc)
        assert set(result.comparison) == {"session", "serial", "ilp"}
        assert result.comparison["ilp"] is not None
