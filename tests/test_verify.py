"""Tests for :mod:`repro.verify`: the invariant checker must accept
every legal schedule and — just as important — *reject* broken ones."""

import copy
import dataclasses

import pytest

from repro.core import CompileBist, FlowContext, Steac, SteacConfig
from repro.gen import SocGenerator
from repro.sched import (
    SharingPolicy,
    forced_session_floor,
    resolve_schedule,
    schedule_lower_bound,
    task_floor_time,
    tasks_from_soc,
)
from repro.soc import MemorySpec, Soc
from repro.soc.demo import build_demo_core
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc
from repro.verify import (
    InvariantViolationError,
    VerificationReport,
    Violation,
    policy_for_strategy,
    verify_integration,
    verify_schedule,
)


def compiled(soc):
    """``soc`` and its tasks, BIST groups included (CompileBist)."""
    ctx = FlowContext(soc=soc)
    CompileBist().run(ctx)
    return soc, ctx.tasks


def small_case():
    return compiled(SocGenerator(1, "small").generate())


class TestReport:
    def test_clean_report_renders_ok(self):
        report = VerificationReport(soc_name="x", strategy="s")
        report.check("core-mutex")
        assert report.ok
        assert "OK" in report.render()
        assert report.to_dict()["rules_checked"] == ["core-mutex"]

    def test_error_flips_ok_warning_does_not(self):
        report = VerificationReport(soc_name="x")
        report.add("r", "s", "warn only", severity="warning")
        assert report.ok and len(report.warnings) == 1
        report.add("r", "s", "broken")
        assert not report.ok and len(report.errors) == 1
        assert "FAIL" in report.render()

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Violation("r", "s", "m", severity="fatal")


class TestAcceptsLegalSchedules:
    @pytest.mark.parametrize("strategy", ["session", "nonsession", "serial"])
    def test_clean_on_real_chips(self, strategy):
        for soc in (build_dsc_chip(), d695_soc(test_pins=48)):
            tasks = tasks_from_soc(soc)
            result = resolve_schedule(strategy, soc, tasks)
            report = verify_schedule(soc, result, tasks=tasks)
            assert report.ok, report.render()

    def test_clean_on_generated_chip_with_bist(self):
        soc, tasks = small_case()
        for strategy in ("session", "nonsession", "serial"):
            result = resolve_schedule(strategy, soc, tasks)
            report = verify_schedule(soc, result, tasks=tasks)
            assert report.ok, report.render()

    def test_policy_inferred_from_strategy_name(self):
        assert policy_for_strategy("non-session") == SharingPolicy.none()
        assert policy_for_strategy("session-based") == SharingPolicy()
        assert policy_for_strategy("some-plugin") == SharingPolicy()


class TestRejectsBrokenSchedules:
    def broken(self, strategy="serial"):
        soc, tasks = small_case()
        result = resolve_schedule(strategy, soc, tasks)
        return soc, tasks, copy.deepcopy(result)

    def rules_hit(self, report):
        return {v.rule for v in report.errors}

    def test_dropped_task_caught(self):
        soc, tasks, result = self.broken()
        result.sessions = result.sessions[1:]
        report = verify_schedule(soc, result, tasks=tasks)
        assert "task-coverage" in self.rules_hit(report)

    def test_duplicated_task_caught(self):
        soc, tasks, result = self.broken()
        result.sessions[0].tests.append(result.sessions[1].tests[0])
        report = verify_schedule(soc, result, tasks=tasks)
        assert "task-coverage" in self.rules_hit(report)

    def dsc_serial(self):
        """DSC's serial schedule (with its BIST groups) and its placed
        tests by name: one test per session, so any moved start overlaps."""
        soc, tasks = compiled(build_dsc_chip())
        result = resolve_schedule("serial", soc, tasks)
        placed = {t.task.name: t for s in result.sessions for t in s.tests}
        return soc, tasks, result, placed

    def hit_with_and_without_power(self, soc, result, tasks):
        """Rules hit under the chip's power budget and with it lifted:
        a moved test also overlaps the next session's power."""
        unlimited = dataclasses.replace(soc, power_budget=0.0)
        return (self.rules_hit(verify_schedule(soc, result, tasks=tasks)),
                self.rules_hit(verify_schedule(unlimited, result, tasks=tasks)))

    def test_core_mutex_overlap_caught(self):
        soc, tasks, result, placed = self.dsc_serial()
        # two tests of one core (TV) overlap in time
        placed["TV.tv_func"].start = placed["TV.tv_scan"].start
        hit, alone = self.hit_with_and_without_power(soc, result, tasks)
        assert hit == {"core-mutex", "power-ceiling"}
        assert alone == {"core-mutex"}

    def test_bist_mutex_overlap_caught_without_core_mutex(self):
        soc, tasks, result, placed = self.dsc_serial()
        # two BIST groups overlap on the one engine; they hold no core
        placed["MBIST.g1"].start = placed["MBIST.g0"].start
        hit, alone = self.hit_with_and_without_power(soc, result, tasks)
        assert hit == {"bist-mutex", "power-ceiling"}
        assert alone == {"bist-mutex"}

    def test_functional_mutex_overlap_caught(self):
        soc, tasks, result, placed = self.dsc_serial()
        # two cores' functional tests overlap on the chip functional pins
        placed["JPEG.jpeg_func"].start = placed["TV.tv_func"].start
        hit, alone = self.hit_with_and_without_power(soc, result, tasks)
        assert hit == {"functional-mutex", "power-ceiling"}
        assert alone == {"functional-mutex"}

    def test_recorded_pins_beyond_budget_caught(self):
        soc, tasks, result, _ = self.dsc_serial()
        result.sessions[0].data_pins = soc.test_pins
        report = verify_schedule(soc, result, tasks=tasks)
        assert self.rules_hit(report) == {"accounting"}
        assert report.errors[0].subject == "session 0"

    def test_impossible_makespan_caught(self):
        soc, tasks, result = self.broken()
        result.total_time = 1
        report = verify_schedule(soc, result, tasks=tasks)
        assert "makespan" in self.rules_hit(report)

    def test_width_beyond_max_caught(self):
        soc, tasks, result = self.broken("session")
        for session in result.sessions:
            for test in session.tests:
                if test.task.is_scan:
                    test.width = test.task.max_width + 5
                    report = verify_schedule(soc, result)
                    assert "session-structure" in self.rules_hit(report)
                    return
        pytest.skip("no scan test in this draw")

    def test_power_ceiling_violation_caught(self):
        soc, tasks, result = self.broken("session")
        soc.power_budget = 1e-3  # nothing fits anymore
        report = verify_schedule(soc, result)
        assert "power-ceiling" in self.rules_hit(report)

    def test_pin_budget_violation_caught(self):
        soc, tasks, result = self.broken("session")
        soc.test_pins = 3  # nothing fits anymore
        report = verify_schedule(soc, result)
        assert "pin-budget" in self.rules_hit(report)

    def test_non_dense_session_indices_caught(self):
        soc, tasks, result = self.broken()
        result.sessions[0].index = 7
        report = verify_schedule(soc, result)
        assert "session-structure" in self.rules_hit(report)


class TestExclusionRule:
    """One rule decides which tasks may not overlap: TestTask.exclusive."""

    def test_exclusive_resources(self):
        by_name = {t.name: t for t in compiled(build_dsc_chip())[1]}
        assert by_name["USB.usb_scan"].exclusive == ("core:USB",)
        assert by_name["TV.tv_func"].exclusive == ("core:TV", "functional")
        assert by_name["MBIST.g0"].exclusive == ("bist",)
        assert by_name["MBIST.g0"].core_name == "MBIST"  # a label, not a held core

    @staticmethod
    def chip_with_memory(core):
        soc = Soc("chip", test_pins=32)
        soc.add_core(build_demo_core(core, patterns=50))
        soc.add_memory(MemorySpec("m0", words=64, bits=8))
        return soc

    @pytest.mark.parametrize("core", ["MBIST", "cpu"])
    def test_core_named_mbist_shares_nothing_with_bist_groups(self, core):
        """A core named like the BIST groups' label used to share their
        mutex: 2 sessions and 992 cycles instead of 1 and 656."""
        flow = Steac(SteacConfig(verify_schedule=True)).integrate(
            self.chip_with_memory(core)
        )
        assert flow.schedule.session_count == 1
        assert flow.schedule.total_time == 656
        assert flow.verification.ok and not flow.verification.violations

    def test_every_strategy_and_bound_ignores_the_label(self):
        def outcomes(core):
            soc, tasks = compiled(self.chip_with_memory(core))
            runs = [resolve_schedule(s, soc, tasks)
                    for s in ("session", "nonsession", "serial", "ilp")]
            return ([schedule_lower_bound(soc, tasks), forced_session_floor(tasks)]
                    + [(r.session_count, r.total_time) for r in runs])

        assert outcomes("MBIST") == outcomes("cpu")


class TestLowerBound:
    def test_no_strategy_beats_the_bound_on_d695(self):
        soc = d695_soc(test_pins=48)
        tasks = tasks_from_soc(soc)
        bound = schedule_lower_bound(soc, tasks)
        assert bound > 0
        for strategy in ("session", "nonsession", "serial"):
            assert resolve_schedule(strategy, soc, tasks).total_time >= bound

    def test_bound_at_least_bottleneck_task(self):
        soc = d695_soc(test_pins=48)
        tasks = tasks_from_soc(soc)
        bottleneck = max(task_floor_time(t, soc.test_pins) for t in tasks)
        assert schedule_lower_bound(soc, tasks) >= bottleneck

    def test_empty_tasks_bound_is_zero(self):
        assert schedule_lower_bound(d695_soc(), []) == 0

    def test_more_pins_never_raise_the_bound(self):
        tasks48 = tasks_from_soc(d695_soc(test_pins=48))
        tasks96 = tasks_from_soc(d695_soc(test_pins=96))
        assert schedule_lower_bound(
            d695_soc(test_pins=96), tasks96
        ) <= schedule_lower_bound(d695_soc(test_pins=48), tasks48)


class TestPipelineIntegration:
    def test_verify_stage_attaches_report(self):
        result = Steac(SteacConfig(
            compare_strategies=False, verify_schedule=True
        )).integrate(build_dsc_chip())
        assert result.verification is not None
        assert result.verification.ok, result.verification.render()
        assert "wrapper-balance" in result.verification.rules_checked
        assert result.to_dict()["verification"]["ok"] is True
        assert "verify" in result.stage_seconds

    def test_default_flow_has_no_report(self):
        result = Steac(SteacConfig(compare_strategies=False)).integrate(
            build_dsc_chip()
        )
        assert result.verification is None
        assert result.to_dict()["verification"] is None

    def test_verify_integration_on_bare_result(self):
        result = Steac(SteacConfig(compare_strategies=False)).integrate(
            build_dsc_chip()
        )
        report = verify_integration(result)
        assert report.ok, report.render()
        assert "wrapper-balance" in report.rules_checked

    def test_verify_integration_checks_the_flows_tasks(self):
        """The result carries the tasks the scheduler was given, so a task
        dropped from a finished schedule is a coverage error."""
        result = Steac(SteacConfig(compare_strategies=False)).integrate(
            build_dsc_chip()
        )
        session = next(s for s in result.schedule.sessions if len(s.tests) > 1)
        dropped = session.tests.pop()
        report = verify_integration(result)
        assert [(v.rule, v.subject) for v in report.errors] == [
            ("task-coverage", dropped.task.name)
        ]

    def test_verify_integration_checks_translation_from_the_flow(self):
        """Pattern data parsed from STIL is part of the flow, so the
        translated programs are checked with no extra argument."""
        from repro.atpg import generate_scan_patterns
        from repro.soc.demo import build_demo_core_module
        from repro.stil import core_to_stil

        atpg = generate_scan_patterns(build_demo_core_module(), build_demo_core())
        stil = core_to_stil(build_demo_core(patterns=atpg.pattern_count), atpg.patterns)
        result = Steac().integrate(Soc("chip", test_pins=16), stil_texts={"demo": stil})
        assert set(result.pattern_data) == {"demo"}
        report = verify_integration(result)
        assert report.ok, report.render()
        assert "translation" in report.rules_checked
        result.programs["demo.scan"].cycles.pop()
        report = verify_integration(result)
        assert [(v.rule, v.subject) for v in report.errors] == [
            ("translation", "demo.scan")
        ]

    def test_strict_mode_raises_on_violation(self):
        soc, tasks = small_case()
        config = SteacConfig(compare_strategies=False, verify_schedule=True,
                             verify_strict=True)
        result = Steac(config).integrate(soc)  # clean chip passes strict
        assert result.verification.ok

        # sabotage: a scheduler plugin that drops every other task
        from repro.sched.registry import STRATEGIES, register_scheduler

        @register_scheduler("lossy")
        def lossy(soc, tasks, *, n_sessions=None, policy=None):
            from repro.sched.session import schedule_serial

            return schedule_serial(soc, tasks[::2], policy=policy or SharingPolicy())

        try:
            with pytest.raises(InvariantViolationError, match="missing"):
                Steac(SteacConfig(
                    compare_strategies=False, verify_schedule=True,
                    verify_strict=True, strategy="lossy",
                )).integrate(soc)
        finally:
            STRATEGIES.pop("lossy", None)

    def test_batch_surfaces_verification(self):
        socs = [SocGenerator(s, "tiny").generate() for s in range(3)]
        config = SteacConfig(compare_strategies=False, verify_schedule=True)
        batch = Steac(config).integrate_many(socs, workers=2)
        assert batch.ok and batch.verified_ok
        assert all(item.verification_ok is True for item in batch)
        assert "Invariants" in batch.render()
        doc = batch.to_dict()
        assert doc["ok"] is True
        assert doc["items"][0]["verification_ok"] is True
        assert doc["items"][0]["result"]["verification"]["ok"] is True

    def test_batch_ok_reflects_dirty_verification(self):
        """An invariant-dirty (but not strict) flow keeps the *item* ok
        — the chip integrated — but flips ``verified_ok`` and therefore
        the batch-level ``ok`` (object, document, and CLI exit code all
        agree)."""
        from repro.sched.registry import STRATEGIES, register_scheduler
        from repro.sched.session import schedule_serial

        @register_scheduler("lossy-batch")
        def lossy(soc, tasks, *, n_sessions=None, policy=None):
            return schedule_serial(soc, tasks[1:], policy=policy or SharingPolicy())

        try:
            config = SteacConfig(compare_strategies=False, verify_schedule=True,
                                 strategy="lossy-batch")
            batch = Steac(config).integrate_many(
                [SocGenerator(0, "tiny").generate()]
            )
            assert batch.items[0].ok  # the flow itself completed
            assert not batch.verified_ok
            assert batch.items[0].verification_ok is False
            assert not batch.ok  # ...but the batch gate is dirty
            doc = batch.to_dict()
            assert doc["ok"] is False
            assert doc["items"][0]["ok"] is True
            assert doc["items"][0]["verification_ok"] is False
            assert "violations" in batch.render()
        finally:
            STRATEGIES.pop("lossy-batch", None)
