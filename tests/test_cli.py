"""Tests for the ``python -m repro`` command shell."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestCli:
    def test_march_listing(self, capsys):
        assert main(["march"]) == 0
        out = capsys.readouterr().out
        assert "March C-" in out
        assert "10N" in out

    def test_march_retention(self, capsys):
        assert main(["march", "--retention"]) == 0
        assert "+ret" in capsys.readouterr().out

    def test_coverage_table(self, capsys):
        assert main(["coverage", "--size", "8", "--pairs", "4"]) == 0
        out = capsys.readouterr().out
        assert "SAF%" in out

    @pytest.mark.parametrize("argv, message", [
        (["--size", "0"], "--size must be at least 2, got 0"),
        (["--size", "-3"], "--size must be at least 2, got -3"),
        (["--size", "1"], "--size must be at least 2, got 1"),
        (["--pairs", "-1"], "--pairs must be non-negative, got -1"),
    ])
    def test_coverage_rejects_bad_sizes(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", *argv])
        assert exc.value.code == message
        assert capsys.readouterr().out == ""

    def test_coverage_bad_size_exit_status(self):
        """A one-line message and exit status 1, no traceback."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "coverage", "--size", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert proc.stderr == "--size must be at least 2, got 1\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["dsc", "--pins", "0"], "dsc: test pin budget must be positive, got 0"),
        (["dsc", "--power", "-3"], "dsc: power budget must be non-negative, got -3.0"),
        (["d695", "--pins", "0"], "d695: test pin budget must be positive, got 0"),
        (["d695", "--pins", "-4"], "d695: test pin budget must be positive, got -4"),
    ])
    def test_bad_budget_option_rejected(self, capsys, argv, message):
        """``dsc --pins 0`` and ``d695 --pins 0`` used to print a
        traceback and ``dsc --power -3`` to integrate."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["d695", "--pins", "1"], "d695: no feasible session schedule for 'd695' with 1 pins "
                                  "(tried [2, 3, 4, 5, 6, 7, 8, 9] sessions)"),
        (["dsc", "--pins", "2"], "dsc: no feasible session schedule for 'dsc_controller' "
                                 "with 2 pins (tried [4, 5, 6, 7, 8] sessions)"),
    ])
    def test_infeasible_pin_budget_exits_with_message(self, argv, message):
        """A budget no schedule fits used to end in a traceback."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert proc.stderr == message + "\n"
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_d695_schedule(self, capsys):
        assert main(["d695", "--pins", "48"]) == 0
        out = capsys.readouterr().out
        assert "total test time" in out

    def test_dsc_report(self, capsys):
        assert main(["dsc"]) == 0
        out = capsys.readouterr().out
        assert "DFT area overhead" in out
        assert "Scheduling comparison" in out

    def test_dsc_verilog_to_file(self, capsys, tmp_path):
        target = tmp_path / "dft.v"
        assert main(["dsc", "--verilog", str(target)]) == 0
        assert target.exists()
        assert "endmodule" in target.read_text()

    def test_d695_strategy_flag(self, capsys):
        assert main(["d695", "--pins", "48", "--strategy", "serial"]) == 0
        out = capsys.readouterr().out
        assert "serial schedule" in out

    def test_strategies_lists_both_registries(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("session", "nonsession", "serial", "ilp", "exact", "greedy"):
            assert f"  {name}" in out
        assert "repair allocators" in out

    def test_repair_report(self, capsys):
        assert main(["repair", "--trials", "20", "--model-rows", "16"]) == 0
        out = capsys.readouterr().out
        assert "Diagnosis & repair" in out
        assert "Monte-Carlo repair rate" in out
        assert "fb0" in out

    def test_strategy_help_lists_ilp(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dsc", "--help"])
        assert exc.value.code == 0
        assert "ilp" in capsys.readouterr().out

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["dsc", "--strategy", "magic"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["dsc", "--power", "nan"],
        ["dsc", "--power", "inf", "--json"],
        ["dsc", "--power=-Infinity"],
        ["repair", "--defect-density", "nan", "--trials", "2"],
    ])
    def test_non_finite_float_option_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a finite number" in captured.err


class TestJsonOutput:
    def test_dsc_json_is_schema_v2(self, capsys):
        assert main(["dsc", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/integration-result/v4"
        assert doc["soc"]["name"] == "dsc_controller"
        assert doc["schedule"]["total_time"] > 0
        assert doc["schedule"]["sessions"]

    def test_d695_json_schedule(self, capsys):
        assert main(["d695", "--pins", "48", "--strategy", "serial", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/schedule-result/v1"
        assert doc["strategy"] == "serial"
        assert doc["total_time"] > 0
        assert doc["sessions"][0]["tests"]

    def test_repair_json_report(self, capsys):
        assert main([
            "repair", "--trials", "25", "--model-rows", "16", "--seed", "3", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/repair-report/v1"
        assert doc["soc"] == "dsc_controller"
        assert len(doc["memories"]) == 22
        memory = doc["memories"][0]
        assert memory["bitmap"]["fail_count"] >= 0
        assert set(memory["allocation"]) == {
            "solver", "repairable", "rows", "cols", "spares_used",
        }
        mc = doc["monte_carlo"]
        assert mc["trials"] == 25
        assert 0.0 <= mc["repair_rate"] <= 1.0

    def test_repair_json_reproducible(self, capsys):
        args = ["repair", "--trials", "15", "--model-rows", "16", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_repair_unknown_allocator_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["repair", "--trials", "5", "--allocator", "magic"])

    def test_repair_one_sided_spare_flag_keeps_other_default(self, capsys):
        """--spare-rows alone must not zero the spare columns (the other
        side keeps the documented default of 2)."""
        assert main([
            "repair", "--trials", "10", "--model-rows", "16",
            "--spare-rows", "4", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spares"] == {"rows": 4, "cols": 2}
        assert doc["memories"][0]["spares"] == {"rows": 4, "cols": 2}

    def test_dsc_json_with_verilog_file(self, capsys, tmp_path):
        """--json stays pure JSON on stdout even when a Verilog file is
        also written."""
        target = tmp_path / "dft.v"
        assert main(["dsc", "--json", "--verilog", str(target)]) == 0
        doc = json.loads(capsys.readouterr().out)  # would raise on extra prose
        assert doc["schema"] == "repro/integration-result/v4"
        assert "endmodule" in target.read_text()


class TestGenerateCommand:
    def test_soc_text_output(self, capsys):
        assert main(["generate", "--seed", "7", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SocName gen_tiny_s7_0")
        assert "Module c0" in out

    def test_text_parses_back(self, capsys):
        from repro.soc.itc02 import parse_soc

        assert main(["generate", "--seed", "3", "--profile", "small"]) == 0
        name, modules = parse_soc(capsys.readouterr().out)
        assert name == "gen_small_s3_0" and modules

    def test_json_shape(self, capsys):
        assert main(["generate", "--seed", "2", "--profile", "tiny",
                     "--count", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/generated-soc/v1"
        assert doc["profile"] == "tiny" and doc["seed"] == 2
        assert len(doc["socs"]) == 2
        for soc in doc["socs"]:
            assert soc["cores"] >= 2 and soc["test_pins"] > 0
            assert soc["soc_text"].startswith("SocName ")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "chip.soc"
        assert main(["generate", "--seed", "1", "--out", str(target)]) == 0
        assert target.read_text().startswith("SocName gen_small_s1_0")
        assert "wrote 1 SOC(s)" in capsys.readouterr().out

    def test_multi_count_text_writes_one_file_per_chip(self, capsys, tmp_path):
        """Concatenated .soc documents would mis-parse as one chip, so
        each chip gets its own file."""
        from repro.soc.itc02 import parse_soc

        target = tmp_path / "corpus.soc"
        assert main(["generate", "--seed", "1", "--profile", "tiny",
                     "--count", "2", "--out", str(target)]) == 0
        for index in range(2):
            path = tmp_path / f"corpus_{index}.soc"
            name, modules = parse_soc(path.read_text())
            assert name == f"gen_tiny_s1_{index}" and modules

    def test_multi_count_text_to_stdout_rejected(self):
        with pytest.raises(SystemExit, match="--json"):
            main(["generate", "--seed", "1", "--count", "2"])

    def test_json_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "gen.json"
        assert main(["generate", "--seed", "2", "--json", "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "repro/generated-soc/v1"

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "--profile", "gigantic"])

    def test_determinism_across_invocations(self, capsys):
        assert main(["generate", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first


class TestFuzzCommand:
    def test_clean_run_exit_zero(self, capsys):
        assert main(["fuzz", "--seeds", "3", "--profile", "tiny",
                     "--strategies", "session", "serial"]) == 0
        out = capsys.readouterr().out
        assert "differential fuzz" in out
        assert "clean" in out

    def test_json_report_shape(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--profile", "tiny",
                     "--strategies", "session", "serial", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/fuzz-report/v2"
        assert doc["ok"] is True and doc["violation_count"] == 0
        assert doc["warning_count"] == 0
        # v2 records the resolved execution coordinates
        assert doc["backend"] == "serial" and doc["workers"] == 1
        assert doc["ilp_max_tasks"] == 6
        assert doc["seeds"] == 2 and len(doc["scenarios"]) == 2
        scenario = doc["scenarios"][0]
        assert scenario["roundtrip_ok"] is True
        assert scenario["lower_bound"] > 0
        for cell in scenario["strategies"].values():
            assert cell["ok"] is True
            assert cell["errors"] == [] and cell["warnings"] == []
            assert cell["total_time"] >= scenario["lower_bound"]

    def test_parallel_backends_match_serial(self, capsys):
        """`fuzz --backend process` must emit exactly the serial report:
        the sweep only ships (profile, seed) coordinates.  Since v2 the
        report records its own resolved backend/workers, so those two
        keys (and only those) legitimately differ."""
        base = ["fuzz", "--seeds", "3", "--profile", "tiny",
                "--strategies", "session", "serial", "--json"]
        assert main(base) == 0
        expected = json.loads(capsys.readouterr().out)
        assert main(base + ["--backend", "process", "--workers", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("backend") == "process" and doc.pop("workers") == 2
        assert expected.pop("backend") == "serial"
        assert expected.pop("workers") == 1
        assert doc == expected

    def test_ilp_gated_by_task_count(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--profile", "small",
                     "--strategies", "ilp", "--ilp-max-tasks", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for scenario in doc["scenarios"]:
            assert "skipped" in scenario["strategies"]["ilp"]

    def test_violations_set_exit_code(self, capsys):
        """A deliberately broken plugin strategy must be caught and turn
        the exit code — the differential harness's whole point."""
        from repro.sched import SharingPolicy
        from repro.sched.registry import STRATEGIES, register_scheduler
        from repro.sched.session import schedule_serial

        @register_scheduler("lossy")
        def lossy(soc, tasks, *, n_sessions=None, policy=None):
            return schedule_serial(soc, tasks[1:], policy=policy or SharingPolicy())

        try:
            assert main(["fuzz", "--seeds", "2", "--profile", "tiny",
                         "--strategies", "lossy"]) == 1
            out = capsys.readouterr().out
            assert "VIOLATED" in out
            assert "task-coverage" in out
            assert "reproduce a chip with" in out
        finally:
            STRATEGIES.pop("lossy", None)

    def test_violations_set_exit_code_json(self, capsys):
        """--json must carry the verdict in-band (ok=false,
        violation_count>0) and still exit 1."""
        from repro.sched import SharingPolicy
        from repro.sched.registry import STRATEGIES, register_scheduler
        from repro.sched.session import schedule_serial

        @register_scheduler("lossy")
        def lossy(soc, tasks, *, n_sessions=None, policy=None):
            return schedule_serial(soc, tasks[1:], policy=policy or SharingPolicy())

        try:
            assert main(["fuzz", "--seeds", "2", "--profile", "tiny",
                         "--strategies", "lossy", "--json"]) == 1
            doc = json.loads(capsys.readouterr().out)
            assert doc["ok"] is False
            assert doc["violation_count"] > 0
        finally:
            STRATEGIES.pop("lossy", None)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--seeds", "1", "--strategies", "magic"])

    def test_zero_seeds_rejected(self):
        """An empty corpus must not report a vacuous 'clean' exit 0."""
        with pytest.raises(SystemExit):
            main(["fuzz", "--seeds", "0"])

    def test_crashing_strategy_recorded_not_fatal(self, capsys):
        """A plugin scheduler that raises must become a reported
        violation with replay coordinates, not a sweep-killing traceback."""
        from repro.sched.registry import STRATEGIES, register_scheduler

        @register_scheduler("explosive")
        def explosive(soc, tasks, *, n_sessions=None, policy=None):
            raise ZeroDivisionError("boom")

        try:
            assert main(["fuzz", "--seeds", "2", "--profile", "tiny",
                         "--strategies", "explosive", "session"]) == 1
            out = capsys.readouterr().out
            assert "CRASHED" in out
            assert "ZeroDivisionError: boom" in out
            assert "reproduce a chip with" in out
        finally:
            STRATEGIES.pop("explosive", None)


class TestBatchCommand:
    def test_default_sweep(self, capsys):
        assert main(["batch", "dsc:24", "dsc:28", "d695:48", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch integration: 3 SOCs" in out
        assert "d695" in out

    def test_batch_json(self, capsys):
        assert main(["batch", "dsc:24", "dsc:28", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/batch-result/v4"
        assert doc["ok"] is True
        assert len(doc["items"]) == 2
        assert [i["index"] for i in doc["items"]] == [0, 1]

    @pytest.mark.parametrize("spec", ["dsc:24:nan", "dsc:24:inf", "gen-tiny-3:64:-inf"])
    def test_non_finite_power_spec_rejected(self, capsys, spec):
        with pytest.raises(SystemExit, match="is not a finite number"):
            main(["batch", spec])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("spec, reason", [
        ("dsc:0", "test pin budget must be positive, got 0"),
        ("d695:48:-3", "power budget must be non-negative, got -3.0"),
        ("gen-tiny-3:0", "test pin budget must be positive, got 0"),
    ])
    def test_bad_budget_spec_rejected(self, capsys, spec, reason):
        """``dsc:0`` used to print a traceback, ``d695:48:-3`` to
        integrate and ``gen-tiny-3:0`` to fail later as infeasible."""
        with pytest.raises(SystemExit) as exc:
            main(["batch", spec])
        assert exc.value.code == f"bad SOC spec {spec!r}: {reason}"
        assert capsys.readouterr().out == ""

    def test_bad_budget_spec_exit_status(self):
        """A one-line message and exit status 1, no traceback."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "batch", "dsc:0"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert proc.stderr == "bad SOC spec 'dsc:0': test pin budget must be positive, got 0\n"

    def test_batch_failure_sets_exit_code(self, capsys):
        assert main(["batch", "dsc:28", "dsc:6"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_generated_spec_and_verify_flag(self, capsys):
        assert main(["batch", "gen-tiny-3", "gen-tiny-4:64", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "gen_tiny_s3_0" in out and "gen_tiny_s4_0" in out
        assert "Invariants" in out and "clean" in out

    def test_verify_violation_sets_exit_code(self, capsys):
        """``batch --verify`` under a schedule-dropping strategy must
        exit non-zero — scripts gate on it."""
        from repro.sched import SharingPolicy
        from repro.sched.registry import STRATEGIES, register_scheduler
        from repro.sched.session import schedule_serial

        @register_scheduler("lossy")
        def lossy(soc, tasks, *, n_sessions=None, policy=None):
            return schedule_serial(soc, tasks[1:], policy=policy or SharingPolicy())

        try:
            assert main(["batch", "dsc:28", "--strategy", "lossy",
                         "--verify"]) == 1
            assert "1 violations" in capsys.readouterr().out
        finally:
            STRATEGIES.pop("lossy", None)

    def test_verify_violation_json_exit_code(self, capsys):
        """The --json variant must agree with the human one: ok=false
        in the document AND exit 1."""
        from repro.sched import SharingPolicy
        from repro.sched.registry import STRATEGIES, register_scheduler
        from repro.sched.session import schedule_serial

        @register_scheduler("lossy")
        def lossy(soc, tasks, *, n_sessions=None, policy=None):
            return schedule_serial(soc, tasks[1:], policy=policy or SharingPolicy())

        try:
            assert main(["batch", "dsc:28", "--strategy", "lossy",
                         "--verify", "--json"]) == 1
            doc = json.loads(capsys.readouterr().out)
            assert doc["ok"] is False
            assert doc["items"][0]["verification_ok"] is False
        finally:
            STRATEGIES.pop("lossy", None)

    def test_generated_spec_json_carries_verification(self, capsys):
        assert main(["batch", "gen-tiny-5", "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        verification = doc["items"][0]["result"]["verification"]
        assert verification["ok"] is True
        assert "pin-budget" in verification["rules_checked"]

    def test_without_verify_no_report(self, capsys):
        assert main(["batch", "gen-tiny-5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["items"][0]["result"]["verification"] is None

    def test_backend_flag_process(self, capsys):
        assert main(["batch", "gen-tiny-3", "gen-tiny-4", "--backend", "process",
                     "--workers", "2", "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "process" and doc["workers"] == 2
        assert doc["ok"] is True

    def test_backend_flag_serial(self, capsys):
        assert main(["batch", "dsc:28", "--backend", "serial", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "serial"

    def test_unknown_backend_rejected(self):
        for backend in ("greenlet", "thread"):
            with pytest.raises(SystemExit) as exc:
                main(["batch", "gen-tiny-1", "--backend", backend])
            assert exc.value.code == 2

    def test_bad_generated_spec_rejected(self):
        for spec in ("gen-gigantic-3", "gen-tiny-x", "gen-tiny"):
            with pytest.raises(SystemExit):
                main(["batch", spec])

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["batch", "nosuchchip:28"])

    def test_malformed_spec_numbers_rejected(self):
        for spec in ("dsc:abc", "dsc:24:heavy", "dsc:24:8.0:junk"):
            with pytest.raises(SystemExit):
                main(["batch", spec])

    def test_json_refuses_verilog_on_stdout(self):
        """--json with --verilog in stdout mode would corrupt the JSON."""
        with pytest.raises(SystemExit):
            main(["dsc", "--json", "--verilog"])
