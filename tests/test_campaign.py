"""Tests for resumable checkpointed fuzz campaigns
(:mod:`repro.gen.campaign`) and the greedy failure shrinker
(:mod:`repro.gen.shrink`)."""

import copy
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.gen.campaign import (
    CAMPAIGN_REPORT_SCHEMA,
    Campaign,
    CampaignConfig,
    CampaignInterrupted,
    _config_digest,
    campaign_status,
    load_repro,
    replay_repro,
    resume_campaign,
    run_campaign,
)
from repro.gen.fuzzing import run_fuzz
from repro.gen.generator import SocGenerator
from repro.gen.shrink import (
    ViolationSignature,
    _candidate_ops,
    apply_ops,
    scenario_signatures,
    shrink_scenario,
    shrink_soc,
    signature_fires,
)
from repro.obs import JobProgress
from repro.sched import InfeasibleScheduleError, SharingPolicy
from repro.sched.registry import _REGISTRY, register_scheduler
from repro.sched.session import schedule_serial

ROOT = Path(__file__).resolve().parent.parent


def _strip_runtime(report: dict) -> dict:
    """A campaign report minus the one section resume history changes."""
    out = dict(report)
    out.pop("runtime")
    return out


@pytest.fixture
def broken_strategy():
    """A plugin strategy that crashes unconditionally — every scenario
    yields the same (strategy, crashed, RuntimeError) signature, and the
    shrinker collapses every seed's chip to the same minimal repro."""

    @register_scheduler("broken")
    def broken(soc, tasks, *, n_sessions=None, policy=None):
        raise RuntimeError("deliberate crash")

    yield "broken"
    _REGISTRY.pop("broken", None)


@pytest.fixture
def lossy_strategy():
    """A plugin strategy that silently drops every task but the first —
    the verifier's task-coverage rule fires on any chip with >= 2 tasks."""

    @register_scheduler("lossy")
    def lossy(soc, tasks, *, n_sessions=None, policy=None):
        return schedule_serial(soc, tasks[:1], policy=policy or SharingPolicy())

    yield "lossy"
    _REGISTRY.pop("lossy", None)


@pytest.fixture
def refusing_strategy():
    """A plugin strategy that declares every chip infeasible."""

    @register_scheduler("refusing")
    def refusing(soc, tasks, *, n_sessions=None, policy=None):
        raise InfeasibleScheduleError("deliberate refusal")

    yield "refusing"
    _REGISTRY.pop("refusing", None)


class TestCampaignLifecycle:
    def test_clean_run_report_shape(self, tmp_path):
        report = run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                              chunk_size=2, strategies=["serial"],
                              backend="serial")
        assert report["schema"] == CAMPAIGN_REPORT_SCHEMA
        assert report["ok"] is True and report["complete"] is True
        assert report["scenarios"] == 4
        assert report["violation_count"] == 0 and report["findings"] == []
        assert report["runtime"]["resumes"] == 0
        d = tmp_path / "c"
        assert (d / "campaign.json").exists()
        assert (d / "checkpoint.json").exists()
        assert (d / "report.json").exists()
        lines = (d / "scenarios.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["seed"] == seed
                   for seed, line in enumerate(lines))

    def test_refuses_existing_campaign_dir(self, tmp_path):
        run_campaign(tmp_path / "c", seeds=1, strategies=["serial"],
                     backend="serial")
        with pytest.raises(FileExistsError):
            run_campaign(tmp_path / "c", seeds=1, strategies=["serial"],
                         backend="serial")

    def test_open_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Campaign.open(tmp_path / "nothing")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(seeds=0)
        with pytest.raises(ValueError):
            CampaignConfig(chunk_size=0)

    def test_status_snapshot(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            Campaign.create(
                tmp_path / "c",
                CampaignConfig(profile="tiny", seeds=4, chunk_size=2,
                               strategies=("serial",), backend="serial"),
            ).run(max_chunks=1)
        doc = campaign_status(tmp_path / "c")
        assert doc["complete"] is False
        assert doc["done"] == 2 and doc["total"] == 4
        assert doc["resumes"] == 0


class TestResume:
    def test_max_chunks_pause_then_resume_matches_clean_run(self, tmp_path):
        """The deterministic interrupt: a campaign paused at a chunk
        barrier and resumed must emit the clean run's report and
        scenario log bit-for-bit (modulo the runtime section)."""
        clean = run_campaign(tmp_path / "clean", profile="tiny", seeds=6,
                             chunk_size=2, strategies=["serial", "session"],
                             backend="serial")
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "paused", profile="tiny", seeds=6,
                         chunk_size=2, strategies=["serial", "session"],
                         backend="serial", max_chunks=1)
        resumed = resume_campaign(tmp_path / "paused")
        assert _strip_runtime(resumed) == _strip_runtime(clean)
        assert resumed["runtime"]["resumes"] == 1
        assert ((tmp_path / "paused" / "scenarios.jsonl").read_text()
                == (tmp_path / "clean" / "scenarios.jsonl").read_text())

    def test_sigkill_mid_run_then_resume_matches_clean_run(self, tmp_path):
        """The real interrupt: ``kill -9`` mid-chunk loses at most the
        in-flight chunk; resume truncates the half-written log and the
        final report equals an uninterrupted run's (timing excluded)."""
        clean = run_campaign(tmp_path / "clean", profile="tiny", seeds=8,
                             chunk_size=1, strategies=["serial"],
                             backend="serial")
        victim = tmp_path / "victim"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", str(victim),
             "--profile", "tiny", "--seeds", "8", "--chunk-size", "1",
             "--strategies", "serial", "--backend", "serial"],
            env=env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            killed = False
            checkpoint = victim / "checkpoint.json"
            while proc.poll() is None and time.monotonic() < deadline:
                cursor = 0
                if checkpoint.exists():
                    try:
                        cursor = json.loads(checkpoint.read_text())["cursor"]
                    except (json.JSONDecodeError, KeyError):
                        cursor = 0  # mid-replace; retry
                if 0 < cursor < 8:
                    proc.send_signal(signal.SIGKILL)
                    killed = True
                    break
                time.sleep(0.01)
        finally:
            proc.wait(timeout=60)
        # if the subprocess outran the poller the campaign completed and
        # resume is a no-op — the equality below still must hold, but
        # record the intent
        if killed:
            assert not Campaign.open(victim).complete
        resumed = resume_campaign(victim)
        assert _strip_runtime(resumed) == _strip_runtime(clean)
        assert ((victim / "scenarios.jsonl").read_text()
                == (tmp_path / "clean" / "scenarios.jsonl").read_text())

    def test_resume_truncates_half_written_log_lines(self, tmp_path):
        """A crash can leave the scenario log with lines past the
        checkpoint cursor (even a torn partial line); resume drops them
        before re-running so the finished log never duplicates."""
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                         chunk_size=2, strategies=["serial"],
                         backend="serial", max_chunks=1)
        with open(tmp_path / "c" / "scenarios.jsonl", "a") as handle:
            handle.write('{"seed": 2, "torn": true}\n{"seed": 3, "ha')
        report = resume_campaign(tmp_path / "c")
        lines = (tmp_path / "c" / "scenarios.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert [json.loads(line)["seed"] for line in lines] == [0, 1, 2, 3]
        assert "torn" not in lines[2]
        assert report["scenarios"] == 4

    def test_resume_refuses_log_shorter_than_cursor(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                         chunk_size=2, strategies=["serial"],
                         backend="serial", max_chunks=1)
        (tmp_path / "c" / "scenarios.jsonl").write_text("")
        with pytest.raises(ValueError, match="fewer complete lines"):
            resume_campaign(tmp_path / "c")

    def test_resume_of_complete_campaign_is_noop(self, tmp_path):
        first = run_campaign(tmp_path / "c", profile="tiny", seeds=2,
                             strategies=["serial"], backend="serial")
        again = resume_campaign(tmp_path / "c")
        assert _strip_runtime(again) == _strip_runtime(first)
        assert again["runtime"]["resumes"] == 0

    def test_interrupt_mid_chunk_keeps_barrier_checkpoint(self, tmp_path,
                                                          broken_strategy):
        """A Ctrl-C landing *inside* chunk absorption (shrinking runs in
        the main process) must not persist partially-absorbed state: the
        on-disk checkpoint stays at the last barrier, and resume matches
        a clean run with no double-counting."""
        strategies = ("serial", broken_strategy)
        clean = run_campaign(tmp_path / "clean", profile="tiny", seeds=4,
                             chunk_size=2, strategies=list(strategies),
                             backend="serial")
        campaign = Campaign.create(
            tmp_path / "c",
            CampaignConfig(profile="tiny", seeds=4, chunk_size=2,
                           strategies=strategies, backend="serial"),
        )
        real_absorb = campaign._absorb
        absorbed = []

        def absorb_then_interrupt(*args, **kwargs):
            real_absorb(*args, **kwargs)
            absorbed.append(None)
            if len(absorbed) == 3:  # first scenario of the second chunk
                raise KeyboardInterrupt

        campaign._absorb = absorb_then_interrupt
        with pytest.raises(KeyboardInterrupt):
            campaign.run()
        # the interrupt handler re-checkpoints, but only barrier state:
        # chunk 2's partially absorbed duplicate must not be on disk
        checkpoint = json.loads(
            (tmp_path / "c" / "checkpoint.json").read_text()
        )
        assert checkpoint["cursor"] == 2
        assert checkpoint["duplicates"] == 1
        resumed = resume_campaign(tmp_path / "c")
        assert _strip_runtime(resumed) == _strip_runtime(clean)
        assert resumed["duplicates"] == 3

    def test_resume_refuses_edited_definition(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                         chunk_size=2, strategies=["serial"],
                         backend="serial", max_chunks=1)
        config_path = tmp_path / "c" / "campaign.json"
        doc = json.loads(config_path.read_text())
        doc["seeds"] = 400
        config_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="definition changed"):
            resume_campaign(tmp_path / "c")

    def test_resume_refuses_foreign_checkpoint_schema(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                         chunk_size=2, strategies=["serial"],
                         backend="serial", max_chunks=1)
        checkpoint_path = tmp_path / "c" / "checkpoint.json"
        doc = json.loads(checkpoint_path.read_text())
        doc["schema"] = "someone/elses/v9"
        checkpoint_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint schema"):
            resume_campaign(tmp_path / "c")

    def test_resume_refuses_cursor_beyond_seeds(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                         chunk_size=2, strategies=["serial"],
                         backend="serial", max_chunks=1)
        checkpoint_path = tmp_path / "c" / "checkpoint.json"
        doc = json.loads(checkpoint_path.read_text())
        doc["cursor"] = 99
        checkpoint_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="exceeds"):
            resume_campaign(tmp_path / "c")

    def test_process_backend_matches_serial(self, tmp_path):
        """One persistent pool across three chunk barriers: the process
        backend writes the serial run's report (minus its execution
        coordinates) and a byte-identical scenario log."""
        common = dict(profile="tiny", seeds=6, chunk_size=2,
                      strategies=("session", "serial"))
        serial = run_campaign(tmp_path / "serial", backend="serial", **common)
        processed = run_campaign(tmp_path / "process", backend="process",
                                 workers=2, **common)
        assert processed["backend"] == "process" and processed["workers"] == 2
        for report in (serial, processed):
            for key in ("runtime", "backend", "workers"):
                report.pop(key)
        assert processed == serial
        assert ((tmp_path / "process" / "scenarios.jsonl").read_bytes()
                == (tmp_path / "serial" / "scenarios.jsonl").read_bytes())

    def test_progress_totals_grow_across_resumes(self, tmp_path):
        """A resumed campaign's JobProgress must credit checkpointed
        work: done/total spans the whole campaign, not one process."""
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                         chunk_size=2, strategies=["serial"],
                         backend="serial", max_chunks=1)
        progress = JobProgress()
        resume_campaign(tmp_path / "c", progress=progress)
        snap = progress.snapshot()
        assert snap["total"] == 4 and snap["done"] == 4


class TestFindings:
    def test_dedupe_across_seeds(self, tmp_path, broken_strategy):
        """The same defect on every seed is one finding plus duplicates:
        the shrinker collapses each chip to the same canonical repro."""
        report = run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                              chunk_size=2,
                              strategies=["serial", broken_strategy],
                              backend="serial")
        assert report["ok"] is False
        assert len(report["findings"]) == 1
        assert report["duplicates"] == 3
        finding = report["findings"][0]
        assert finding["strategy"] == broken_strategy
        assert finding["rule"] == "RuntimeError"
        assert finding["signature"]["kind"] == "crashed"

    def test_dedupe_survives_resume(self, tmp_path, broken_strategy):
        """The ``seen`` key set rides in the checkpoint: a duplicate
        surfacing after a resume must not re-emit the finding."""
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "c", profile="tiny", seeds=4,
                         chunk_size=2,
                         strategies=["serial", broken_strategy],
                         backend="serial", max_chunks=1)
        paused = campaign_status(tmp_path / "c")
        assert paused["findings"] == 1 and paused["duplicates"] == 1
        report = resume_campaign(tmp_path / "c")
        assert len(report["findings"]) == 1
        assert report["duplicates"] == 3
        repro_files = sorted((tmp_path / "c" / "findings").iterdir())
        assert len(repro_files) == 1

    def test_interrupted_and_clean_findings_match(self, tmp_path,
                                                  broken_strategy):
        clean = run_campaign(tmp_path / "clean", profile="tiny", seeds=4,
                             chunk_size=2,
                             strategies=["serial", broken_strategy],
                             backend="serial")
        with pytest.raises(CampaignInterrupted):
            run_campaign(tmp_path / "paused", profile="tiny", seeds=4,
                         chunk_size=2,
                         strategies=["serial", broken_strategy],
                         backend="serial", max_chunks=1)
        resumed = resume_campaign(tmp_path / "paused")
        assert _strip_runtime(resumed) == _strip_runtime(clean)

    def test_repro_file_replays_standalone(self, tmp_path, broken_strategy):
        """The emitted ``.soc`` must reproduce its violation from the
        file alone — regenerate, re-apply ops, re-fire the signature."""
        report = run_campaign(tmp_path / "c", profile="tiny", seeds=2,
                              strategies=["serial", broken_strategy],
                              backend="serial")
        finding = report["findings"][0]
        path = tmp_path / "c" / finding["file"]
        assert path.exists()
        doc = load_repro(path)
        assert doc["schema"] == "repro/repro-soc/v1"
        assert doc["signature"] == finding["signature"]
        result = replay_repro(path)
        assert result["fires"] is True
        assert result["digest"] == finding["digest"]

    def test_repro_body_is_parseable_soc(self, tmp_path, lossy_strategy):
        """Below the ``# repro:`` header rides a plain ITC'02 body any
        ``.soc`` consumer can parse (comments are stripped)."""
        from repro.soc.itc02 import soc_from_text

        report = run_campaign(tmp_path / "c", profile="tiny", seeds=2,
                              strategies=[lossy_strategy], backend="serial")
        assert report["findings"], "lossy strategy must surface a finding"
        path = tmp_path / "c" / report["findings"][0]["file"]
        soc = soc_from_text(path.read_text())
        assert soc.name == "repro"
        assert soc.cores

    def test_load_repro_rejects_plain_soc(self, tmp_path):
        plain = tmp_path / "plain.soc"
        plain.write_text("SocName nothing\n")
        with pytest.raises(ValueError, match="repro"):
            load_repro(plain)


class TestShrinker:
    def test_shrink_is_one_minimal(self):
        """After shrinking, removing any single remaining element must
        un-reproduce the failure — the 1-minimality guarantee."""
        soc = SocGenerator(7, "small").generate()
        assert len(soc.cores) >= 3

        def keeps_c2(chip):
            return any(core.name == "c2" for core in chip.cores)

        minimized, ops = shrink_soc(soc, keeps_c2)
        assert [core.name for core in minimized.cores] == ["c2"]
        assert ops, "shrinking a 4-core chip must accept cuts"
        for op in _candidate_ops(minimized):
            mutant = copy.deepcopy(minimized)
            from repro.gen.shrink import apply_op
            apply_op(mutant, op)
            assert not keeps_c2(mutant), f"cut {op} should un-reproduce"

    def test_shrink_rejects_non_failure(self):
        soc = SocGenerator(1, "tiny").generate()
        with pytest.raises(ValueError, match="does not fail"):
            shrink_soc(soc, lambda chip: False)

    def test_ops_replay_to_identical_chip(self):
        """The accepted op list is the deterministic inverse: replaying
        it on a fresh copy of the origin chip rebuilds the minimized
        chip digest-for-digest."""
        soc = SocGenerator(7, "small").generate()
        minimized, ops = shrink_soc(
            soc, lambda chip: any(c.name == "c1" for c in chip.cores)
        )
        replayed = apply_ops(SocGenerator(7, "small").generate(), ops)
        assert replayed.digest() == minimized.digest()

    def test_signature_driven_shrink_preserves_rule(self, lossy_strategy):
        """A cut that keeps *a* failure but changes its rule must be
        rejected: minimality statements stay about the original finding."""
        from repro.core import CompileBist, FlowContext, SteacConfig
        from repro.sched import resolve_schedule
        from repro.verify import verify_schedule

        soc = SocGenerator(5, "small").generate()
        ctx = FlowContext(soc=soc, config=SteacConfig(compare_strategies=False))
        CompileBist().run(ctx)
        result = resolve_schedule(lossy_strategy, soc, ctx.tasks)
        report = verify_schedule(soc, result, tasks=ctx.tasks)
        assert report.errors, "lossy scheduling must violate an invariant"
        rule = report.errors[0].rule
        sig = ViolationSignature(lossy_strategy, "verify", rule)
        minimized, _ = shrink_scenario(soc, sig, ilp_max_tasks=6)
        # the minimal chip still fires exactly that rule
        from repro.gen.shrink import signature_fires

        assert signature_fires(minimized, sig, 6)
        # and is strictly smaller than the original
        assert len(minimized.cores) < len(soc.cores)

    def test_every_fuzz_signature_fires_on_its_chip(
        self, broken_strategy, lossy_strategy, refusing_strategy
    ):
        """Fuzz and the shrinker agree on what a failure is: every
        signature read off a scenario document fires on that chip."""
        strategies = ["serial", broken_strategy, lossy_strategy, refusing_strategy]
        kinds = set()
        for profile in ("tiny", "small"):
            report = run_fuzz(profile=profile, seeds=3, strategies=strategies,
                              backend="serial")
            for doc in report["scenarios"]:
                soc = SocGenerator(doc["seed"], profile).generate()
                for sig in scenario_signatures(doc):
                    kinds.add(sig.kind)
                    assert signature_fires(soc, sig, report["ilp_max_tasks"]), (
                        f"{sig.describe()} did not fire on {doc['soc']}"
                    )
        assert kinds == {"verify", "infeasible", "crashed"}

    def test_scenario_signatures_severity_split(self):
        """Only error-severity violations become signatures — warnings
        are counted, never shrunk (the v1 report bug this PR fixes)."""
        doc = {
            "roundtrip_errors": [],
            "strategies": {
                "warny": {"ok": True, "errors": [],
                          "warnings": [{"rule": "soft-limit"}]},
                "bad": {"ok": False,
                        "errors": [{"rule": "task-coverage"},
                                   {"rule": "task-coverage"}],
                        "warnings": []},
                "dead": {"crashed": "ValueError: boom"},
            },
        }
        sigs = scenario_signatures(doc)
        assert sigs == [
            ViolationSignature("bad", "verify", "task-coverage"),
            ViolationSignature("dead", "crashed", "ValueError"),
        ]


class TestCampaignCli:
    def test_run_status_resume_replay(self, tmp_path, capsys,
                                      broken_strategy):
        d = str(tmp_path / "c")
        base = ["campaign", "run", d, "--profile", "tiny", "--seeds", "4",
                "--chunk-size", "2", "--strategies", "serial",
                broken_strategy, "--backend", "serial"]
        assert main(base + ["--max-chunks", "1"]) == 3
        err = capsys.readouterr().err
        assert "resume" in err and "2/4" in err

        assert main(["campaign", "status", d]) == 0
        assert "in progress" in capsys.readouterr().out

        assert main(["campaign", "resume", d, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == CAMPAIGN_REPORT_SCHEMA
        assert report["complete"] is True and report["ok"] is False
        assert report["runtime"]["resumes"] == 1

        assert main(["campaign", "status", d, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True and status["findings"] == 1

        repro_file = str(tmp_path / "c" / report["findings"][0]["file"])
        assert main(["campaign", "replay", repro_file]) == 0
        assert "fires" in capsys.readouterr().out

    def test_clean_run_exit_zero(self, tmp_path, capsys):
        assert main(["campaign", "run", str(tmp_path / "c"), "--profile",
                     "tiny", "--seeds", "2", "--strategies", "serial",
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "verdict: clean" in out

    def test_run_refuses_existing_dir(self, tmp_path):
        d = str(tmp_path / "c")
        args = ["campaign", "run", d, "--seeds", "1", "--strategies",
                "serial", "--backend", "serial"]
        assert main(args) == 0
        with pytest.raises(SystemExit):
            main(args)

    def test_resume_missing_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "resume", str(tmp_path / "nothing")])

    def test_resume_refuses_retired_backend(self, tmp_path):
        """A directory whose stored definition names a backend that no
        longer exists (``thread``) is refused up front with a one-line
        message naming the choices — not deep inside the chunk runner."""
        d = tmp_path / "c"
        with pytest.raises(CampaignInterrupted):
            run_campaign(d, profile="tiny", seeds=4, chunk_size=2,
                         strategies=["serial"], backend="serial", max_chunks=1)
        # rewrite it as an older release stored it: definition and digest
        doc = json.loads((d / "campaign.json").read_text())
        doc["backend"] = "thread"
        (d / "campaign.json").write_text(json.dumps(doc))
        checkpoint = json.loads((d / "checkpoint.json").read_text())
        checkpoint["config_digest"] = _config_digest(doc)
        (d / "checkpoint.json").write_text(json.dumps(checkpoint))
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "resume", str(d)])
        message = exc.value.code
        assert "'thread'" in message and "auto, serial, process" in message
        assert "\n" not in message
        assert exc.value.__suppress_context__  # no chained traceback

    def test_status_missing_dir_rejected(self, tmp_path):
        """Expected errors surface as SystemExit messages, not raw
        tracebacks — for status like for run/resume."""
        with pytest.raises(SystemExit):
            main(["campaign", "status", str(tmp_path / "nothing")])

    def test_replay_non_repro_file_rejected(self, tmp_path):
        plain = tmp_path / "plain.soc"
        plain.write_text("SocName nothing\n")
        with pytest.raises(SystemExit):
            main(["campaign", "replay", str(plain)])
        with pytest.raises(SystemExit):
            main(["campaign", "replay", str(tmp_path / "missing.soc")])

    def test_replay_non_firing_repro_exits_one(self, tmp_path, capsys,
                                               broken_strategy):
        """A repro whose violation no longer fires (here: the plugin
        strategy is gone in a fresh process) exits 1 — replay is a
        regression check, not a pretty-printer."""
        assert main(["campaign", "run", str(tmp_path / "c"), "--profile",
                     "tiny", "--seeds", "1", "--strategies", "serial",
                     broken_strategy, "--backend", "serial"]) == 1
        report = json.loads((tmp_path / "c" / "report.json").read_text())
        repro_file = str(tmp_path / "c" / report["findings"][0]["file"])
        _REGISTRY.pop(broken_strategy)
        try:
            assert main(["campaign", "replay", repro_file]) == 1
            assert "DOES NOT FIRE" in capsys.readouterr().out
        finally:
            # the fixture pops again harmlessly
            pass
        capsys.readouterr()

    def test_keyboard_interrupt_exits_130(self, tmp_path, capsys,
                                          monkeypatch):
        """Ctrl-C anywhere in a command exits 130 cleanly (no traceback
        dump) — satellite 3 of this PR."""
        import repro.gen.campaign as campaign_mod

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_mod, "run_campaign", interrupt)
        assert main(["campaign", "run", str(tmp_path / "c"), "--seeds",
                     "1"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_keyboard_interrupt_checkpoints_before_reraise(self, tmp_path,
                                                           monkeypatch):
        """Campaign.run must re-persist the checkpoint on the way out of
        a KeyboardInterrupt so the directory is always resumable."""
        campaign = Campaign.create(
            tmp_path / "c",
            CampaignConfig(profile="tiny", seeds=4, chunk_size=2,
                           strategies=("serial",), backend="serial"),
        )
        (tmp_path / "c" / "checkpoint.json").unlink()

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign, "_chunk_loop", interrupt)
        with pytest.raises(KeyboardInterrupt):
            campaign.run()
        assert (tmp_path / "c" / "checkpoint.json").exists()
        resumed = resume_campaign(tmp_path / "c")
        assert resumed["complete"] is True and resumed["scenarios"] == 4
