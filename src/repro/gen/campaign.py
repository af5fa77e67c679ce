"""Resumable, checkpointed fuzz campaigns: soaking at 10^5–10^6 scenarios.

``repro fuzz`` is one-shot and in-memory; a soak over a million
generated chips must survive a crash, a ``kill -9``, or a Ctrl-C and
pick up where it stopped.  Both are one sweep: a fuzz run resolves its
definition as a one-chunk :class:`CampaignConfig`, and both hand
scenarios to workers only through :func:`repro.gen.fuzzing.sweep`.  A
:class:`Campaign` owns a directory:

``campaign.json``
    The immutable campaign definition (``repro/campaign/v1``): profile,
    seed range, strategies, chunk size, backend.  Written once at
    creation; resume refuses a directory whose definition changed.
``checkpoint.json``
    All mutable progress, written **atomically** by
    :func:`repro.util.publish` (temp file, fsync, ``os.replace``) at
    every chunk barrier: the seed cursor, per-strategy stats, dedupe
    keys already seen, findings, accumulated runtime, and a digest of
    the resolved definition (resume refuses a mismatch).  The checkpoint
    is RNG-free — every scenario is regenerated from its ``(profile,
    seed)`` coordinates — so a resumed campaign is deterministic.  An in-flight chunk accumulates its
    effects in a *staged copy* of this state and folds them in only at
    the barrier, so the in-memory checkpoint state is persistable at
    any instant.
``scenarios.jsonl``
    Append-only per-scenario log (the fuzz scenario documents, one per
    line, flushed per chunk).  On resume, lines past the checkpoint
    cursor — the in-flight chunk a crash may have half-written — are
    truncated before re-running, so the finished log is bit-identical
    to an uninterrupted run's.
``findings/``
    One standalone ``.soc`` repro file per deduplicated finding (see
    below).
``report.json``
    The final ``repro/campaign-report/v1`` document, written when the
    cursor reaches the end.  Identical (modulo the ``runtime`` section)
    however many times the campaign was interrupted and resumed.

**Dedupe.**  Findings are deduplicated by ``(rule, strategy,
minimized-chip digest)``: each new error-severity violation is shrunk
to a minimal reproducing SOC (:mod:`repro.gen.shrink`) and the digest
of that minimized chip keys the finding, so the same defect surfacing
on ten thousand seeds is reported once with ten thousand duplicates
counted.  Warnings are counted per scenario but not shrunk.

**Repro files.**  Each finding writes ``findings/NNN-<digest>.soc``: a
plain ITC'02 ``.soc`` body (human-readable, parses anywhere) headed by
a ``# repro:`` comment embedding the machine replay document — origin
coordinates, shrink ops, pin/power budgets, memories the exchange
format cannot carry, and the violation signature.
:func:`replay_repro` re-runs one standalone and reports whether the
violation still fires.

The serving layer deliberately does **not** grow a ``campaign`` job
kind: a campaign is a long-lived stateful directory with its own
persistence and resume protocol, not a cacheable request/response
document (see :mod:`repro.serve`).  Campaigns are CLI-first:
``repro campaign run/resume/status/replay``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.gen.fuzzing import (
    CELL_OUTCOMES,
    cell_outcome,
    scenario_warning_count,
    sweep,
)
from repro.obs import METRICS, JobProgress, span
from repro.util import document_text, publish

CAMPAIGN_SCHEMA = "repro/campaign/v1"
CHECKPOINT_SCHEMA = "repro/campaign-checkpoint/v1"
CAMPAIGN_REPORT_SCHEMA = "repro/campaign-report/v1"
REPRO_SCHEMA = "repro/repro-soc/v1"

#: Comment prefix carrying the machine replay document in a repro file.
_REPRO_PREFIX = "# repro: "

_SCENARIOS = METRICS.counter("campaign.scenarios", "campaign scenarios executed")
_VIOLATIONS = METRICS.counter("campaign.violations", "error violations found")
_FINDINGS = METRICS.counter("campaign.findings", "deduplicated findings emitted")
_DUPLICATES = METRICS.counter("campaign.duplicates", "violations deduped away")
_CHUNKS = METRICS.counter("campaign.chunks", "chunk barriers checkpointed")
_RESUMES = METRICS.counter("campaign.resumes", "campaign resumes")


def _field_values(record) -> dict:
    """A dataclass record's fields by name.  The values are shared, not
    copied: ``dataclasses.asdict`` would deep-copy the whole checkpoint
    state (findings, dedupe keys) at every chunk barrier."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass(frozen=True)
class CampaignConfig:
    """The immutable definition of one campaign (what ``campaign.json``
    stores; every field is semantic — together with the code version it
    determines the final report bit-for-bit)."""

    profile: str = "tiny"
    seeds: int = 1000
    seed_base: int = 0
    strategies: tuple = ()
    ilp_max_tasks: int = 6
    chunk_size: int = 200
    workers: Optional[int] = None
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError(f"campaign needs at least 1 seed, got {self.seeds}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {self.chunk_size}")

    def resolved(self) -> "CampaignConfig":
        """Pin every late-bound default (strategy list, worker count,
        backend) so the stored definition is self-contained.

        Raises:
            ValueError: a profile or strategy name nothing is registered
                under (a typo is not a scheduler crash in every scenario).
        """
        from repro.core.batch import default_workers, resolve_backend
        from repro.gen.profiles import get_profile
        from repro.sched.registry import STRATEGIES

        get_profile(self.profile)
        strategies = tuple(self.strategies or STRATEGIES.names())
        for name in strategies:
            STRATEGIES.lookup(name)
        workers = default_workers(
            self.workers, self.backend, min(self.seeds, self.chunk_size)
        )
        backend = resolve_backend(self.backend, workers, self.seeds)
        return replace(self, strategies=strategies, workers=workers, backend=backend)

    def to_dict(self) -> dict:
        return {
            "schema": CAMPAIGN_SCHEMA,
            **_field_values(self),
            "strategies": list(self.strategies),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignConfig":
        """Read a stored definition, refusing a backend this version no
        longer runs (``thread``, from older directories)."""
        from repro.core.batch import BACKENDS

        if doc["backend"] not in BACKENDS:
            raise ValueError(
                f"campaign backend {doc['backend']!r} is no longer supported "
                f"(choose from {', '.join(BACKENDS)}); start a fresh directory"
            )
        values = {f.name: doc[f.name] for f in fields(cls)}
        values["strategies"] = tuple(values["strategies"])
        return cls(**values)


def _config_digest(doc: dict) -> str:
    """Digest of a (resolved) campaign definition document — stored in
    the checkpoint so resume refuses a directory whose ``campaign.json``
    was edited after creation."""
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class _Checkpoint:
    """The mutable campaign state one chunk barrier persists."""

    config_digest: str = ""  # digest of the campaign.json this belongs to
    cursor: int = 0  # seeds completed (next seed = seed_base + cursor)
    violation_count: int = 0
    warning_count: int = 0
    duplicates: int = 0
    strategy_stats: dict = field(default_factory=dict)
    seen: list = field(default_factory=list)  # dedupe keys, insertion order
    findings: list = field(default_factory=list)
    elapsed_seconds: float = 0.0
    resumes: int = 0

    def to_dict(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            **_field_values(self),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "_Checkpoint":
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


class CampaignInterrupted(Exception):
    """Internal marker: the chunk loop stopped at a barrier without
    finishing (``max_chunks`` pause); state is checkpointed."""


class Campaign:
    """One campaign directory: definition, checkpoint, logs, findings."""

    def __init__(self, directory: str | os.PathLike):
        self.dir = Path(directory)
        self.config_path = self.dir / "campaign.json"
        self.checkpoint_path = self.dir / "checkpoint.json"
        self.scenarios_path = self.dir / "scenarios.jsonl"
        self.findings_dir = self.dir / "findings"
        self.report_path = self.dir / "report.json"
        self.config: Optional[CampaignConfig] = None
        self.state = _Checkpoint()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, directory: str | os.PathLike, config: CampaignConfig) -> "Campaign":
        """Start a fresh campaign directory (refuses one that already
        holds a campaign — resume that instead of silently restarting)."""
        campaign = cls(directory)
        if campaign.config_path.exists():
            raise FileExistsError(
                f"{campaign.config_path} exists — an interrupted campaign lives "
                f"here; resume it (repro campaign resume {campaign.dir}) or pick "
                "a fresh directory"
            )
        campaign.config = config.resolved()
        campaign.dir.mkdir(parents=True, exist_ok=True)
        campaign.findings_dir.mkdir(exist_ok=True)
        config_doc = campaign.config.to_dict()
        publish(campaign.config_path, document_text(config_doc) + "\n")
        campaign.state = _Checkpoint(
            config_digest=_config_digest(config_doc),
            strategy_stats={
                name: dict.fromkeys(CELL_OUTCOMES, 0)
                for name in campaign.config.strategies
            },
        )
        campaign._checkpoint()
        campaign.scenarios_path.touch()
        return campaign

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "Campaign":
        """Attach to an existing campaign directory (the resume path)."""
        campaign = cls(directory)
        if not campaign.config_path.exists():
            raise FileNotFoundError(
                f"{campaign.dir} holds no campaign (missing campaign.json)"
            )
        with open(campaign.config_path) as handle:
            doc = json.load(handle)
        if doc.get("schema") != CAMPAIGN_SCHEMA:
            raise ValueError(f"unsupported campaign schema {doc.get('schema')!r}")
        campaign.config = CampaignConfig.from_dict(doc)
        with open(campaign.checkpoint_path) as handle:
            checkpoint_doc = json.load(handle)
        if checkpoint_doc.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"unsupported checkpoint schema {checkpoint_doc.get('schema')!r}"
            )
        campaign.state = _Checkpoint.from_dict(checkpoint_doc)
        if campaign.state.config_digest != _config_digest(doc):
            raise ValueError(
                f"{campaign.config_path} is not the definition this checkpoint "
                "was created from — the campaign definition changed; start a "
                "fresh directory instead of resuming"
            )
        if campaign.state.cursor > campaign.config.seeds:
            raise ValueError(
                f"checkpoint cursor {campaign.state.cursor} exceeds the "
                f"campaign's {campaign.config.seeds} seeds — the checkpoint "
                "was edited or corrupted outside the campaign"
            )
        return campaign

    @property
    def complete(self) -> bool:
        return self.state.cursor >= (self.config.seeds if self.config else 0)

    def status(self) -> dict:
        """A JSON-native progress snapshot (``repro campaign status``)."""
        state = self.state
        return {
            "dir": str(self.dir),
            "complete": self.complete,
            "done": state.cursor,
            "total": self.config.seeds if self.config else 0,
            "violation_count": state.violation_count,
            "warning_count": state.warning_count,
            "findings": len(state.findings),
            "duplicates": state.duplicates,
            "resumes": state.resumes,
            "elapsed_seconds": round(state.elapsed_seconds, 6),
        }

    # -- persistence ---------------------------------------------------------

    def _checkpoint(self) -> None:
        publish(self.checkpoint_path, document_text(self.state.to_dict()) + "\n")

    def _truncate_scenarios(self) -> None:
        """Drop scenario-log lines past the checkpoint cursor — the
        half-flushed in-flight chunk a crash may have left — so re-run
        chunks never duplicate lines."""
        if not self.scenarios_path.exists():
            self.scenarios_path.touch()
            return
        keep = self.state.cursor
        offset = 0
        with open(self.scenarios_path, "rb") as handle:
            for _ in range(keep):
                line = handle.readline()
                if not line.endswith(b"\n"):
                    raise ValueError(
                        f"{self.scenarios_path} holds fewer complete lines than "
                        f"the checkpoint cursor ({keep}) — the log was edited "
                        "or corrupted outside the campaign"
                    )
                offset += len(line)
        with open(self.scenarios_path, "rb+") as handle:
            handle.truncate(offset)

    # -- the chunk loop ------------------------------------------------------

    def run(
        self, progress: Optional[JobProgress] = None, max_chunks: Optional[int] = None
    ) -> dict:
        """Run (or resume) to completion, returning the final report.

        Checkpoints at every chunk barrier; on ``KeyboardInterrupt`` the
        current state is already safe — the interrupt is re-raised after
        the worker pool is cancelled, losing at most the in-flight
        chunk.  ``max_chunks`` stops at a barrier after that many chunks
        (raising :class:`CampaignInterrupted`) — the deterministic
        "interrupt" used by tests and the CI smoke.
        """
        # resolving the stored definition again changes nothing, but
        # refuses a name not registered in this process (a resume without
        # the plugin that created the campaign) before any file is touched
        config = self.config.resolved()
        state = self.state
        if progress is not None:
            progress.start(config.seeds)
            if state.cursor:
                # totals grow across resumes: re-seed done/violations
                # from the checkpoint so done/total spans the whole
                # campaign, not just this process's share
                progress.resume(state.cursor, violations=state.violation_count)
        if self.complete:
            return self._finish()
        resuming = state.cursor > 0
        if resuming:
            state.resumes += 1
            _RESUMES.inc()
        self._truncate_scenarios()

        with span(
            "campaign.run",
            profile=config.profile,
            seeds=config.seeds,
            backend=config.backend,
            resume=resuming,
        ):
            try:
                self._chunk_loop(max_chunks, progress)
            except KeyboardInterrupt:
                # ``self.state`` only ever holds barrier state — the
                # in-flight chunk accumulates in a staged copy — so
                # re-persisting here is safe at any instant (and
                # restores a checkpoint.json removed out-of-band); then
                # let the interrupt propagate (the CLI exits 130)
                self._checkpoint()
                raise
        return self._finish()

    def _chunk_loop(self, max_chunks, progress) -> None:
        from repro.core.batch import ChunkRunner

        config = self.config
        chunks_run = 0
        started = time.perf_counter()
        with ChunkRunner(config.backend, config.workers) as runner, open(
            self.scenarios_path, "a"
        ) as log:
            while not self.complete:
                if max_chunks is not None and chunks_run >= max_chunks:
                    raise CampaignInterrupted(
                        f"paused after {chunks_run} chunk(s); resume with: "
                        f"repro campaign resume {self.dir}"
                    )
                first = config.seed_base + self.state.cursor
                size = min(config.chunk_size, config.seeds - self.state.cursor)
                with span("campaign.chunk", first=first, size=size):
                    outcomes = sweep(runner, config, first, size, progress)
                # transactional absorb: the chunk's effects (counters,
                # dedupe keys, findings) accumulate in a staged copy;
                # ``self.state`` stays at the last barrier, so an
                # interrupt landing anywhere in this loop — shrinking
                # runs here, in this process — never exposes half a
                # chunk to a checkpoint.  Repro files written along the
                # way are rewritten identically when the chunk re-runs.
                staged = copy.deepcopy(self.state)
                seen = {tuple(key) for key in staged.seen}
                for seed, (doc, count) in enumerate(outcomes, first):
                    self._absorb(staged, seen, seed, doc, count, log)
                log.flush()
                os.fsync(log.fileno())
                staged.cursor += size
                now = time.perf_counter()
                staged.elapsed_seconds += now - started
                started = now
                # the barrier: scenario lines are durable before the
                # staged state (whose cursor claims them) becomes
                # current and is checkpointed
                self.state = staged
                self._checkpoint()
                _CHUNKS.inc()
                chunks_run += 1

    def _absorb(
        self, state: _Checkpoint, seen: set, seed: int, doc: dict,
        violation_count: int, log,
    ) -> None:
        """Fold one finished scenario into the chunk's staged state:
        log line, per-strategy tallies, and dedupe/shrink for every new
        error signature."""
        from repro.gen.shrink import scenario_signatures

        log.write(json.dumps(doc, sort_keys=True) + "\n")
        _SCENARIOS.inc()
        state.violation_count += violation_count
        state.warning_count += scenario_warning_count(doc)
        _VIOLATIONS.inc(violation_count)
        for strategy, cell in doc["strategies"].items():
            stats = state.strategy_stats.setdefault(
                strategy, dict.fromkeys(CELL_OUTCOMES, 0)
            )
            stats[cell_outcome(cell)] += 1
        for sig in scenario_signatures(doc):
            self._record_finding(state, seen, seed, doc, sig)

    def _record_finding(
        self, state: _Checkpoint, seen: set, seed: int, doc: dict, sig
    ) -> None:
        """Shrink one error signature and dedupe it by
        ``(rule, strategy, minimized-chip digest)``.  ``seen`` is the
        set form of ``state.seen`` for O(1) membership — the list form
        persists in the checkpoint, the set rides alongside."""
        from repro.gen.generator import SocGenerator
        from repro.gen.shrink import shrink_scenario

        config = self.config
        soc = SocGenerator(seed, config.profile).generate()
        with span("campaign.shrink", seed=seed, signature=sig.describe()):
            try:
                minimized, ops = shrink_scenario(soc, sig, config.ilp_max_tasks)
            except ValueError:
                # the violation is flaky under re-execution (e.g. a
                # crash that depends on ambient state): keep the
                # unshrunk chip as the repro
                minimized, ops = soc, []
        digest = minimized.digest()
        key = (sig.rule or sig.kind, sig.strategy, digest)
        if key in seen:
            state.duplicates += 1
            _DUPLICATES.inc()
            return
        seen.add(key)
        state.seen.append(list(key))
        finding = {
            "index": len(state.findings),
            "signature": sig.to_dict(),
            "rule": sig.rule or sig.kind,
            "strategy": sig.strategy,
            "digest": digest,
            "profile": config.profile,
            "seed": seed,
            "soc": doc["soc"],
            "minimized": {
                "cores": len(minimized.cores),
                "memories": len(minimized.memories),
                "test_pins": minimized.test_pins,
                "power_budget": minimized.power_budget,
            },
            "ops": ops,
            "file": f"findings/{len(state.findings):04d}-{digest[:12]}.soc",
        }
        self._write_repro(finding, minimized)
        state.findings.append(finding)
        _FINDINGS.inc()

    def _write_repro(self, finding: dict, minimized) -> None:
        """Emit the standalone ``.soc`` repro file for one finding."""
        from repro.gen.writer import soc_to_text

        replay = {
            "schema": REPRO_SCHEMA,
            "signature": finding["signature"],
            "profile": finding["profile"],
            "seed": finding["seed"],
            "ilp_max_tasks": self.config.ilp_max_tasks,
            "ops": finding["ops"],
            "test_pins": minimized.test_pins,
            "power_budget": minimized.power_budget,
        }
        body = soc_to_text(minimized) if minimized.cores else f"SocName {minimized.name}\n"
        text = _REPRO_PREFIX + json.dumps(replay, sort_keys=True) + "\n" + body
        path = self.dir / finding["file"]
        path.parent.mkdir(exist_ok=True)
        publish(path, text)

    def _finish(self) -> dict:
        """Assemble (and persist) the final report."""
        report = self.report()
        publish(self.report_path, document_text(report) + "\n")
        return report

    def report(self) -> dict:
        """The ``repro/campaign-report/v1`` document for current state.

        Everything outside ``runtime`` is a pure function of the
        campaign definition and the code — byte-identical across any
        interrupt/resume history.
        """
        config = self.config
        state = self.state
        return {
            "schema": CAMPAIGN_REPORT_SCHEMA,
            "profile": config.profile,
            "seed_base": config.seed_base,
            "seeds": config.seeds,
            "strategies": list(config.strategies),
            "ilp_max_tasks": config.ilp_max_tasks,
            "chunk_size": config.chunk_size,
            "backend": config.backend,
            "workers": config.workers,
            "complete": self.complete,
            "scenarios": state.cursor,
            "ok": state.violation_count == 0,
            "violation_count": state.violation_count,
            "warning_count": state.warning_count,
            "findings": state.findings,
            "duplicates": state.duplicates,
            # the one section resume history may change — compare
            # reports with this key removed
            "runtime": {
                "elapsed_seconds": round(state.elapsed_seconds, 6),
                "resumes": state.resumes,
            },
        }


# -- module-level front ends -------------------------------------------------


def run_campaign(
    directory: str | os.PathLike,
    profile: str = "tiny",
    seeds: int = 1000,
    seed_base: int = 0,
    strategies: Optional[Sequence[str]] = None,
    ilp_max_tasks: int = 6,
    chunk_size: int = 200,
    workers: Optional[int] = None,
    backend: str = "auto",
    progress: Optional[JobProgress] = None,
    max_chunks: Optional[int] = None,
) -> dict:
    """Create and run a fresh campaign — the ``repro campaign run``
    entry point.  Returns the final report document."""
    campaign = Campaign.create(
        directory,
        CampaignConfig(
            profile=profile,
            seeds=seeds,
            seed_base=seed_base,
            strategies=tuple(strategies or ()),
            ilp_max_tasks=ilp_max_tasks,
            chunk_size=chunk_size,
            workers=workers,
            backend=backend,
        ),
    )
    return campaign.run(progress=progress, max_chunks=max_chunks)


def resume_campaign(
    directory: str | os.PathLike,
    progress: Optional[JobProgress] = None,
    max_chunks: Optional[int] = None,
) -> dict:
    """Resume an interrupted campaign — ``repro campaign resume``."""
    return Campaign.open(directory).run(progress=progress, max_chunks=max_chunks)


def campaign_status(directory: str | os.PathLike) -> dict:
    """Progress snapshot for ``repro campaign status``."""
    return Campaign.open(directory).status()


def load_repro(path: str | os.PathLike) -> dict:
    """Read the machine replay document embedded in a repro file."""
    with open(path) as handle:
        first = handle.readline()
    if not first.startswith(_REPRO_PREFIX):
        raise ValueError(f"{path} is not a campaign repro file (no '# repro:' header)")
    doc = json.loads(first[len(_REPRO_PREFIX):])
    if doc.get("schema") != REPRO_SCHEMA:
        raise ValueError(f"unsupported repro schema {doc.get('schema')!r}")
    return doc


def replay_repro(path: str | os.PathLike) -> dict:
    """Re-run one repro file standalone: regenerate the origin chip,
    re-apply the recorded shrink ops, and check whether the violation
    signature still fires.  Returns ``{"fires": bool, ...}``."""
    from repro.gen.generator import SocGenerator
    from repro.gen.shrink import ViolationSignature, apply_ops, signature_fires

    doc = load_repro(path)
    sig = ViolationSignature.from_dict(doc["signature"])
    soc = SocGenerator(doc["seed"], doc["profile"]).generate()
    minimized = apply_ops(soc, doc["ops"])
    fires = signature_fires(minimized, sig, doc["ilp_max_tasks"])
    return {
        "file": str(path),
        "signature": sig.to_dict(),
        "soc": minimized.name,
        "digest": minimized.digest(),
        "fires": fires,
    }
