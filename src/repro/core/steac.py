"""STEAC — the SOC Test Aid Console (paper Fig. 1).

The integration platform: STIL Parser → Core Test Scheduler → Test
Insertion (wrapper / TAM / test-controller generation into the netlist)
→ Pattern Translator, with BRAINS compiled in for the embedded memories
(Fig. 4).  One call does what the paper reports took "5 minutes" on a
Sun Blade 1000:

    >>> from repro.soc.dsc import build_dsc_chip
    >>> from repro.core import Steac
    >>> result = Steac().integrate(build_dsc_chip())
    >>> print(result.report())                      # doctest: +SKIP

``integrate()`` runs the staged flow of :mod:`repro.core.pipeline` over
the context ``context()`` builds and returns that context, finished, as
the result — run partial flows, swap stages, or batch many SOCs through
:meth:`Steac.integrate_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.bist.march import MARCH_C_MINUS, MarchTest
from repro.core.batch import BatchResult, WorkItem, integrate_many
from repro.core.pipeline import Pipeline, default_stages
from repro.core.results import IntegrationResult
from repro.obs import TRACER, span, summarize
from repro.patterns.core_patterns import CorePatternSet
from repro.sched.ioalloc import SharingPolicy
from repro.soc.soc import Soc

__all__ = ["IntegrationResult", "Steac", "SteacConfig"]


@dataclass
class SteacConfig:
    """Platform configuration.

    Attributes:
        march: March algorithm BRAINS embeds for the memories.
        policy: test-IO sharing policy for session scheduling.
        n_sessions: fixed session count (None = search).
        strategy: primary scheduling strategy, resolved by name through
            :mod:`repro.sched.registry` ("session", "nonsession",
            "serial", "ilp", or anything registered by a plugin).
        bist_power_headroom: reserve power for the heaviest logic test
            when grouping memories, so BIST groups can share sessions
            with core tests.  Off by default — this is an optimization
            *beyond* the paper (see the ablation benchmark); the paper's
            flow groups memories against the full chip budget.
        compare_strategies: also run the other schedulers for the report.
        compare_with: strategy names the comparison covers; None = the
            fast built-in trio (session, nonsession, serial).  Add
            "ilp" here to race the exact MILP too.
        analyze_repair: run the optional memory diagnosis & repair stage
            (:mod:`repro.repair`) after BRAINS — BISR area lands in the
            DFT report and a Monte-Carlo repair-rate estimate in the
            result's ``repair`` section.
        repair_trials: Monte-Carlo chips sampled by the repair stage.
        repair_seed: base seed of the repair stage's Monte-Carlo run.
        repair_allocator: allocation solver, resolved by name through
            :mod:`repro.repair.registry` ("greedy" or "exact", or
            anything registered by a plugin).
        verify_schedule: append the invariant-verification stage
            (:mod:`repro.verify`) to the flow — the report lands in
            ``IntegrationResult.verification`` (and the JSON document's
            ``verification`` section).
        verify_strict: escalate verification errors to
            :class:`repro.verify.InvariantViolationError` (batch runs
            then surface the chip as a failed item).
    """

    march: MarchTest = MARCH_C_MINUS
    policy: SharingPolicy = field(default_factory=SharingPolicy)
    n_sessions: Optional[int] = None
    strategy: str = "session"
    bist_power_headroom: bool = False
    compare_strategies: bool = True
    compare_with: Optional[tuple[str, ...]] = None
    analyze_repair: bool = False
    repair_trials: int = 200
    repair_seed: int = 7
    repair_allocator: str = "greedy"
    verify_schedule: bool = False
    verify_strict: bool = False


class Steac:
    """The SOC Test Aid Console."""

    def __init__(self, config: SteacConfig | None = None):
        self.config = config or SteacConfig()

    def context(
        self,
        soc: Soc,
        stil_texts: dict[str, str] | None = None,
        pattern_data: dict[str, CorePatternSet] | None = None,
    ) -> IntegrationResult:
        """A fresh flow (a :class:`~repro.core.pipeline.FlowContext`) for
        this platform's configuration — the entry point for staged /
        partial flows, and the object ``integrate`` returns."""
        return IntegrationResult(
            soc=soc,
            config=self.config,
            stil_texts=dict(stil_texts or {}),
            pattern_data=dict(pattern_data or {}),
        )

    def integrate(
        self,
        soc: Soc,
        stil_texts: dict[str, str] | None = None,
        pattern_data: dict[str, CorePatternSet] | None = None,
        pipeline: Pipeline | None = None,
    ) -> IntegrationResult:
        """Run the full Fig.-1 flow on ``soc`` and return the finished flow.

        Args:
            soc: the chip model (never mutated; STIL input operates on a
                working copy).
            stil_texts: optional core-name → STIL text; parsed cores
                replace/extend the SOC's core list, and any vectors they
                carry are translated at the end.
            pattern_data: optional explicit core-name → patterns (e.g.
                straight from :mod:`repro.atpg`).
            pipeline: optional custom stage list; default is the five
                Fig.-1 stages from :func:`repro.core.pipeline.default_stages`
                (plus ``analyze_repair`` when the config enables it).
        """
        with span("integrate", soc=soc.name, strategy=self.config.strategy) as sp:
            flow = self.context(soc, stil_texts, pattern_data)
            if pipeline is None:
                pipeline = Pipeline(default_stages(
                    repair=self.config.analyze_repair,
                    verify=self.config.verify_schedule,
                ))
            pipeline.run(flow)
        flow.runtime_seconds = sp.seconds
        if sp.id is not None:
            # tracing was on: attach the compact span summary (the
            # ``trace`` section of the v4 result schema)
            flow.trace = summarize(TRACER.records(), sp.id)
        return flow

    def integrate_many(
        self,
        socs: Sequence[WorkItem],
        workers: Optional[int] = None,
        backend: str = "auto",
        progress=None,
    ) -> BatchResult:
        """Integrate many SOCs (live models or buildable specs)
        concurrently under this configuration.

        Results come back in input order with per-SOC error isolation;
        each worker process (or the calling thread, on the serial
        backend) runs its own ``Steac`` built from this platform's
        config; see
        :func:`repro.core.batch.integrate_many` (including the
        ``progress`` live-counter hook).
        """
        return integrate_many(
            socs, config=self.config, workers=workers, backend=backend,
            progress=progress,
        )
