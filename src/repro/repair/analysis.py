"""The ``AnalyzeRepair`` pipeline stage and its result artifact.

An optional box after BRAINS in the Fig.-1 flow: given the compiled
memories, size the BISR hardware (fuse registers + comparators feed the
DFT-area report) and run a seeded Monte-Carlo repair-rate estimate into
``ctx.repair``, which the finished flow (the ``IntegrationResult``)
carries.  Opt in per platform (``SteacConfig(analyze_repair=True)``) or
per flow (``Pipeline(default_stages(repair=True))``); the default flow
is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import FlowContext, Stage
from repro.repair.montecarlo import RepairRateResult, estimate_repair_rate
from repro.repair.redundancy import DEFAULT_REDUNDANCY, bisr_gates, diagnosis_geometry
from repro.soc.memory import MemorySpec, RedundancySpec
from repro.util import Table, format_gates


@dataclass
class MemoryRepairInfo:
    """Repair-relevant view of one memory."""

    name: str
    geometry: str
    rows: int
    cols: int
    spare_rows: int
    spare_cols: int
    bisr_gates: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "geometry": self.geometry,
            "rows": self.rows,
            "cols": self.cols,
            "spare_rows": self.spare_rows,
            "spare_cols": self.spare_cols,
            "bisr_gates": round(self.bisr_gates, 1),
        }


@dataclass
class RepairAnalysis:
    """Everything the repair stage produces for one SOC."""

    memories: list[MemoryRepairInfo] = field(default_factory=list)
    monte_carlo: RepairRateResult = field(default_factory=RepairRateResult)
    allocator: str = "greedy"

    @property
    def bisr_gates_total(self) -> float:
        return sum(m.bisr_gates for m in self.memories)

    def to_dict(self) -> dict:
        return {
            "allocator": self.allocator,
            "bisr_gates": round(self.bisr_gates_total, 1),
            "memories": [m.to_dict() for m in self.memories],
            "monte_carlo": self.monte_carlo.to_dict(),
        }

    def render(self) -> str:
        table = Table(
            ["Memory", "Geometry", "Spares", "BISR gates"],
            title="Redundancy and BISR hardware",
        )
        for info in self.memories:
            table.add_row(
                [
                    info.name,
                    info.geometry,
                    f"{info.spare_rows}R+{info.spare_cols}C",
                    f"{info.bisr_gates:.0f}",
                ]
            )
        table.add_row(["Total", "", "", format_gates(self.bisr_gates_total)])
        return "\n".join([table.render(), "", self.monte_carlo.render()])


def analyze_soc_repair(
    memories: list[MemorySpec],
    *,
    trials: int = 200,
    seed: int = 7,
    allocator: str = "greedy",
    default_spares: RedundancySpec = DEFAULT_REDUNDANCY,
    workers: int = 0,
    model_rows: int = 64,
) -> RepairAnalysis:
    """Size BISR hardware and estimate the repair rate for ``memories``."""
    infos = []
    for spec in memories:
        spares = spec.redundancy if spec.redundancy is not None else default_spares
        rows, cols = diagnosis_geometry(spec, model_rows)
        infos.append(
            MemoryRepairInfo(
                name=spec.name,
                geometry=spec.describe(),
                rows=rows,
                cols=cols,
                spare_rows=spares.spare_rows,
                spare_cols=spares.spare_cols,
                bisr_gates=bisr_gates(spec, spares),
            )
        )
    rate = estimate_repair_rate(
        memories,
        trials=trials,
        seed=seed,
        workers=workers,
        allocator=allocator,
        default_spares=default_spares,
        model_rows=model_rows,
    )
    return RepairAnalysis(memories=infos, monte_carlo=rate, allocator=allocator)


class AnalyzeRepair(Stage):
    """Memory diagnosis & repair analysis (optional, after BRAINS).

    Reads ``soc`` and ``config``; produces ``ctx.repair``.  A chip with
    no memories leaves the artifact None.  Runs serial inside the stage
    — pipeline-level batching (``integrate_many``) already parallelizes
    across SOCs, and nesting process pools inside batch worker processes
    is not worth the fork overhead for the default 200 trials.
    """

    name = "analyze_repair"

    def execute(self, ctx: FlowContext) -> None:
        if not ctx.soc.memories:
            return
        config = ctx.config
        ctx.repair = analyze_soc_repair(
            ctx.soc.memories,
            trials=config.repair_trials,
            seed=config.repair_seed,
            allocator=config.repair_allocator,
        )
