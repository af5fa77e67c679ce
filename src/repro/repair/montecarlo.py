"""Monte-Carlo repair-rate estimation: inject → diagnose → repair → score.

The closed-loop benchmark the repair subsystem exists for: sample
defective chips from a defect-density model, run redundancy allocation
on every failing memory, and report raw yield, repair rate, and
effective (post-repair) yield over thousands of chips — the
inject-then-measure methodology of SAIBERSOC applied to memory repair.

Defect counts per array follow a Poisson law at ``defects_per_mbit``
(scaled by the memory's *true* capacity), or a clustered
negative-binomial law when ``clustering_alpha`` is set (Stapper's model:
Poisson with a Gamma-mixed rate — small alpha = heavy clustering).
Each defect is a single cell, an adjacent coupling pair, or a full
row/column line; line defects are what make spare allocation a real
problem.

Trials are seeded per-index, so results are bit-identical for any
worker count, and the fan-out runs trial chunks on the process backend
of :mod:`repro.core.batch` (the trial loop is pure CPU-bound Python).
``benchmarks/bench_repair_rate.py`` measures the speedup over the
serial loop.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from repro.bist.faults import InversionCouplingFault, StuckAtFault
from repro.bist.march import MarchTest
from repro.bist.memory_model import FaultModel, FaultyMemory
from repro.repair.bitmap import FailBitmap
from repro.repair.redundancy import diagnosis_geometry
from repro.repair.registry import resolve_allocation
from repro.soc.memory import MemorySpec, RedundancySpec
from repro.util import Table

#: Defect kinds and their default mix (single cells dominate; line
#: defects are rarer but stress the allocators).
DEFECT_KINDS = ("cell", "pair", "row", "col")


@dataclass(frozen=True)
class DefectModel:
    """Defect statistics for Monte-Carlo injection.

    Attributes:
        defects_per_mbit: mean defect count per megabit of true capacity.
        clustering_alpha: None = Poisson; a float = negative-binomial
            clustering parameter (smaller = more clustered).
        kind_weights: sampling weights for ``DEFECT_KINDS``.
    """

    defects_per_mbit: float = 0.3
    clustering_alpha: float | None = None
    kind_weights: tuple[float, float, float, float] = (0.80, 0.08, 0.06, 0.06)

    def mean_defects(self, spec: MemorySpec) -> float:
        return self.defects_per_mbit * spec.capacity_bits / 1_048_576.0

    def sample_count(self, spec: MemorySpec, rng: random.Random) -> int:
        lam = self.mean_defects(spec)
        if lam <= 0.0:
            return 0
        if self.clustering_alpha is not None:
            # Stapper clustering: Poisson with a Gamma(alpha, lam/alpha) rate
            lam = rng.gammavariate(self.clustering_alpha, lam / self.clustering_alpha)
            if lam <= 0.0:
                return 0
        return _poisson(lam, rng)


def _poisson(lam: float, rng: random.Random) -> int:
    """Knuth's product method (lam is a handful at most here)."""
    limit = math.exp(-lam)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


@dataclass(frozen=True)
class Defect:
    """One physical defect, placed in modelled geometry."""

    kind: str  # one of DEFECT_KINDS
    row: int
    col: int

    def cells(self, rows: int, cols: int) -> set[tuple[int, int]]:
        """Failing coordinates this defect produces under a March test
        that detects all the platform's fault classes (March C- does)."""
        if self.kind == "row":
            return {(self.row, c) for c in range(cols)}
        if self.kind == "col":
            return {(r, self.col) for r in range(rows)}
        # "cell" and "pair" both fail at the defect's victim cell
        return {(self.row, self.col)}

    def to_faults(self, rows: int, cols: int) -> list[FaultModel]:
        """Behavioral fault models for the March-simulation path."""
        addr = self.row * cols + self.col
        if self.kind == "cell":
            return [StuckAtFault(addr, (self.row + self.col) & 1)]
        if self.kind == "pair":
            # aggressor is the horizontal neighbor, or the vertical one
            # on 1-bit-wide arrays; a 1x1 array has no neighbor at all,
            # so the defect degrades to a plain cell defect
            if cols > 1:
                aggressor = addr + 1 if self.col + 1 < cols else addr - 1
            elif rows > 1:
                aggressor = addr + cols if self.row + 1 < rows else addr - cols
            else:
                return [StuckAtFault(addr, 1)]
            return [InversionCouplingFault(aggressor, addr, rising=True)]
        if self.kind == "row":
            return [StuckAtFault(self.row * cols + c, c & 1) for c in range(cols)]
        return [StuckAtFault(r * cols + self.col, r & 1) for r in range(rows)]


def sample_defects(
    model: DefectModel, spec: MemorySpec, rng: random.Random, model_rows: int = 64
) -> list[Defect]:
    """Sample one array's defects in modelled geometry.

    The defect *count* uses the true capacity; *coordinates* land in the
    down-scaled ``diagnosis_geometry`` — the same true-statistics /
    modelled-array convention the BIST engine's behavioral runs use.
    """
    rows, cols = diagnosis_geometry(spec, model_rows)
    defects = []
    for _ in range(model.sample_count(spec, rng)):
        kind = rng.choices(DEFECT_KINDS, weights=model.kind_weights)[0]
        defects.append(Defect(kind, rng.randrange(rows), rng.randrange(cols)))
    return defects


def defect_bitmap(defects: list[Defect], rows: int, cols: int) -> FailBitmap:
    """Fold defects straight into a failure bitmap (the fast analytic
    path — equivalent to a March C- diagnosis run, which
    ``tests/test_repair_montecarlo.py`` verifies)."""
    fails: set[tuple[int, int]] = set()
    for defect in defects:
        fails |= defect.cells(rows, cols)
    return FailBitmap(rows, cols, frozenset(fails))


def diagnose_defects(
    defects: list[Defect], spec: MemorySpec, march: MarchTest, model_rows: int = 64
) -> FailBitmap:
    """The slow, closed-loop path: inject the defects' fault models into
    a behavioral memory and capture the bitmap from a real March run."""
    rows, cols = diagnosis_geometry(spec, model_rows)
    faults: list[FaultModel] = []
    for defect in defects:
        faults.extend(defect.to_faults(rows, cols))
    if not faults:
        return FailBitmap(rows, cols)
    memory = FaultyMemory(rows * cols, faults, seed=1)
    return FailBitmap.capture(memory, march, cols)


# -- the Monte-Carlo engine -------------------------------------------------


@dataclass
class RepairRateResult:
    """Tallies over a Monte-Carlo chip population."""

    trials: int = 0
    clean_chips: int = 0
    repaired_chips: int = 0
    dead_chips: int = 0
    total_defects: int = 0
    memory_fails: int = 0
    memory_repairs: int = 0
    seed: int = 0
    allocator: str = ""

    @property
    def failing_chips(self) -> int:
        return self.trials - self.clean_chips

    @property
    def raw_yield(self) -> float:
        """Fraction of chips with zero defects in any memory."""
        return self.clean_chips / self.trials if self.trials else 0.0

    @property
    def repair_rate(self) -> float:
        """Fraction of *failing* chips the spares fully repair."""
        return self.repaired_chips / self.failing_chips if self.failing_chips else 1.0

    @property
    def effective_yield(self) -> float:
        """Post-repair yield: clean plus repaired chips."""
        return (self.clean_chips + self.repaired_chips) / self.trials if self.trials else 0.0

    def merge(self, other: "RepairRateResult") -> None:
        """Fold a worker chunk's tallies into this result."""
        self.trials += other.trials
        self.clean_chips += other.clean_chips
        self.repaired_chips += other.repaired_chips
        self.dead_chips += other.dead_chips
        self.total_defects += other.total_defects
        self.memory_fails += other.memory_fails
        self.memory_repairs += other.memory_repairs

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "allocator": self.allocator,
            "clean_chips": self.clean_chips,
            "repaired_chips": self.repaired_chips,
            "dead_chips": self.dead_chips,
            "total_defects": self.total_defects,
            "memory_fails": self.memory_fails,
            "memory_repairs": self.memory_repairs,
            "raw_yield": round(self.raw_yield, 6),
            "repair_rate": round(self.repair_rate, 6),
            "effective_yield": round(self.effective_yield, 6),
        }

    def render(self) -> str:
        table = Table(
            ["Quantity", "Value"],
            title=f"Monte-Carlo repair rate ({self.trials} chips, "
            f"allocator {self.allocator or 'n/a'})",
        )
        table.add_row(["raw yield", f"{100 * self.raw_yield:.1f}%"])
        table.add_row(["repair rate", f"{100 * self.repair_rate:.1f}%"])
        table.add_row(["effective yield", f"{100 * self.effective_yield:.1f}%"])
        table.add_row(["defects injected", self.total_defects])
        table.add_row(
            ["failing memories repaired", f"{self.memory_repairs}/{self.memory_fails}"]
        )
        return table.render()


def _trial_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _run_trials(
    memories: list[tuple[MemorySpec, RedundancySpec]],
    model: DefectModel,
    allocator: str,
    seed: int,
    start: int,
    count: int,
    model_rows: int,
) -> RepairRateResult:
    """Run trials [start, start+count) — the per-process work unit.

    Every trial re-seeds from its global index, so tallies are identical
    no matter how trials are chunked across workers.
    """
    result = RepairRateResult()
    geometries = [diagnosis_geometry(spec, model_rows) for spec, _ in memories]
    for index in range(start, start + count):
        rng = random.Random(_trial_seed(seed, index))
        chip_failed = False
        chip_repairable = True
        for (spec, spares), (rows, cols) in zip(memories, geometries):
            defects = sample_defects(model, spec, rng, model_rows)
            result.total_defects += len(defects)
            if not defects:
                continue
            chip_failed = True
            result.memory_fails += 1
            solution = resolve_allocation(
                allocator, defect_bitmap(defects, rows, cols), spares
            )
            if solution.repairable:
                result.memory_repairs += 1
            else:
                chip_repairable = False
        result.trials += 1
        if not chip_failed:
            result.clean_chips += 1
        elif chip_repairable:
            result.repaired_chips += 1
        else:
            result.dead_chips += 1
    return result


def estimate_repair_rate(
    memories: list[MemorySpec],
    *,
    trials: int = 1000,
    seed: int = 7,
    workers: int = 0,
    allocator: str = "greedy",
    model: DefectModel | None = None,
    default_spares: RedundancySpec | None = None,
    model_rows: int = 64,
) -> RepairRateResult:
    """Monte-Carlo repair-rate estimation over a set of memories.

    Args:
        memories: the chip's embedded SRAMs (e.g. ``soc.memories``).
        trials: sampled chips.
        seed: base seed; per-trial seeds derive from it, so results are
            reproducible and independent of ``workers``.
        workers: 0 or 1 = in-process serial loop; N>1 = that many
            processes, trials chunked evenly and merged in chunk order.
        allocator: registry name of the allocation solver.
        model: defect statistics (default :class:`DefectModel`).
        default_spares: redundancy applied to memories whose spec has
            none (None = such memories are unrepairable when they fail).
        model_rows: word-line cap for the modelled arrays.
    """
    from repro.core.batch import ChunkRunner

    if trials <= 0:
        raise ValueError(f"trial count must be positive, got {trials}")
    model = model or DefectModel()
    pairs = [
        (spec, spec.redundancy or default_spares or RedundancySpec())
        for spec in memories
    ]
    result = RepairRateResult(seed=seed, allocator=allocator)
    workers = max(1, min(workers, trials))
    bounds = [(trials * i) // workers for i in range(workers + 1)]
    with ChunkRunner("process" if workers > 1 else "serial", workers) as runner:
        chunks = runner.map(
            _run_trials,
            (
                itertools.repeat(pairs),
                itertools.repeat(model),
                itertools.repeat(allocator),
                itertools.repeat(seed),
                bounds[:-1],
                [end - start for start, end in zip(bounds, bounds[1:])],
                itertools.repeat(model_rows),
            ),
        )
    for chunk in chunks:
        result.merge(chunk)
    return result
