"""March fault simulation: run an algorithm against injected faults.

This is BRAINS's "evaluate the memory test efficiency among different
designs" capability (paper, Section 2): for a fault population and a
March algorithm, report per-class coverage and the test-time/coverage
trade-off.

:func:`mismatches` is the one loop that applies a March test to a
bit-oriented memory.  Go/no-go detection, bitmap capture and the
behavioral TPG all read it, so the detector coverage is scored on is the
code a BIST run executes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.bist.faults import FAULT_CLASSES, FaultModel, classify, fault_population
from repro.bist.march import MarchTest, Op
from repro.bist.memory_model import FaultFreeMemory, FaultyMemory, MemoryInterface
from repro.util import Table


def mismatches(memory: MemoryInterface, march: MarchTest) -> Iterator[tuple[int, Op]]:
    """Apply ``march`` to ``memory``, retention pauses included, and
    yield ``(address, op)`` for each read that mismatches, as it happens.

    The one March loop: go/no-go (:func:`run_march`), bitmap capture
    (:func:`diagnose_march`) and the TPG (:func:`repro.bist.tpg.run_tpg`)
    all consume it.  The sweep runs only as far as the caller reads.
    """
    for element in march.elements:
        if element.pause_before:
            memory.pause()
        for addr in element.addresses(memory.size):
            for op in element.ops:
                if op.is_write:
                    memory.write(addr, op.value_bit)
                elif memory.read(addr) != op.value_bit:
                    yield addr, op


def run_march(memory: MemoryInterface, march: MarchTest) -> bool:
    """Apply ``march`` to ``memory``; True = all reads matched (pass).
    Stops at the first mismatch."""
    return next(mismatches(memory, march), None) is None


def diagnose_march(memory: MemoryInterface, march: MarchTest) -> list[int]:
    """Apply ``march`` in *diagnosis mode*: run to completion and log
    every failing read's address instead of stopping at the first
    mismatch.

    This is the bitmap-capture mode of a BIST controller with diagnosis
    support — the raw material for redundancy analysis
    (:mod:`repro.repair`).  Returns the sorted distinct addresses whose
    reads mismatched; an empty list means the memory passed.
    """
    return sorted({addr for addr, _op in mismatches(memory, march)})


def detects(march: MarchTest, fault: FaultModel, size: int, seed: int = 1) -> bool:
    """True if ``march`` *guarantees* detection of ``fault``.

    Power-up state is undefined, so the test must fail for **every**
    initial state of the cells the fault involves (classical guaranteed-
    detection semantics); other cells take the seeded random state.
    """
    import itertools as _it

    cells = fault.cells_involved or ()
    for combo in _it.product((0, 1), repeat=len(cells)):
        overrides = dict(zip(cells, combo))
        memory = FaultyMemory(size, fault, seed=seed, initial_overrides=overrides)
        if run_march(memory, march):
            return False  # this initial state escapes
    return True


@dataclass
class CoverageResult:
    """Per-class detection tallies for one March algorithm."""

    march_name: str
    complexity: int
    detected: dict[str, int] = field(default_factory=dict)
    injected: dict[str, int] = field(default_factory=dict)
    escapes: list[str] = field(default_factory=list)

    def coverage(self, fault_class: str) -> float:
        total = self.injected.get(fault_class, 0)
        if total == 0:
            return 0.0
        return 100.0 * self.detected.get(fault_class, 0) / total

    @property
    def total_coverage(self) -> float:
        total = sum(self.injected.values())
        if total == 0:
            return 0.0
        return 100.0 * sum(self.detected.values()) / total


def simulate_coverage(
    march: MarchTest,
    size: int = 32,
    classes: tuple[str, ...] = FAULT_CLASSES,
    coupling_pairs: int = 32,
    seed: int = 7,
    keep_escapes: int = 10,
) -> CoverageResult:
    """Exhaustive-ish fault simulation of ``march`` on a small array.

    Sanity check: the fault-free memory must pass, else the algorithm
    itself is inconsistent (e.g. reads 1 before writing 1).
    """
    if not run_march(FaultFreeMemory(size, seed=seed), march):
        raise ValueError(f"March test {march.name!r} fails on a fault-free memory")
    result = CoverageResult(march_name=march.name, complexity=march.complexity)
    for fault in fault_population(size, classes, coupling_pairs, seed):
        cls = classify(fault)
        result.injected[cls] = result.injected.get(cls, 0) + 1
        if detects(march, fault, size, seed=seed):
            result.detected[cls] = result.detected.get(cls, 0) + 1
        elif len(result.escapes) < keep_escapes:
            result.escapes.append(fault.describe())
    return result


def coverage_table(
    algorithms: list[MarchTest],
    size: int = 32,
    classes: tuple[str, ...] = FAULT_CLASSES,
    coupling_pairs: int = 32,
) -> Table:
    """Coverage-vs-complexity comparison across algorithms (experiment
    E10: BRAINS's test-efficiency evaluation)."""
    table = Table(
        ["Algorithm", "Ops/cell"] + [f"{c}%" for c in classes] + ["Total%"],
        title=f"March fault coverage on a {size}-cell array",
    )
    for march in algorithms:
        result = simulate_coverage(march, size, classes, coupling_pairs)
        table.add_row(
            [march.name, march.complexity]
            + [f"{result.coverage(c):.0f}" for c in classes]
            + [f"{result.total_coverage:.1f}"]
        )
    return table
