"""Top-level SOC model: cores + memories + chip-level test resources.

The scheduler's key resource is the *test pin budget*: the number of chip
pads the tester can use during test.  Control IOs (clocks, resets, TE, SE)
are carved out of this budget first; whatever remains is TAM data width.
That interplay is the heart of the paper's Section 3 observation that
"parallel testing may not be better than serial testing".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.soc.core import Core
from repro.soc.memory import MemorySpec
from repro.util import check_name, check_non_negative, check_positive


@dataclass
class Soc:
    """A system-on-chip under test integration.

    Attributes:
        name: chip name.
        cores: embedded logic cores (wrapped or not).
        memories: embedded SRAMs (tested via BIST).
        test_pins: chip pads usable by the tester (control + TAM data).
        gate_count: logic gate count of the glue/unwrapped logic, in NAND2
            equivalents; total chip gates = this + Σ core gates (memories
            are counted separately, in bits).
        power_budget: maximum concurrent test power (0 = unconstrained;
            a negative or non-finite budget is refused).
    """

    name: str
    cores: list[Core] = field(default_factory=list)
    memories: list[MemorySpec] = field(default_factory=list)
    test_pins: int = 64
    gate_count: int = 0
    power_budget: float = 0.0

    def __post_init__(self) -> None:
        check_name(self.name, "SOC name")
        check_positive(self.test_pins, "test pin budget")
        check_non_negative(self.power_budget, "power budget")

    # -- construction ------------------------------------------------------

    def add_core(self, core: Core) -> Core:
        """Register a core (names must be unique across cores)."""
        if any(c.name == core.name for c in self.cores):
            raise ValueError(f"duplicate core {core.name!r} in SOC {self.name!r}")
        self.cores.append(core)
        return core

    def add_memory(self, memory: MemorySpec) -> MemorySpec:
        """Register an embedded memory (names must be unique)."""
        if any(m.name == memory.name for m in self.memories):
            raise ValueError(f"duplicate memory {memory.name!r} in SOC {self.name!r}")
        self.memories.append(memory)
        return memory

    # -- queries -----------------------------------------------------------

    def core(self, name: str) -> Core:
        """Look up a core by name."""
        for core in self.cores:
            if core.name == name:
                return core
        raise KeyError(f"SOC {self.name!r} has no core {name!r}")

    def memory(self, name: str) -> MemorySpec:
        """Look up a memory by name."""
        for memory in self.memories:
            if memory.name == name:
                return memory
        raise KeyError(f"SOC {self.name!r} has no memory {name!r}")

    @property
    def wrapped_cores(self) -> list[Core]:
        """Cores that receive an IEEE-1500-style wrapper."""
        return [c for c in self.cores if c.wrapped]

    @property
    def total_core_gates(self) -> int:
        """Σ gate counts over all cores."""
        return sum(c.gate_count for c in self.cores)

    @property
    def total_gates(self) -> int:
        """Chip logic size: glue + cores, NAND2 equivalents."""
        return self.gate_count + self.total_core_gates

    @property
    def total_memory_bits(self) -> int:
        """Total embedded SRAM capacity in bits."""
        return sum(m.capacity_bits for m in self.memories)

    def digest(self) -> str:
        """The chip's stable content address (sha256 hex).

        Taken over the canonical serialization in
        :mod:`repro.soc.digest`: equal for structurally identical chips
        no matter how they were built, different under any core / pin /
        power / memory mutation.  ``repro.serve`` keys its result cache
        on it; fuzz campaigns can dedupe chips by it.
        """
        from repro.soc.digest import soc_digest

        return soc_digest(self)

    def describe(self) -> str:
        """One-line chip summary for reports."""
        return (
            f"{self.name}: {len(self.cores)} cores, {len(self.memories)} memories, "
            f"{self.total_gates:,} gates, {self.total_memory_bits:,} memory bits, "
            f"{self.test_pins} test pins"
        )
