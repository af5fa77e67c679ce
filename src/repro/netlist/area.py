"""Area accounting and overhead reports in NAND2-equivalent gates.

Reproduces the paper's Section 3 accounting style: per-block gate counts
for the generated DFT circuitry and the overhead percentage relative to
the chip ("the Test Controller and TAM multiplexer require about 371 and
132 gates, respectively — their hardware overhead is only about 0.3%").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.netlist.cells import LIBRARY
from repro.util import Table, format_gates


def cell_area(cells: Mapping[str, int]) -> float:
    """NAND2-equivalent area of a leaf-cell histogram: Σ count × the
    cell's :data:`LIBRARY` area."""
    return sum(n * LIBRARY[name].area for name, n in cells.items())


@dataclass
class AreaItem:
    """One line of an area report."""

    name: str
    gates: float
    note: str = ""


@dataclass
class AreaReport:
    """DFT area overhead relative to a chip's functional gate count."""

    chip_gates: float
    items: list[AreaItem] = field(default_factory=list)

    def add(self, name: str, gates: float, note: str = "") -> None:
        """Add a DFT block to the report."""
        self.items.append(AreaItem(name, gates, note))

    @property
    def dft_gates(self) -> float:
        """Total generated DFT gates."""
        return sum(item.gates for item in self.items)

    @property
    def overhead_percent(self) -> float:
        """DFT gates as a percentage of chip functional gates."""
        if self.chip_gates <= 0:
            return 0.0
        return 100.0 * self.dft_gates / self.chip_gates

    def render(self) -> str:
        """Render the report as an ASCII table with an overhead line."""
        table = Table(["DFT block", "Gates", "Note"], title="DFT area overhead")
        for item in self.items:
            table.add_row([item.name, f"{item.gates:.1f}", item.note])
        lines = [
            table.render(),
            f"total DFT: {format_gates(self.dft_gates)} on a "
            f"{format_gates(self.chip_gates)} chip -> {self.overhead_percent:.2f}% overhead",
        ]
        return "\n".join(lines)
