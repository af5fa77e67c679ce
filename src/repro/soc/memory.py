"""Embedded memory (SRAM) specifications.

The DSC chip embeds "tens of single-port and two-port synchronous SRAMs
with different sizes"; BRAINS generates one TPG per memory and shares a
controller/sequencer among them (paper, Fig. 2).  The spec here carries
exactly what BRAINS needs: geometry, port count, and synthesis-free area
and power estimates for the scheduling/overhead experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.util import check_name, check_non_negative, check_positive


class MemoryType(enum.Enum):
    """Port configuration of an embedded SRAM."""

    SINGLE_PORT = "SP"
    TWO_PORT = "TP"


@dataclass(frozen=True)
class RedundancySpec:
    """Repair resources of one embedded SRAM: spare word lines and spare
    bit lines, switched in by the BISR logic after diagnosis.

    A memory with no spares (``RedundancySpec(0, 0)``) is diagnosable but
    not repairable; :mod:`repro.repair` treats a missing spec the same way
    unless the caller supplies a default.
    """

    spare_rows: int = 0
    spare_cols: int = 0

    def __post_init__(self) -> None:
        check_non_negative(self.spare_rows, "spare row count")
        check_non_negative(self.spare_cols, "spare column count")

    @property
    def has_spares(self) -> bool:
        return self.spare_rows > 0 or self.spare_cols > 0

    def describe(self) -> str:
        """Human-readable spare summary, e.g. ``"2R+2C"``."""
        return f"{self.spare_rows}R+{self.spare_cols}C"


@dataclass(frozen=True)
class MemorySpec:
    """Geometry and test attributes of one embedded SRAM.

    Attributes:
        name: instance name, unique within the SOC.
        words: number of addressable words.
        bits: word width in bits.
        mem_type: single-port or two-port.
        freq_mhz: BIST shift/march frequency for time-in-seconds reports.
        power: abstract test-power units drawn while under BIST (used by
            power-constrained BIST scheduling).  Finite and non-negative.
        redundancy: spare rows/columns available for repair (None = the
            array ships without repair resources).
    """

    name: str
    words: int
    bits: int
    mem_type: MemoryType = MemoryType.SINGLE_PORT
    freq_mhz: float = 100.0
    power: float = 1.0
    redundancy: Optional[RedundancySpec] = None

    def __post_init__(self) -> None:
        check_name(self.name, "memory name")
        check_positive(self.words, "word count")
        check_positive(self.bits, "bit width")
        check_positive(self.freq_mhz, "frequency")
        check_non_negative(self.power, "memory power")

    @property
    def capacity_bits(self) -> int:
        """Total storage in bits."""
        return self.words * self.bits

    @property
    def address_bits(self) -> int:
        """Address bus width: ceil(log2(words))."""
        return max(1, (self.words - 1).bit_length())

    @property
    def is_two_port(self) -> bool:
        return self.mem_type is MemoryType.TWO_PORT

    def describe(self) -> str:
        """Human-readable geometry, e.g. ``"16Kx16 SP"``."""
        words = self.words
        if words % 1024 == 0:
            word_str = f"{words // 1024}K"
        else:
            word_str = str(words)
        return f"{word_str}x{self.bits} {self.mem_type.value}"
