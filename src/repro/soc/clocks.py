"""Clock-domain model.

The DSC chip generates core clocks from an internal PLL; during test the
clock pins are driven from the tester (bypassing the PLL), which is why
each clock domain consumes a test control IO.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import check_name, check_positive


@dataclass(frozen=True)
class ClockDomain:
    """A named clock domain with a nominal test frequency.

    Attributes:
        name: domain identifier (e.g. ``"usb_clk48"``).
        freq_mhz: nominal frequency used for test-time-to-seconds
            conversions in reports; scheduling itself works in cycles.
    """

    name: str
    freq_mhz: float = 100.0

    def __post_init__(self) -> None:
        check_name(self.name, "clock domain name")
        check_positive(self.freq_mhz, "clock frequency")
