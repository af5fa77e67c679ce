"""Clock-domain and PLL models.

The DSC chip generates core clocks from an internal PLL; during test the
clock pins are driven from the tester (bypassing the PLL), which is why
each clock domain consumes a test control IO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class Pll:
    """An on-chip PLL that generates a set of clock domains.

    During scan/functional test the PLL is bypassed and the domains are
    sourced from chip-level test clock pins, so :attr:`bypassed_domains`
    lists what the test controller must route from pads.
    """

    name: str
    ref_clock: str = "xin"
    domains: list[ClockDomain] = field(default_factory=list)

    def add_domain(self, name: str, freq_mhz: float = 100.0) -> ClockDomain:
        """Register and return a generated clock domain."""
        domain = ClockDomain(name, freq_mhz)
        if any(d.name == name for d in self.domains):
            raise ValueError(f"duplicate clock domain {name!r} on PLL {self.name!r}")
        self.domains.append(domain)
        return domain

    @property
    def bypassed_domains(self) -> list[str]:
        """Domain names that need chip-level test clock pins."""
        return [d.name for d in self.domains]
