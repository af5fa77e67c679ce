"""The ``Core`` model — one embedded IP with its test information.

This is the semantic object the whole platform operates on: the STIL
parser produces it, the scheduler consumes it, the wrapper generator wraps
it.  It mirrors exactly the information the paper lists in Table 1 (TI,
TO, PI, PO, scan chains and lengths, pattern counts) plus what Section 3
describes in prose (clock domains, resets, test enables, scan enables).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from repro.soc.bits import expand_port_bits
from repro.soc.clocks import ClockDomain
from repro.soc.ports import Port, PortCounts, SignalKind
from repro.soc.scan import ScanChain, total_flops
from repro.soc.tests import CoreTest, TestKind
from repro.util import check_name, check_non_negative


class CoreType(enum.Enum):
    """Hard cores have frozen scan stitching; soft cores can be
    re-stitched (rebalanced) for an assigned TAM width; legacy cores have
    no scan at all (the DSC's JPEG codec is legacy)."""

    HARD = "hard"
    SOFT = "soft"
    LEGACY = "legacy"


@dataclass
class ControlNeeds:
    """Per-class control-IO requirement of a core during test.

    The paper's accounting for the DSC chip: USB needs 4 clocks + 3 resets
    + 6 test signals + 1 SE = 14; TV needs 1+1+1(TE)+1(SE) = 4; JPEG needs
    1 clock = 1; total 19.
    """

    clocks: int = 0
    resets: int = 0
    test_enables: int = 0
    scan_enables: int = 0

    @property
    def total(self) -> int:
        return self.clocks + self.resets + self.test_enables + self.scan_enables

    def __add__(self, other: "ControlNeeds") -> "ControlNeeds":
        return ControlNeeds(
            clocks=self.clocks + other.clocks,
            resets=self.resets + other.resets,
            test_enables=self.test_enables + other.test_enables,
            scan_enables=self.scan_enables + other.scan_enables,
        )


@dataclass
class Core:
    """An embedded IP core and its complete test information.

    Attributes:
        name: core instance name.
        core_type: hard / soft / legacy (see :class:`CoreType`).
        ports: all core terminals, functional and test.
        scan_chains: internal scan chains (empty for legacy cores).
        tests: the tests to run on this core.
        clock_domains: clock domains the core spans.
        gate_count: logic size in NAND2-equivalent gates (area accounting).
        wrapped: whether STEAC should put an IEEE-1500-style wrapper around
            this core (the DSC wraps USB, TV and JPEG but not the
            processor or glue logic).
    """

    name: str
    core_type: CoreType = CoreType.HARD
    ports: list[Port] = field(default_factory=list)
    scan_chains: list[ScanChain] = field(default_factory=list)
    tests: list[CoreTest] = field(default_factory=list)
    clock_domains: list[ClockDomain] = field(default_factory=list)
    gate_count: int = 0
    wrapped: bool = True

    def __post_init__(self) -> None:
        check_name(self.name, "core name")
        check_non_negative(self.gate_count, "gate count")
        seen: set[str] = set()
        for port in self.ports:  # a run by its bits, any other port by its name
            for name in expand_port_bits(port) if port.run else (port.name,):
                if name in seen:
                    raise ValueError(f"duplicate port {name!r} on core {self.name!r}")
                seen.add(name)
        port_names = seen
        for chain in self.scan_chains:
            if chain.scan_in not in port_names:
                raise ValueError(
                    f"scan chain {chain.name!r} of core {self.name!r} references "
                    f"unknown scan-in port {chain.scan_in!r}"
                )
            if chain.scan_out not in port_names:
                raise ValueError(
                    f"scan chain {chain.name!r} of core {self.name!r} references "
                    f"unknown scan-out port {chain.scan_out!r}"
                )

    # -- port queries -----------------------------------------------------

    def port(self, name: str) -> Port:
        """Look up a port by name (raises ``KeyError`` if absent)."""
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"core {self.name!r} has no port {name!r}")

    def ports_of_kind(self, kind: SignalKind) -> list[Port]:
        """All ports of the given signal class."""
        return [p for p in self.ports if p.kind is kind]

    @property
    def counts(self) -> PortCounts:
        """Table-1 style TI/TO/PI/PO tally."""
        return PortCounts.of(self.ports)

    # -- scan queries -----------------------------------------------------

    @property
    def has_scan(self) -> bool:
        return bool(self.scan_chains)

    @property
    def scan_flops(self) -> int:
        """Total scan flip-flops in the core."""
        return total_flops(self.scan_chains)

    @property
    def chain_lengths(self) -> list[int]:
        """Scan chain lengths, in declaration order."""
        return [c.length for c in self.scan_chains]

    @property
    def is_soft(self) -> bool:
        return self.core_type is CoreType.SOFT

    # -- test queries -----------------------------------------------------

    @property
    def scan_patterns(self) -> int:
        """Total scan patterns over all scan tests."""
        return sum(t.patterns for t in self.tests if t.kind is TestKind.SCAN)

    @property
    def functional_patterns(self) -> int:
        """Total functional patterns over all functional tests."""
        return sum(t.patterns for t in self.tests if t.kind is TestKind.FUNCTIONAL)

    @property
    def control_needs(self) -> ControlNeeds:
        """Control-IO requirement while this core is under test.

        Clocks count one pin per clock domain (the PLL is bypassed in
        test); resets, test-enables (including generic dedicated test
        signals) and scan-enables are tallied from the port list.
        """
        kinds = Counter(p.kind for p in self.ports)
        return ControlNeeds(
            clocks=kinds[SignalKind.CLOCK],
            resets=kinds[SignalKind.RESET],
            test_enables=kinds[SignalKind.TEST_ENABLE] + kinds[SignalKind.TEST],
            scan_enables=kinds[SignalKind.SCAN_ENABLE],
        )

    def summary_row(self) -> list[object]:
        """One row of the paper's Table 1 for this core."""
        counts = self.counts
        chains = (
            f"{len(self.scan_chains)} ({', '.join(str(c.length) for c in self.scan_chains)})"
            if self.scan_chains
            else "No scan"
        )
        pattern_bits = []
        for test in self.tests:
            label = {"scan": "Scan", "functional": "Func.", "bist": "BIST"}[test.kind.value]
            pattern_bits.append(f"{test.patterns:,} ({label})")
        return [self.name, counts.ti, counts.to, counts.pi, counts.po, chains, "; ".join(pattern_bits)]
