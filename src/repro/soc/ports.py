"""Port and signal-class model for cores and chips.

Every core advertises its IO as a list of :class:`Port` objects.  The
*signal class* (:class:`SignalKind`) drives two things downstream:

* Table-1 style accounting — ``TI`` (dedicated test inputs), ``TO``
  (dedicated test outputs), ``PI``/``PO`` (functional IOs); and
* test-IO allocation — clocks / resets / test-enables / scan-enables are
  *control* IOs that must be driven for the whole duration of a core's
  test, while scan-in/out and functional pins are *data* IOs that ride on
  the TAM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util import check_name, check_positive


class Direction(enum.Enum):
    """Port direction as seen from the core."""

    IN = "input"
    OUT = "output"
    INOUT = "inout"


class SignalKind(enum.Enum):
    """Functional role of a port, following the paper's Table 1 taxonomy."""

    FUNCTIONAL = "functional"
    CLOCK = "clock"
    RESET = "reset"
    TEST_ENABLE = "test_enable"
    SCAN_ENABLE = "scan_enable"
    SCAN_IN = "scan_in"
    SCAN_OUT = "scan_out"
    TEST = "test"  # generic dedicated test signal (USB has 6 of these)

    @property
    def is_control(self) -> bool:
        """True for signals that occupy a control IO during test."""
        return self in _CONTROL_KINDS

    @property
    def is_test(self) -> bool:
        """True for any non-functional (test-dedicated) signal."""
        return self is not SignalKind.FUNCTIONAL


_CONTROL_KINDS = frozenset(
    {
        SignalKind.CLOCK,
        SignalKind.RESET,
        SignalKind.TEST_ENABLE,
        SignalKind.SCAN_ENABLE,
        SignalKind.TEST,
    }
)


@dataclass(frozen=True)
class Port:
    """A single-bit or multi-bit core terminal.

    Attributes:
        name: identifier, unique within the owning core.
        direction: :class:`Direction` of the port.
        kind: :class:`SignalKind` — functional vs the various test roles.
        width: number of bits (ports wider than 1 count ``width`` times in
            all IO tallies, matching how pads are counted on silicon).
        clock_domain: for clocks and scan pins, the clock-domain name this
            port belongs to (used for scan IO sharing legality checks).
    """

    name: str
    direction: Direction
    kind: SignalKind = SignalKind.FUNCTIONAL
    width: int = 1
    clock_domain: str | None = None

    def __post_init__(self) -> None:
        check_name(self.name, "port name")
        check_positive(self.width, "port width")
        if self.kind in (SignalKind.CLOCK, SignalKind.RESET) and self.direction is not Direction.IN:
            raise ValueError(f"{self.kind.value} port {self.name!r} must be an input")
        if self.kind is SignalKind.SCAN_IN and self.direction is not Direction.IN:
            raise ValueError(f"scan-in port {self.name!r} must be an input")
        if self.kind is SignalKind.SCAN_OUT and self.direction is not Direction.OUT:
            raise ValueError(f"scan-out port {self.name!r} must be an output")

    @property
    def is_input(self) -> bool:
        return self.direction is Direction.IN

    @property
    def is_output(self) -> bool:
        return self.direction is Direction.OUT


@dataclass
class PortCounts:
    """Table-1 style IO tally for a core.

    ``ti``/``to`` count test-dedicated input/output *bits*, ``pi``/``po``
    count functional input/output bits (inouts count on both sides, as pads
    do).
    """

    ti: int = 0
    to: int = 0
    pi: int = 0
    po: int = 0

    @classmethod
    def of(cls, ports: list[Port]) -> "PortCounts":
        """Tally a port list into TI/TO/PI/PO counts."""
        counts = cls()
        for port in ports:
            w = port.width
            test = port.kind.is_test
            if port.direction in (Direction.IN, Direction.INOUT):
                if test:
                    counts.ti += w
                else:
                    counts.pi += w
            if port.direction in (Direction.OUT, Direction.INOUT):
                if test:
                    counts.to += w
                else:
                    counts.po += w
        return counts
