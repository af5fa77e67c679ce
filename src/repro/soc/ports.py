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
from collections.abc import Iterable
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
    def is_test(self) -> bool:
        """True for any non-functional (test-dedicated) signal."""
        return self is not SignalKind.FUNCTIONAL


@dataclass(frozen=True)
class Port:
    """A single-bit or multi-bit core terminal, or a run of terminals.

    Attributes:
        name: identifier, unique within the owning core.
        direction: :class:`Direction` of the port.
        kind: :class:`SignalKind` — functional vs the various test roles.
        width: number of bits (ports wider than 1 count ``width`` times in
            all IO tallies, matching how pads are counted on silicon).
        clock_domain: for clocks and scan pins, the clock-domain name this
            port belongs to (used for scan IO sharing legality checks).
        run: ``n`` makes this one value stand for ``n`` single-bit
            functional terminals ``{name}0 … {name}{n-1}`` (an ITC'02
            terminal group), named by :mod:`repro.soc.bits` on demand.
    """

    name: str
    direction: Direction
    kind: SignalKind = SignalKind.FUNCTIONAL
    width: int = 1
    clock_domain: str | None = None
    run: int | None = None

    def __post_init__(self) -> None:
        check_name(self.name, "port name")
        # the chip digest writes a width by its value, so a bool or a
        # float would pass for an int there (True for 1, 2.0 for 2)
        if type(self.width) is not int:
            raise ValueError(f"port {self.name!r}: width must be an int, got {self.width!r}")
        check_positive(self.width, "port width")
        if self.run is not None:
            if type(self.run) is not int:
                raise ValueError(f"port {self.name!r}: run must be an int, got {self.run!r}")
            if self.width != 1 or self.kind is not SignalKind.FUNCTIONAL:
                raise ValueError(f"run {self.name!r} must be of single-bit functional terminals")
            check_positive(self.run, "run length")
        if self.kind in (SignalKind.CLOCK, SignalKind.RESET) and self.direction is not Direction.IN:
            raise ValueError(f"{self.kind.value} port {self.name!r} must be an input")
        if self.kind is SignalKind.SCAN_IN and self.direction is not Direction.IN:
            raise ValueError(f"scan-in port {self.name!r} must be an input")
        if self.kind is SignalKind.SCAN_OUT and self.direction is not Direction.OUT:
            raise ValueError(f"scan-out port {self.name!r} must be an output")

    @property
    def is_input(self) -> bool:
        return self.direction is Direction.IN


def bit_tally(ports: Iterable[Port], test: bool = False) -> tuple[int, int, int]:
    """(input, output, inout) bits over the functional ports, or over
    the test ports with ``test``, counted without naming a bit."""
    tally = dict.fromkeys(Direction, 0)
    for port in ports:
        if port.kind.is_test is test:
            tally[port.direction] += port.width * (port.run or 1)
    return tally[Direction.IN], tally[Direction.OUT], tally[Direction.INOUT]


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
        ti, to, tio = bit_tally(ports, test=True)
        pi, po, pio = bit_tally(ports)
        return cls(ti=ti + tio, to=to + tio, pi=pi + pio, po=po + pio)
