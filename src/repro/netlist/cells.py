"""Standard-cell library with NAND2-equivalent areas.

The paper quotes all DFT overhead in "two-input NAND gates" (the WBR cell
is "equivalent to 26 two-input NAND gates"; the test controller and TAM
mux "require about 371 and 132 gates").  We therefore measure every
generated circuit in NAND2 equivalents, using a small library with
representative area ratios for a 0.25 µm standard-cell process.

Combinational cells carry their logic twice: ``func`` over 3-valued
logic (0, 1, X) for the simulator and PODEM, and ``word`` over 64
patterns packed into one integer for bit-parallel fault simulation.
Sequential cells (DFF variants, latches) are state elements handled by
the simulator.  This table is the one place that knows what a cell does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: Logic values used by the simulator: 0, 1 and unknown.
LOW, HIGH, X = 0, 1, 2


def _and2(a: int, b: int) -> int:
    if a == LOW or b == LOW:
        return LOW
    if a == HIGH and b == HIGH:
        return HIGH
    return X


def _or2(a: int, b: int) -> int:
    if a == HIGH or b == HIGH:
        return HIGH
    if a == LOW and b == LOW:
        return LOW
    return X


def _not(a: int) -> int:
    if a == LOW:
        return HIGH
    if a == HIGH:
        return LOW
    return X


def _xor2(a: int, b: int) -> int:
    if X in (a, b):
        return X
    return a ^ b


def _mux2(d0: int, d1: int, s: int) -> int:
    if s == LOW:
        return d0
    if s == HIGH:
        return d1
    # unknown select: output known only if both data inputs agree
    return d0 if d0 == d1 else X


@dataclass(frozen=True)
class Cell:
    """A library cell.

    Attributes:
        name: cell name (e.g. ``"NAND2"``).
        inputs: ordered input pin names.
        outputs: ordered output pin names (all our cells have one).
        area: NAND2-equivalent gate count.
        func: for combinational cells, maps input values (in pin order)
            to the output value; ``None`` for sequential cells.
        word: for combinational cells, ``func``'s logic on 0/1 values
            packed one pattern per bit into integers; the result may set
            bits above the packed patterns (``~`` makes it negative), so
            callers mask it.  ``None`` for sequential cells.
        inverting: the cell inverts its inputs' polarity (INV, NAND,
            NOR, XNOR): a backtrace through it flips its objective.
        controlling: the input value that alone decides the output (0
            for AND/NAND, 1 for OR/NOR); ``None`` if no single input does.
        sequential: True for flip-flops and latches.
        transparent: True for a latch, which passes ``data_pin`` while
            its ``clock_pin`` is high instead of sampling it on an edge.
        clock_pin / data_pin / reset_pin / enable_pin: pin roles for
            sequential cells (reset is active-low asynchronous).
        scan_in_pin / scan_enable_pin: a scan flip-flop's SI and SE
            pins; it captures ``scan_in_pin`` while ``scan_enable_pin``
            is high.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    area: float
    func: Optional[Callable[..., int]] = None
    word: Optional[Callable[..., int]] = None
    inverting: bool = False
    controlling: Optional[int] = None
    sequential: bool = False
    transparent: bool = False
    clock_pin: Optional[str] = None
    data_pin: Optional[str] = None
    reset_pin: Optional[str] = None
    enable_pin: Optional[str] = None
    scan_in_pin: Optional[str] = None
    scan_enable_pin: Optional[str] = None

    @property
    def output(self) -> str:
        """The single output pin name."""
        return self.outputs[0]

    @property
    def pins(self) -> tuple[str, ...]:
        return self.inputs + self.outputs


#: The library, keyed by cell name.  Areas in NAND2 equivalents.
LIBRARY: dict[str, Cell] = {}


def _register(cell: Cell) -> Cell:
    LIBRARY[cell.name] = cell
    return cell


def _comb(name: str, inputs: tuple[str, ...], area: float, func, word, **roles) -> Cell:
    return _register(Cell(name, inputs, ("Y",), area, func=func, word=word, **roles))


def _seq(name: str, inputs: tuple[str, ...], area: float, **pins) -> Cell:
    return _register(Cell(name, inputs, ("Q",), area, sequential=True, **pins))


INV = _comb("INV", ("A",), 0.7, _not, lambda a: ~a, inverting=True)
BUF = _comb("BUF", ("A",), 1.0, lambda a: a, lambda a: a)
NAND2 = _comb("NAND2", ("A", "B"), 1.0, lambda a, b: _not(_and2(a, b)),
              lambda a, b: ~(a & b), inverting=True, controlling=LOW)
NAND3 = _comb("NAND3", ("A", "B", "C"), 1.5, lambda a, b, c: _not(_and2(_and2(a, b), c)),
              lambda a, b, c: ~(a & b & c), inverting=True, controlling=LOW)
NOR2 = _comb("NOR2", ("A", "B"), 1.0, lambda a, b: _not(_or2(a, b)),
             lambda a, b: ~(a | b), inverting=True, controlling=HIGH)
NOR3 = _comb("NOR3", ("A", "B", "C"), 1.5, lambda a, b, c: _not(_or2(_or2(a, b), c)),
             lambda a, b, c: ~(a | b | c), inverting=True, controlling=HIGH)
AND2 = _comb("AND2", ("A", "B"), 1.5, _and2, lambda a, b: a & b, controlling=LOW)
AND3 = _comb("AND3", ("A", "B", "C"), 2.0, lambda a, b, c: _and2(_and2(a, b), c),
             lambda a, b, c: a & b & c, controlling=LOW)
OR2 = _comb("OR2", ("A", "B"), 1.5, _or2, lambda a, b: a | b, controlling=HIGH)
OR3 = _comb("OR3", ("A", "B", "C"), 2.0, lambda a, b, c: _or2(_or2(a, b), c),
            lambda a, b, c: a | b | c, controlling=HIGH)
XOR2 = _comb("XOR2", ("A", "B"), 2.5, _xor2, lambda a, b: a ^ b)
XNOR2 = _comb("XNOR2", ("A", "B"), 2.5, lambda a, b: _not(_xor2(a, b)),
              lambda a, b: ~(a ^ b), inverting=True)
MUX2 = _comb("MUX2", ("D0", "D1", "S"), 2.5, _mux2, lambda d0, d1, s: (d0 & ~s) | (d1 & s))
TIE0 = _comb("TIE0", (), 0.5, lambda: LOW, lambda: 0)
TIE1 = _comb("TIE1", (), 0.5, lambda: HIGH, lambda: -1)

DFF = _seq("DFF", ("D", "CK"), 7.0, clock_pin="CK", data_pin="D")
DFFR = _seq("DFFR", ("D", "CK", "RN"), 8.0, clock_pin="CK", data_pin="D", reset_pin="RN")
DFFE = _seq("DFFE", ("D", "CK", "E"), 9.0, clock_pin="CK", data_pin="D", enable_pin="E")
# Scan flip-flop: D/SI muxed by SE in front of a DFF.
SDFF = _seq("SDFF", ("D", "SI", "SE", "CK"), 9.5, clock_pin="CK", data_pin="D",
            scan_in_pin="SI", scan_enable_pin="SE")
# Transparent-high latch (used as the WBC update stage).
DLATCH = _seq("DLATCH", ("D", "G"), 4.0, transparent=True, clock_pin="G", data_pin="D")


def cell(name: str) -> Cell:
    """Look up a library cell by name."""
    try:
        return LIBRARY[name]
    except KeyError:
        raise KeyError(f"no cell {name!r} in library") from None
