"""March test algorithms and notation.

BRAINS sequencers "generate March-based test algorithms" (paper, Fig. 2).
A March test is a sequence of *elements*; each element walks the address
space in a direction (⇑ up, ⇓ down, ⇕ either) applying a fixed sequence
of read/write operations per cell.

ASCII notation (parse/format round-trips)::

    March C-:  {*(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0); *(r0)}

``^`` = ascending, ``v`` = descending, ``*`` = either order; ops are
``r0 r1 w0 w1``.  An element may be prefixed with ``pause,`` to request a
retention pause before it (used by the data-retention variants).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Op(enum.Enum):
    """A per-cell March operation."""

    R0 = "r0"  # read, expect 0
    R1 = "r1"  # read, expect 1
    W0 = "w0"  # write 0
    W1 = "w1"  # write 1

    @property
    def is_read(self) -> bool:
        return self in (Op.R0, Op.R1)

    @property
    def is_write(self) -> bool:
        return not self.is_read

    @property
    def value_bit(self) -> int:
        """The data bit involved (expected value for reads)."""
        return 1 if self in (Op.R1, Op.W1) else 0


class Order(enum.Enum):
    """Address sweep direction of a March element."""

    UP = "^"
    DOWN = "v"
    EITHER = "*"


@dataclass(frozen=True)
class MarchElement:
    """One March element: an address order and a per-cell op sequence.

    ``pause_before`` requests a data-retention pause before the sweep.
    """

    order: Order
    ops: tuple[Op, ...]
    pause_before: bool = False

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("a March element needs at least one operation")

    def addresses(self, size: int) -> range:
        """The sweep over a ``size``-cell array: descending for ``v``,
        ascending for ``^`` and ``*``."""
        return range(size - 1, -1, -1) if self.order is Order.DOWN else range(size)

    def format(self) -> str:
        body = ",".join(op.value for op in self.ops)
        prefix = "pause," if self.pause_before else ""
        return f"{prefix}{self.order.value}({body})"


@dataclass(frozen=True)
class MarchTest:
    """A named March test algorithm."""

    name: str
    elements: tuple[MarchElement, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a March test needs at least one element")

    @property
    def complexity(self) -> int:
        """Operations per cell (the 'xN' in 'March C- is a 10N test')."""
        return sum(len(e.ops) for e in self.elements)

    def operation_count(self, words: int) -> int:
        """Total RAM operations over a ``words``-cell array."""
        return self.complexity * words

    def format(self) -> str:
        """Canonical ASCII notation."""
        return "{" + "; ".join(e.format() for e in self.elements) + "}"

    def __str__(self) -> str:
        return f"{self.name} {self.format()}"


def parse_march(text: str, name: str = "custom") -> MarchTest:
    """Parse the ASCII March notation (inverse of :meth:`MarchTest.format`)."""
    body = text.strip()
    if body.startswith("{"):
        if not body.endswith("}"):
            raise ValueError(f"unbalanced braces in March notation: {text!r}")
        body = body[1:-1]
    elements: list[MarchElement] = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        pause = False
        if chunk.startswith("pause,"):
            pause = True
            chunk = chunk[len("pause,") :].strip()
        if not chunk or chunk[0] not in "^v*":
            raise ValueError(f"March element must start with ^, v or *: {chunk!r}")
        order = Order(chunk[0])
        ops_text = chunk[1:].strip()
        if not (ops_text.startswith("(") and ops_text.endswith(")")):
            raise ValueError(f"March element ops must be parenthesized: {chunk!r}")
        ops = tuple(Op(tok.strip()) for tok in ops_text[1:-1].split(",") if tok.strip())
        elements.append(MarchElement(order=order, ops=ops, pause_before=pause))
    return MarchTest(name=name, elements=tuple(elements))


def _mk(name: str, notation: str) -> MarchTest:
    return parse_march(notation, name=name)


#: The classic algorithms BRAINS ships (complexities in parentheses).
MATS = _mk("MATS", "{*(w0); *(r0,w1); *(r1)}")                                   # 4N
MATS_PLUS = _mk("MATS+", "{*(w0); ^(r0,w1); v(r1,w0)}")                          # 5N
MATS_PP = _mk("MATS++", "{*(w0); ^(r0,w1); v(r1,w0,r0)}")                        # 6N
MARCH_X = _mk("March X", "{*(w0); ^(r0,w1); v(r1,w0); *(r0)}")                   # 6N
MARCH_Y = _mk("March Y", "{*(w0); ^(r0,w1,r1); v(r1,w0,r0); *(r0)}")             # 8N
MARCH_C_MINUS = _mk(
    "March C-", "{*(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0); *(r0)}"
)                                                                                 # 10N
MARCH_C = _mk(
    "March C", "{*(w0); ^(r0,w1); ^(r1,w0); *(r0); v(r0,w1); v(r1,w0); *(r0)}"
)                                                                                 # 11N
MARCH_A = _mk(
    "March A", "{*(w0); ^(r0,w1,w0,w1); ^(r1,w0,w1); v(r1,w0,w1,w0); v(r0,w1,w0)}"
)                                                                                 # 15N
MARCH_B = _mk(
    "March B",
    "{*(w0); ^(r0,w1,r1,w0,r0,w1); ^(r1,w0,w1); v(r1,w0,w1,w0); v(r0,w1,w0)}",
)                                                                                 # 17N
MARCH_SS = _mk(
    "March SS",
    "{*(w0); ^(r0,r0,w0,r0,w1); ^(r1,r1,w1,r1,w0); "
    "v(r0,r0,w0,r0,w1); v(r1,r1,w1,r1,w0); *(r0)}",
)                                                                                 # 22N

#: All shipped algorithms, cheapest first.
ALGORITHMS: tuple[MarchTest, ...] = (
    MATS,
    MATS_PLUS,
    MATS_PP,
    MARCH_X,
    MARCH_Y,
    MARCH_C_MINUS,
    MARCH_C,
    MARCH_A,
    MARCH_B,
    MARCH_SS,
)


def algorithm(name: str) -> MarchTest:
    """Look up a shipped March algorithm by name (case-insensitive)."""
    for test in ALGORITHMS:
        if test.name.lower() == name.lower():
            return test
    raise KeyError(f"no March algorithm named {name!r}")


def with_retention(test: MarchTest) -> MarchTest:
    """Data-retention variant.

    A pause detects cells that leak to value ``d`` only if it happens
    while the cells hold ``1-d`` and the next operation reads that value,
    so one pause per polarity is inserted: before the first element whose
    leading op is ``r0`` (catches leak-to-1) and before the first whose
    leading op is ``r1`` (catches leak-to-0).  Raises if the test cannot
    host both pauses (no read-first element of some polarity).
    """
    pause_r0 = next(
        (i for i, e in enumerate(test.elements) if e.ops[0] is Op.R0), None
    )
    pause_r1 = next(
        (i for i, e in enumerate(test.elements) if e.ops[0] is Op.R1), None
    )
    if pause_r0 is None or pause_r1 is None:
        raise ValueError(
            f"{test.name!r} has no read-first element of each polarity; "
            "cannot build a retention variant"
        )
    elements = []
    for i, element in enumerate(test.elements):
        if i in (pause_r0, pause_r1):
            element = MarchElement(element.order, element.ops, pause_before=True)
        elements.append(element)
    return MarchTest(name=f"{test.name} +ret", elements=tuple(elements))
