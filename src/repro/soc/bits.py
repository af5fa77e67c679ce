"""Bit-level port expansion: the one place a port's bits get names.

A run (``Port(run=n)``, an ITC'02 terminal group) is ``{name}0 …
{name}{n-1}``; a multi-bit port is ``d[3] d[2] …``, MSB first.  Names
are made only where bit granularity matters (the duplicate check, the
canonical digest form, STIL signal lists, wrapper boundary cells,
pattern drive/expect order), so every consumer agrees on bit order;
tallies count bits without names (:func:`repro.soc.ports.bit_tally`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.soc.ports import Direction, Port, SignalKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.soc.core import Core


def expand_port_bits(port: Port) -> list[str]:
    """Bit-expanded signal names for a port (MSB first for buses)."""
    if port.run:
        return [f"{port.name}{i}" for i in range(port.run)]
    if port.width == 1:
        return [port.name]
    return [f"{port.name}[{i}]" for i in range(port.width - 1, -1, -1)]


def functional_signal_order(core: Core) -> tuple[list[str], list[str]]:
    """(pi_order, po_order): bit-expanded functional signal lists for a
    core, in port-declaration order — the canonical drive/expect order."""
    functional = [p for p in core.ports if p.kind is SignalKind.FUNCTIONAL]
    pi = [bit for p in functional if p.direction is not Direction.OUT for bit in expand_port_bits(p)]
    po = [bit for p in functional if p.direction is not Direction.IN for bit in expand_port_bits(p)]
    return pi, po
