"""Memory fault models.

The classical single-fault population March theory addresses (van de
Goor): stuck-at, transition, coupling (inversion / idempotent / state),
stuck-open, address-decoder, and data-retention faults.  Each model
subclasses :class:`repro.bist.memory_model.FaultModel` and intercepts
read/write/pause.

Conventions: ``a`` = aggressor address, ``v`` = victim address (a ≠ v);
transitions are named from the *write* that causes them (``up`` = 0→1).
"""

from __future__ import annotations

import itertools
import random

from repro.bist.memory_model import FaultModel, MemoryState


class StuckAtFault(FaultModel):
    """SAF: the cell permanently holds ``stuck_value``."""

    def __init__(self, cell: int, stuck_value: int):
        self.cell = cell
        self.stuck_value = stuck_value & 1
        self.name = f"SAF{self.stuck_value}"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.cell,)

    def on_inject(self, state: MemoryState) -> None:
        state.cells[self.cell] = self.stuck_value

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        if addr != self.cell:
            state.cells[addr] = value

    def apply_read(self, state: MemoryState, addr: int) -> int:
        if addr == self.cell:
            return self.stuck_value
        return state.cells[addr]


class TransitionFault(FaultModel):
    """TF: the cell cannot make one transition (``rising=True`` = 0→1)."""

    def __init__(self, cell: int, rising: bool):
        self.cell = cell
        self.rising = rising
        self.name = "TF_UP" if rising else "TF_DOWN"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.cell,)

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        if addr == self.cell:
            old = state.cells[addr]
            if self.rising and old == 0 and value == 1:
                return  # 0 -> 1 fails
            if not self.rising and old == 1 and value == 0:
                return  # 1 -> 0 fails
        state.cells[addr] = value


class InversionCouplingFault(FaultModel):
    """CFin ⟨t; ↕⟩: a ``t`` transition of the aggressor inverts the victim."""

    def __init__(self, aggressor: int, victim: int, rising: bool):
        if aggressor == victim:
            raise ValueError("aggressor and victim must differ")
        self.aggressor = aggressor
        self.victim = victim
        self.rising = rising
        self.name = f"CFin{'↑' if rising else '↓'}"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.aggressor, self.victim)

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        if addr == self.aggressor:
            old = state.cells[addr]
            transitioned = (old == 0 and value == 1) if self.rising else (old == 1 and value == 0)
            state.cells[addr] = value
            if transitioned:
                state.cells[self.victim] ^= 1
        else:
            state.cells[addr] = value


class IdempotentCouplingFault(FaultModel):
    """CFid ⟨t; d⟩: a ``t`` transition of the aggressor forces the victim
    to ``forced_value``."""

    def __init__(self, aggressor: int, victim: int, rising: bool, forced_value: int):
        if aggressor == victim:
            raise ValueError("aggressor and victim must differ")
        self.aggressor = aggressor
        self.victim = victim
        self.rising = rising
        self.forced_value = forced_value & 1
        self.name = f"CFid{'↑' if rising else '↓'}{self.forced_value}"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.aggressor, self.victim)

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        if addr == self.aggressor:
            old = state.cells[addr]
            transitioned = (old == 0 and value == 1) if self.rising else (old == 1 and value == 0)
            state.cells[addr] = value
            if transitioned:
                state.cells[self.victim] = self.forced_value
        else:
            state.cells[addr] = value


class StateCouplingFault(FaultModel):
    """CFst ⟨s; d⟩: while the aggressor is in state ``s``, the victim
    reads as ``forced_value`` (and writes to it are lost)."""

    def __init__(self, aggressor: int, victim: int, aggressor_state: int, forced_value: int):
        if aggressor == victim:
            raise ValueError("aggressor and victim must differ")
        self.aggressor = aggressor
        self.victim = victim
        self.aggressor_state = aggressor_state & 1
        self.forced_value = forced_value & 1
        self.name = f"CFst{self.aggressor_state}:{self.forced_value}"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.aggressor, self.victim)

    def _active(self, state: MemoryState) -> bool:
        return state.cells[self.aggressor] == self.aggressor_state

    def apply_read(self, state: MemoryState, addr: int) -> int:
        if addr == self.victim and self._active(state):
            return self.forced_value
        return state.cells[addr]

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        if addr == self.victim and self._active(state):
            return  # write lost while coupling is active
        state.cells[addr] = value


class StuckOpenFault(FaultModel):
    """SOF: the cell is disconnected; reads return the sense-amplifier's
    previous value, writes are lost."""

    def __init__(self, cell: int):
        self.cell = cell
        self.name = "SOF"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.cell,)

    def apply_read(self, state: MemoryState, addr: int) -> int:
        if addr == self.cell:
            return state.sense_amp
        return state.cells[addr]

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        if addr != self.cell:
            state.cells[addr] = value


class AddressAliasFault(FaultModel):
    """AF (aliasing): two addresses resolve to the same physical cell."""

    def __init__(self, addr_a: int, addr_b: int):
        if addr_a == addr_b:
            raise ValueError("aliased addresses must differ")
        self.addr_a = min(addr_a, addr_b)
        self.addr_b = max(addr_a, addr_b)
        self.name = "AF_alias"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.addr_a, self.addr_b)

    def _resolve(self, addr: int) -> int:
        return self.addr_a if addr == self.addr_b else addr

    def apply_read(self, state: MemoryState, addr: int) -> int:
        return state.cells[self._resolve(addr)]

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        state.cells[self._resolve(addr)] = value


class AddressNoAccessFault(FaultModel):
    """AF (no access): the address reaches no cell — writes are lost and
    reads return the floating-bitline value (modelled as 0)."""

    def __init__(self, cell: int):
        self.cell = cell
        self.name = "AF_open"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.cell,)

    def apply_read(self, state: MemoryState, addr: int) -> int:
        if addr == self.cell:
            return 0
        return state.cells[addr]

    def apply_write(self, state: MemoryState, addr: int, value: int) -> None:
        if addr != self.cell:
            state.cells[addr] = value


class DataRetentionFault(FaultModel):
    """DRF: the cell leaks to ``leak_value`` over a retention pause."""

    def __init__(self, cell: int, leak_value: int):
        self.cell = cell
        self.leak_value = leak_value & 1
        self.name = f"DRF{self.leak_value}"

    @property
    def cells_involved(self) -> tuple[int, ...]:
        return (self.cell,)

    def apply_pause(self, state: MemoryState) -> None:
        state.cells[self.cell] = self.leak_value


#: Canonical fault-class names, in reporting order.
FAULT_CLASSES = ("SAF", "TF", "CFin", "CFid", "CFst", "SOF", "AF", "DRF")


def classify(fault: FaultModel) -> str:
    """Map a fault instance to its class name."""
    for cls in FAULT_CLASSES:
        if fault.name.startswith(cls) or (cls == "AF" and fault.name.startswith("AF")):
            return cls
    return fault.name


def fault_population(
    size: int,
    classes: tuple[str, ...] = FAULT_CLASSES,
    coupling_pairs: int = 64,
    seed: int = 7,
) -> list[FaultModel]:
    """Generate a representative single-fault population for an array.

    Single-cell faults are exhaustive (every cell, every polarity);
    two-cell coupling faults sample adjacent pairs plus ``coupling_pairs``
    random pairs per variant (the full O(N²) population is impractical —
    adjacency dominates real defects).
    """
    if coupling_pairs < 0:
        raise ValueError(f"coupling_pairs must be non-negative, got {coupling_pairs}")
    coupling = [c for c in ("CFin", "CFid", "CFst") if c in classes]
    if coupling and size < 2:
        raise ValueError(
            f"size must be at least 2 for coupling faults ({', '.join(coupling)}), got {size}"
        )
    rng = random.Random(seed)
    population: list[FaultModel] = []

    def pairs() -> list[tuple[int, int]]:
        adjacent = [(i, i + 1) for i in range(size - 1)]
        adjacent += [(i + 1, i) for i in range(size - 1)]
        extra = []
        for _ in range(coupling_pairs):
            a, v = rng.sample(range(size), 2)
            extra.append((a, v))
        return adjacent + extra

    if "SAF" in classes:
        for cell in range(size):
            population.append(StuckAtFault(cell, 0))
            population.append(StuckAtFault(cell, 1))
    if "TF" in classes:
        for cell in range(size):
            population.append(TransitionFault(cell, rising=True))
            population.append(TransitionFault(cell, rising=False))
    if "CFin" in classes:
        for a, v in pairs():
            population.append(InversionCouplingFault(a, v, rising=True))
            population.append(InversionCouplingFault(a, v, rising=False))
    if "CFid" in classes:
        for a, v in pairs():
            for rising, forced in itertools.product((True, False), (0, 1)):
                population.append(IdempotentCouplingFault(a, v, rising, forced))
    if "CFst" in classes:
        for a, v in pairs():
            for s, d in itertools.product((0, 1), (0, 1)):
                population.append(StateCouplingFault(a, v, s, d))
    if "SOF" in classes:
        for cell in range(size):
            population.append(StuckOpenFault(cell))
    if "AF" in classes:
        for cell in range(size):
            population.append(AddressNoAccessFault(cell))
        for i in range(size - 1):
            population.append(AddressAliasFault(i, i + 1))
    if "DRF" in classes:
        for cell in range(size):
            population.append(DataRetentionFault(cell, 0))
            population.append(DataRetentionFault(cell, 1))
    return population
