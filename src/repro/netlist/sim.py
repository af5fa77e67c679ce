"""Levelized 3-valued (0/1/X) logic simulator for flat netlists.

Used to *verify* generated DFT logic rather than to race it: the wrapper
tests shift bits through generated WBR chains and the controller tests
step the session FSM.  The ATPG engines (:mod:`repro.atpg.engine`) do not
run this simulator, but share its gate order: :func:`levelize` orders
the combinational cells here and under PODEM and fault simulation alike.

The simulator is full-sweep levelized (every evaluation recomputes the
whole combinational cloud in topological order), which is simple, exact
and fast enough for the few-thousand-gate circuits this platform emits.
Sequential cells (DFF/DFFR/DFFE/SDFF, DLATCH) hold explicit state;
flip-flops update on :meth:`Simulator.clock` calls, transparent latches
are resolved to a fixpoint inside :meth:`Simulator.evaluate`.
"""

from __future__ import annotations

from repro.netlist.cells import HIGH, LIBRARY, LOW, MUX2, X, Cell
from repro.netlist.netlist import Instance, Module


class CombLoopError(ValueError):
    """Raised when the combinational part of a netlist has a cycle."""


def levelize(comb: list[tuple[Instance, Cell]]) -> list[tuple[Instance, Cell]]:
    """Topologically order combinational ``(instance, cell)`` pairs
    (Kahn's algorithm, last-ready first).  Raises :class:`CombLoopError`
    naming the instances that never become ready: the loop and its fanout.
    """
    driver_of: dict[str, tuple] = {}
    for inst, cell in comb:
        for pin in cell.outputs:
            net = inst.conns.get(pin)
            if net is not None:
                driver_of[net] = (inst, cell)
    indeg: dict[str, int] = {}
    deps: dict[str, list] = {}
    for inst, cell in comb:
        count = 0
        for pin in cell.inputs:
            net = inst.conns.get(pin)
            if net in driver_of:
                count += 1
                drv_inst, _ = driver_of[net]
                deps.setdefault(drv_inst.name, []).append((inst, cell))
        indeg[inst.name] = count
    ready = [(inst, cell) for inst, cell in comb if indeg[inst.name] == 0]
    order = []
    while ready:
        inst, cell = ready.pop()
        order.append((inst, cell))
        for succ_inst, succ_cell in deps.get(inst.name, []):
            indeg[succ_inst.name] -= 1
            if indeg[succ_inst.name] == 0:
                ready.append((succ_inst, succ_cell))
    if len(order) != len(comb):
        stuck = [i.name for i, _ in comb if indeg[i.name] > 0]
        raise CombLoopError(f"combinational loop involving: {sorted(stuck)[:10]}")
    return order


class Simulator:
    """Simulate a flat module built from library cells only."""

    def __init__(self, module: Module):
        self.module = module
        self.values: dict[str, int] = {net: X for net in module.nets}
        self.state: dict[str, int] = {}
        self._comb: list = []
        self._seq: list = []
        self._latches: list = []
        for inst in module.instances:
            cell = LIBRARY.get(inst.ref)
            if cell is None:
                raise ValueError(
                    f"instance {inst.name!r} references non-library cell {inst.ref!r}; "
                    "flatten the design first"
                )
            if not cell.sequential:
                self._comb.append((inst, cell))
            elif cell.transparent:
                self._latches.append((inst, cell))
                self.state[inst.name] = X
            else:
                self._seq.append((inst, cell))
                self.state[inst.name] = X
        self._order = levelize(self._comb)

    # -- driving -------------------------------------------------------------

    def poke(self, net: str, value: int) -> None:
        """Drive a primary input (or force any net before evaluation)."""
        if net not in self.module.nets:
            raise KeyError(f"no net {net!r} in module {self.module.name!r}")
        if value not in (LOW, HIGH, X):
            raise ValueError(f"bad logic value {value!r}")
        self.values[net] = value

    def set_inputs(self, assignments: dict[str, int]) -> None:
        """Drive several primary inputs at once."""
        for net, value in assignments.items():
            self.poke(net, value)

    # -- evaluation ------------------------------------------------------------

    def _seq_output(self, inst, cell: Cell) -> int:
        """Present output of a sequential cell, honoring async reset."""
        stored = self.state[inst.name]
        if cell.reset_pin is not None:
            rn = self.values.get(inst.conns.get(cell.reset_pin, ""), X)
            if rn == LOW:
                return LOW
            if rn == X:
                return X if stored != LOW else LOW
        return stored

    def evaluate(self) -> None:
        """Propagate values through the combinational cloud (and
        transparent latches) until stable."""
        for _ in range(len(self._latches) + 2):
            # sequential outputs act as sources
            for inst, cell in self._seq:
                out_net = inst.conns.get(cell.output)
                if out_net is not None:
                    self.values[out_net] = self._seq_output(inst, cell)
            for inst, cell in self._latches:
                out_net = inst.conns.get(cell.output)
                if out_net is not None:
                    self.values[out_net] = self.state[inst.name]
            for inst, cell in self._order:
                args = [self.values.get(inst.conns.get(pin, ""), X) for pin in cell.inputs]
                out_net = inst.conns.get(cell.output)
                if out_net is not None:
                    self.values[out_net] = cell.func(*args)
            changed = False
            for inst, _cell in self._latches:
                gate = self.values.get(inst.conns.get("G", ""), X)
                if gate == HIGH:
                    new = self.values.get(inst.conns.get("D", ""), X)
                elif gate == X:
                    d = self.values.get(inst.conns.get("D", ""), X)
                    new = self.state[inst.name] if d == self.state[inst.name] else X
                else:
                    new = self.state[inst.name]
                if new != self.state[inst.name]:
                    self.state[inst.name] = new
                    changed = True
            if not changed:
                return
        raise CombLoopError("latch network failed to stabilize")

    def get(self, net: str) -> int:
        """Read a net value (call :meth:`evaluate` first)."""
        try:
            return self.values[net]
        except KeyError:
            raise KeyError(f"no net {net!r} in module {self.module.name!r}") from None

    # -- clocking ----------------------------------------------------------------

    def _effective_d(self, inst, cell: Cell) -> int:
        """Next-state value of a flip-flop at a clock edge."""
        d = self.values.get(inst.conns.get(cell.data_pin, ""), X)
        if cell.scan_enable_pin is not None:  # a MUX2 in front of the flop: SE picks SI
            si = self.values.get(inst.conns.get(cell.scan_in_pin, ""), X)
            se = self.values.get(inst.conns.get(cell.scan_enable_pin, ""), X)
            return MUX2.func(d, si, se)
        if cell.enable_pin is not None:
            en = self.values.get(inst.conns.get(cell.enable_pin, ""), X)
            if en == LOW:
                return self.state[inst.name]
            if en == X:
                return d if d == self.state[inst.name] else X
        return d

    def clock(self, clock_net: str, cycles: int = 1) -> None:
        """Apply ``cycles`` rising edges on ``clock_net``.

        Each edge: evaluate, capture the next state of every flip-flop
        clocked by the net (simultaneous update), then evaluate again so
        outputs reflect the new state.
        """
        targets = [
            (inst, cell)
            for inst, cell in self._seq
            if inst.conns.get(cell.clock_pin) == clock_net
        ]
        for _ in range(cycles):
            self.evaluate()
            next_state = {inst.name: self._effective_d(inst, cell) for inst, cell in targets}
            for inst, cell in targets:
                if cell.reset_pin is not None:
                    rn = self.values.get(inst.conns.get(cell.reset_pin, ""), X)
                    if rn == LOW:
                        next_state[inst.name] = LOW
            self.state.update(next_state)
            self.evaluate()

    # -- convenience ----------------------------------------------------------

    def shift(self, clock_net: str, si_net: str, bits: list[int], so_net: str | None = None) -> list[int]:
        """Shift ``bits`` in on ``si_net`` (one per clock), returning the
        values observed on ``so_net`` (if given) *before* each edge."""
        observed = []
        for bit in bits:
            self.poke(si_net, bit)
            self.evaluate()
            if so_net is not None:
                observed.append(self.get(so_net))
            self.clock(clock_net)
        return observed

    def reset_state(self, value: int = X) -> None:
        """Force every sequential element to ``value`` (default X)."""
        for name in self.state:
            self.state[name] = value
        for net in self.values:
            self.values[net] = X
