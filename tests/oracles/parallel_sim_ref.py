"""Reference ATPG evaluation: the private levelizer and the bit-parallel
simulator with its own cell table, retained.

``repro.atpg.engine`` used to carry its own copy of the Kahn levelizer,
and :class:`ParallelSim` its own copy of every cell's logic (an
``if``/``elif`` on cell names).  Both engines now call
:func:`repro.netlist.sim.levelize`, and ``ParallelSim`` calls each
library cell's ``word`` function.  These are the old bodies, verbatim,
the oracle ``tests/test_atpg_engine_race.py`` races the shipped engines
against.  Do not optimize them; their value is being the originals.
"""

from __future__ import annotations

from repro.netlist.cells import LIBRARY
from repro.netlist.netlist import Module


def _levelize(module: Module):
    """Topological order of (instance, cell); rejects sequential cells."""
    comb = []
    for inst in module.instances:
        cell = LIBRARY.get(inst.ref)
        if cell is None:
            raise ValueError(f"{inst.name}: not a library cell ({inst.ref}); flatten first")
        if cell.sequential:
            raise ValueError(
                f"{inst.name}: sequential cell {inst.ref} in combinational view; "
                "use repro.atpg.scan.combinational_view first"
            )
        comb.append((inst, cell))
    driver_of = {}
    for inst, cell in comb:
        net = inst.conns.get(cell.output)
        if net is not None:
            driver_of[net] = inst.name
    indeg = {}
    deps: dict[str, list] = {}
    for inst, cell in comb:
        count = 0
        for pin in cell.inputs:
            net = inst.conns.get(pin)
            if net in driver_of:
                count += 1
                deps.setdefault(driver_of[net], []).append((inst, cell))
        indeg[inst.name] = count
    ready = [(i, c) for i, c in comb if indeg[i.name] == 0]
    order = []
    while ready:
        inst, cell = ready.pop()
        order.append((inst, cell))
        for succ in deps.get(inst.name, []):
            indeg[succ[0].name] -= 1
            if indeg[succ[0].name] == 0:
                ready.append(succ)
    if len(order) != len(comb):
        raise ValueError("combinational loop in ATPG view")
    return order


_MASK = (1 << 64) - 1


class ParallelSim:
    """64-way bit-parallel 2-valued fault simulator."""

    def __init__(self, module: Module):
        self.module = module
        self.order = _levelize(module)
        self.inputs = module.input_ports
        self.outputs = module.output_ports

    def _eval(self, pi_words: dict[str, int], force: tuple[str, int] | None) -> dict[str, int]:
        values: dict[str, int] = {}
        for pin in self.inputs:
            values[pin] = pi_words.get(pin, 0) & _MASK
        if force is not None:
            values[force[0]] = _MASK if force[1] else 0
        for inst, cell in self.order:
            out_net = inst.conns.get(cell.output)
            if out_net is None:
                continue
            if force is not None and out_net == force[0]:
                continue
            a = [values.get(inst.conns.get(p, ""), 0) for p in cell.inputs]
            name = cell.name
            if name == "INV":
                v = ~a[0]
            elif name == "BUF":
                v = a[0]
            elif name == "NAND2":
                v = ~(a[0] & a[1])
            elif name == "NAND3":
                v = ~(a[0] & a[1] & a[2])
            elif name == "NOR2":
                v = ~(a[0] | a[1])
            elif name == "NOR3":
                v = ~(a[0] | a[1] | a[2])
            elif name == "AND2":
                v = a[0] & a[1]
            elif name == "AND3":
                v = a[0] & a[1] & a[2]
            elif name == "OR2":
                v = a[0] | a[1]
            elif name == "OR3":
                v = a[0] | a[1] | a[2]
            elif name == "XOR2":
                v = a[0] ^ a[1]
            elif name == "XNOR2":
                v = ~(a[0] ^ a[1])
            elif name == "MUX2":
                d0, d1, s = a
                v = (d0 & ~s) | (d1 & s)
            elif name == "TIE0":
                v = 0
            elif name == "TIE1":
                v = _MASK
            else:
                raise ValueError(f"no parallel model for cell {name}")
            values[out_net] = v & _MASK
        return values

    def run(self, pi_words: dict[str, int], force: tuple[str, int] | None = None) -> dict[str, int]:
        """Evaluate a packed batch; returns output-port words."""
        values = self._eval(pi_words, force)
        return {po: values.get(po, 0) for po in self.outputs}

    @staticmethod
    def pack(patterns: list[dict[str, int]], inputs: list[str]) -> dict[str, int]:
        """Pack ≤64 single-bit patterns into input words (bit *i* of each
        word is pattern *i*'s value)."""
        if len(patterns) > 64:
            raise ValueError("at most 64 patterns per batch")
        words = {pin: 0 for pin in inputs}
        for i, pattern in enumerate(patterns):
            for pin in inputs:
                if pattern.get(pin, 0):
                    words[pin] |= 1 << i
        return words
