"""Combinational evaluation engines for ATPG.

Two evaluators over the same levelized gate order, from the simulator's
:func:`repro.netlist.sim.levelize`:

* :class:`CombEngine` — 3-valued (0/1/X) single-pattern evaluation with
  optional net forcing (the faulty machine pins the fault site); PODEM
  runs a good and a faulty engine side by side.
* :class:`ParallelSim` — bit-parallel 2-valued evaluation packing up to
  64 patterns per Python int, used for fault simulation with fault
  dropping.  Each gate runs its library cell's ``word`` function.
"""

from __future__ import annotations

from repro.netlist.cells import LIBRARY, X
from repro.netlist.netlist import Module
from repro.netlist.sim import levelize


class _Engine:
    """A combinational module: its ports and its gates in levelized order.
    Rejects non-library and sequential cells."""

    def __init__(self, module: Module):
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
        self.module = module
        self.order = levelize(comb)
        self.inputs = module.input_ports
        self.outputs = module.output_ports


class CombEngine(_Engine):
    """3-valued evaluator with optional stuck-net forcing."""

    def evaluate(
        self,
        pi_values: dict[str, int],
        force: tuple[str, int] | None = None,
    ) -> dict[str, int]:
        """Evaluate all nets; unassigned inputs are X.  ``force`` pins a
        net to a value regardless of its driver (the stuck fault)."""
        values: dict[str, int] = {net: X for net in self.module.nets}
        for pin in self.inputs:
            values[pin] = pi_values.get(pin, X)
        if force is not None and force[0] in values:
            values[force[0]] = force[1]
        for inst, cell in self.order:
            out_net = inst.conns.get(cell.output)
            if out_net is None:
                continue
            if force is not None and out_net == force[0]:
                continue  # stuck: driver overridden
            args = [values.get(inst.conns.get(pin, ""), X) for pin in cell.inputs]
            values[out_net] = cell.func(*args)
        return values


_MASK = (1 << 64) - 1


class ParallelSim(_Engine):
    """64-way bit-parallel 2-valued fault simulator."""

    def run(self, pi_words: dict[str, int], force: tuple[str, int] | None = None) -> dict[str, int]:
        """Evaluate a packed batch; returns output-port words."""
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
            args = [values.get(inst.conns.get(p, ""), 0) for p in cell.inputs]
            values[out_net] = cell.word(*args) & _MASK
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
