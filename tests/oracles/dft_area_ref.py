"""Reference DFT pricing: the gate-level netlist walk, retained.

Integration used to price its DFT by building the whole DFT-inserted
netlist and walking it: ``Module.area`` for the test controller and the
TAM mux (``AreaReport.add_module``), and a walk over each wrapper's
instances that left the wrapped core out (``GeneratedWrapper.area``).
InsertDft now prices every block from closed-form leaf-cell counts and
builds no netlist; this walk is the oracle ``tests/test_dft_cells.py``
races those counts against.

One fix against the original: the wrapped core is left out by its
``u_core`` instance, not by its cell name.  The original skipped every
instance whose cell shared the core's name, so a core named ``WBC``,
``WIR`` or ``AND2`` lost those cells from its wrapper area.
"""

from __future__ import annotations

from repro.netlist import LIBRARY, Module, Netlist

#: The wrapper instance that holds the wrapped core.
CORE_INSTANCE = "u_core"


def block_cells(module: Module, netlist: Netlist) -> dict[str, int]:
    """Leaf-cell histogram of ``module`` through ``netlist``'s hierarchy,
    the wrapped core left out."""
    counts: dict[str, int] = {}
    for inst in module.instances:
        if inst.name == CORE_INSTANCE:
            continue
        if inst.ref in LIBRARY:
            cells = {inst.ref: 1}
        else:
            cells = netlist.module(inst.ref).cell_counts(netlist)
        for cell, n in cells.items():
            counts[cell] = counts.get(cell, 0) + n
    return counts


def block_area(module: Module, netlist: Netlist) -> float:
    """NAND2-equivalent area of ``module``, summed instance by instance
    as the netlist walk did, the wrapped core left out."""
    total = 0.0
    for inst in module.instances:
        if inst.name == CORE_INSTANCE:
            continue
        if inst.ref in netlist.modules:
            total += netlist.module(inst.ref).area(netlist)
        elif inst.ref in LIBRARY:
            total += LIBRARY[inst.ref].area
    return total


def reference_areas(result) -> dict[str, float]:
    """Areas the walk gives an integration result: the test controller,
    the TAM mux, and each wrapper under its core name."""
    netlist = result.netlist
    areas = {
        "Test Controller": block_area(result.controller_module, netlist),
        "TAM multiplexer": block_area(result.tam_module, netlist),
    }
    for name, wrapper in result.wrappers.items():
        areas[name] = block_area(wrapper.module, netlist)
    return areas
