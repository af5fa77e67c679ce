"""Gate-level netlist substrate: cells, modules, Verilog, simulation, area.

The paper's test-insertion tool emits real circuitry ("the generated test
circuitry is inserted into the original SOC netlist automatically"); this
package is the fabric it is built from.  Areas are measured in NAND2
equivalents to match the paper's reporting style.
"""

from repro.netlist.area import AreaItem, AreaReport, cell_area
from repro.netlist.cells import HIGH, LIBRARY, LOW, X, Cell, cell
from repro.netlist.netlist import Instance, Module, ModulePort, Netlist, PortDir, flatten
from repro.netlist.sim import CombLoopError, Simulator
from repro.netlist.verilog import library_stubs, module_to_verilog, netlist_to_verilog

__all__ = [
    "AreaItem",
    "AreaReport",
    "cell_area",
    "HIGH",
    "LIBRARY",
    "LOW",
    "X",
    "Cell",
    "cell",
    "Instance",
    "Module",
    "ModulePort",
    "Netlist",
    "PortDir",
    "flatten",
    "CombLoopError",
    "Simulator",
    "library_stubs",
    "module_to_verilog",
    "netlist_to_verilog",
]
