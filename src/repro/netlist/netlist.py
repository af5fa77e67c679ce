"""Structural netlist model: modules, instances, nets.

A :class:`Module` is a bag of named nets, a port list, and instances of
either library cells or other modules (hierarchy).  The test-insertion
tool builds wrapper/TAM/controller logic as modules and stitches them
into the chip module; :mod:`repro.netlist.verilog` writes the result out
and :mod:`repro.netlist.sim` simulates it.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.netlist.area import cell_area
from repro.netlist.cells import LIBRARY
from repro.util import check_name


class PortDir(enum.Enum):
    """Module port direction."""

    IN = "input"
    OUT = "output"


@dataclass(frozen=True)
class ModulePort:
    """A single-bit module port (buses are expanded bit by bit)."""

    name: str
    direction: PortDir


@dataclass
class Instance:
    """One instantiation of a cell or module.

    Attributes:
        name: instance name, unique within the parent module.
        ref: the library cell name or module name being instantiated.
        conns: pin/port name → net name in the parent module.
    """

    name: str
    ref: str
    conns: dict[str, str]


class Netlist:
    """A design: a set of modules, one of which is the top."""

    def __init__(self, top: str | None = None):
        self.modules: dict[str, "Module"] = {}
        self.top_name = top

    def add(self, module: "Module") -> "Module":
        """Register a module (names unique)."""
        if module.name in self.modules:
            raise ValueError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        if self.top_name is None:
            self.top_name = module.name
        return module

    @property
    def top(self) -> "Module":
        """The top module."""
        if self.top_name is None:
            raise ValueError("netlist has no modules")
        return self.modules[self.top_name]

    def module(self, name: str) -> "Module":
        try:
            return self.modules[name]
        except KeyError:
            raise KeyError(f"no module {name!r} in netlist") from None

    def area(self, module_name: str | None = None) -> float:
        """Total NAND2-equivalent area of a module (default: top),
        recursing through the hierarchy."""
        name = module_name or self.top_name
        return self.module(name).area(self)


class Module:
    """One module: ports, nets and instances."""

    def __init__(self, name: str):
        check_name(name, "module name")
        self.name = name
        self.ports: list[ModulePort] = []
        self.nets: set[str] = set()
        self.instances: list[Instance] = []
        self._port_names: set[str] = set()
        self._instance_names: set[str] = set()

    # -- construction ------------------------------------------------------

    def add_port(self, name: str, direction: PortDir) -> str:
        """Declare a port; the port is also a net of the same name."""
        check_name(name, "port name")
        if name in self._port_names:
            raise ValueError(f"duplicate port {name!r} on module {self.name!r}")
        self.ports.append(ModulePort(name, direction))
        self._port_names.add(name)
        self.nets.add(name)
        return name

    def add_input(self, name: str) -> str:
        return self.add_port(name, PortDir.IN)

    def add_output(self, name: str) -> str:
        return self.add_port(name, PortDir.OUT)

    def add_net(self, name: str) -> str:
        """Declare an internal net (idempotent; a name is checked once)."""
        if name not in self.nets:
            check_name(name, "net name")
            self.nets.add(name)
        return name

    def add_instance(self, name: str, ref: str, **conns: str) -> Instance:
        """Instantiate ``ref`` (cell or module name) with pin connections.

        All referenced nets are declared implicitly.
        """
        check_name(name, "instance name")
        if name in self._instance_names:
            raise ValueError(f"duplicate instance {name!r} in module {self.name!r}")
        for net in conns.values():
            self.add_net(net)
        inst = Instance(name=name, ref=ref, conns=dict(conns))
        self.instances.append(inst)
        self._instance_names.add(name)
        return inst

    # -- queries -----------------------------------------------------------

    @property
    def input_ports(self) -> list[str]:
        return [p.name for p in self.ports if p.direction is PortDir.IN]

    @property
    def output_ports(self) -> list[str]:
        return [p.name for p in self.ports if p.direction is PortDir.OUT]

    def cell_counts(self, netlist: Optional[Netlist] = None) -> dict[str, int]:
        """Histogram of leaf-cell usage (recursing through hierarchy when
        a :class:`Netlist` is provided)."""
        counts: dict[str, int] = {}
        for inst in self.instances:
            if inst.ref in LIBRARY:
                counts[inst.ref] = counts.get(inst.ref, 0) + 1
            elif netlist is not None and inst.ref in netlist.modules:
                for cell_name, n in netlist.module(inst.ref).cell_counts(netlist).items():
                    counts[cell_name] = counts.get(cell_name, 0) + n
            else:
                counts[inst.ref] = counts.get(inst.ref, 0) + 1  # blackbox
        return counts

    def area(self, netlist: Optional[Netlist] = None) -> float:
        """NAND2-equivalent area of :meth:`cell_counts` (blackboxes count 0)."""
        counts = self.cell_counts(netlist)
        return cell_area({cell: n for cell, n in counts.items() if cell in LIBRARY})

    def validate(self, netlist: Optional[Netlist] = None) -> list[str]:
        """Structural checks; returns a list of problem descriptions.

        Checks: every instance pin exists on its cell/module; every net
        has at most one driver (cell outputs and module input ports
        drive); output ports are driven.
        """
        problems: list[str] = []
        drivers: dict[str, list[str]] = {}

        def note_driver(net: str, who: str) -> None:
            drivers.setdefault(net, []).append(who)

        for port in self.ports:
            if port.direction is PortDir.IN:
                note_driver(port.name, f"input port {port.name}")

        for inst in self.instances:
            if inst.ref in LIBRARY:
                cell = LIBRARY[inst.ref]
                for pin in inst.conns:
                    if pin not in cell.pins:
                        problems.append(f"{inst.name}: cell {inst.ref} has no pin {pin!r}")
                for pin, net in inst.conns.items():
                    if pin in cell.outputs:
                        note_driver(net, f"{inst.name}.{pin}")
                missing = [p for p in cell.inputs if p not in inst.conns]
                if missing:
                    problems.append(f"{inst.name}: unconnected input pins {missing}")
            elif netlist is not None and inst.ref in netlist.modules:
                sub = netlist.module(inst.ref)
                sub_ports = {p.name: p.direction for p in sub.ports}
                for pin, net in inst.conns.items():
                    if pin not in sub_ports:
                        problems.append(f"{inst.name}: module {inst.ref} has no port {pin!r}")
                    elif sub_ports[pin] is PortDir.OUT:
                        note_driver(net, f"{inst.name}.{pin}")

        for net, who in drivers.items():
            if len(who) > 1:
                problems.append(f"net {net!r} has multiple drivers: {who}")
        for port in self.ports:
            if port.direction is PortDir.OUT and port.name not in drivers:
                problems.append(f"output port {port.name!r} is undriven")
        return problems


def _tree_levels(n: int) -> Iterator[list[int]]:
    """Gate fan-ins, level by level, of a reduction tree over ``n`` > 1
    nets: pairs, with a triple closing each odd level."""
    while n > 1:
        yield [2] * (n // 2 - 1) + [2 + n % 2]
        n //= 2


def add_tree(m: Module, nets: list[str], out: str, kind: str, prefix: str) -> None:
    """Reduce ``nets`` into ``out`` with a ``kind`` ("AND" or "OR") tree
    of 2- and 3-input gates named ``{prefix}_g{level}_{index}``.  A
    single net is buffered; no nets tie ``out`` low."""
    if len(nets) < 2:
        if nets:
            m.add_instance(f"{prefix}_buf", "BUF", A=nets[0], Y=out)
        else:
            m.add_instance(f"{prefix}_tie", "TIE0", Y=out)
        return
    for level, fanins in enumerate(_tree_levels(len(nets))):
        outs: list[str] = []
        for i, fanin in enumerate(fanins):
            group, nets = nets[:fanin], nets[fanin:]
            y = out if len(fanins) == 1 else m.add_net(f"{prefix}_t{level}_{i}")
            m.add_instance(f"{prefix}_g{level}_{i}", f"{kind}{fanin}", Y=y, **dict(zip("ABC", group)))
            outs.append(y)
        nets = outs


def tree_cells(n: int, kind: str) -> Counter[str]:
    """The leaf cells :func:`add_tree` spends on ``n`` nets."""
    if n < 2:
        return Counter({"BUF" if n else "TIE0": 1})
    return Counter(f"{kind}{fanin}" for fanins in _tree_levels(n) for fanin in fanins)


def flatten(netlist: Netlist, top_name: str | None = None) -> Module:
    """Flatten a hierarchical design into a single module of leaf cells.

    Hierarchical nets are prefixed with the instance path (``u_wrap.si``);
    unknown references (blackboxes) are kept as leaf instances.
    """
    top = netlist.module(top_name or netlist.top_name)
    flat = Module(f"{top.name}_flat")
    for port in top.ports:
        flat.add_port(port.name, port.direction)

    def emit(module: Module, prefix: str, net_map: dict[str, str]) -> None:
        def mapped(net: str) -> str:
            if net in net_map:
                return net_map[net]
            full = f"{prefix}{net}" if prefix else net
            flat.add_net(full)
            return full

        for inst in module.instances:
            inst_name = f"{prefix}{inst.name}" if prefix else inst.name
            if inst.ref in netlist.modules and inst.ref not in LIBRARY:
                sub = netlist.module(inst.ref)
                sub_map = {
                    pin: mapped(net) for pin, net in inst.conns.items()
                }
                emit(sub, f"{inst_name}.", sub_map)
            else:
                flat.add_instance(
                    inst_name, inst.ref, **{pin: mapped(net) for pin, net in inst.conns.items()}
                )

    emit(top, "", {p.name: p.name for p in top.ports})
    return flat
