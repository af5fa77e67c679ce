"""ITC'02 SOC test benchmark support.

The ITC'02 benchmark suite (Marinissen, Iyengar, Chakrabarty) is the
standard public workload for TAM/test-scheduling research and is the
natural extension benchmark for this platform (experiment E11 in
DESIGN.md).  This module provides:

* a parser for the ``.soc`` exchange format used by the suite, and
* an embedded transcription of **d695** (10 ISCAS85/89 cores), the
  smallest and most widely quoted instance.

The embedded d695 numbers (IO counts, flip-flop totals, chain counts,
pattern counts) are transcribed from the benchmark literature; chain
lengths are balanced partitions of the flip-flop totals, which is how the
original file was constructed.  Tests compare our schedulers against each
other on this instance, not against published testbed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soc.core import Core, CoreType
from repro.soc.ports import Direction, Port, SignalKind
from repro.soc.scan import ScanChain, rebalance_lengths
from repro.soc.soc import Soc
from repro.soc.tests import scan_test, functional_test


@dataclass(frozen=True)
class Itc02Module:
    """One module line of an ITC'02 ``.soc`` file."""

    name: str
    inputs: int
    outputs: int
    bidirs: int
    scan_chain_lengths: tuple[int, ...]
    patterns: int

    @property
    def scan_flops(self) -> int:
        return sum(self.scan_chain_lengths)


#: The keys a ``Module`` line may carry, each at most once.
_MODULE_KEYS = frozenset({"Inputs", "Outputs", "Bidirs", "ScanChains", "Patterns"})


def parse_soc(text: str) -> tuple[str | None, list[Itc02Module]]:
    """Parse the ITC'02 ``.soc`` exchange format (subset).

    Recognized directives (one per line, ``#`` comments)::

        SocName <name>
        Module <name> Inputs <n> Outputs <n> Bidirs <n> \
            ScanChains <k> <l1> ... <lk> Patterns <p>

    Returns ``(soc_name, modules)``, the modules in file order;
    ``soc_name`` is ``None`` when the file has no ``SocName`` directive.
    An omitted key means 0.  Malformed text raises :class:`ValueError`:
    a truncated line, an unknown or repeated key, or a negative
    ``Inputs``/``Outputs``/``Bidirs`` count.
    """
    soc_name: str | None = None
    modules: list[Itc02Module] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "SocName":
            soc_name = tokens[1] if len(tokens) > 1 else None
            continue
        if keyword != "Module":
            raise ValueError(f"unrecognized ITC'02 directive: {keyword!r}")
        if len(tokens) < 2:
            raise ValueError("Module line has no module name")
        fields: dict[str, list[str]] = {}
        name = tokens[1]
        i = 2
        while i < len(tokens):
            key = tokens[i]
            if key not in _MODULE_KEYS:
                raise ValueError(f"module {name!r}: unknown key {key!r}")
            if key in fields:
                raise ValueError(f"module {name!r}: {key} given twice")
            if i + 1 == len(tokens):
                raise ValueError(f"module {name!r}: {key} has no value")
            if key == "ScanChains":
                count = int(tokens[i + 1])
                lengths = tokens[i + 2 : i + 2 + count]
                if len(lengths) != count:
                    raise ValueError(f"module {name!r}: ScanChains declares {count} lengths")
                fields[key] = lengths
                i += 2 + count
            else:
                fields[key] = [tokens[i + 1]]
                i += 2
        ports = {key: int(fields.get(key, ["0"])[0]) for key in ("Inputs", "Outputs", "Bidirs")}
        for key, count in ports.items():
            if count < 0:
                raise ValueError(f"module {name!r}: {key} must be non-negative, got {count}")
        modules.append(
            Itc02Module(
                name=name,
                inputs=ports["Inputs"],
                outputs=ports["Outputs"],
                bidirs=ports["Bidirs"],
                scan_chain_lengths=tuple(int(x) for x in fields.get("ScanChains", [])),
                patterns=int(fields.get("Patterns", ["0"])[0]),
            )
        )
    return soc_name, modules


def modules_to_text(name: str, modules: list[Itc02Module]) -> str:
    """Render modules in the ``.soc`` exchange format (the inverse of
    :func:`parse_soc`: ``parse_soc(modules_to_text(n, ms)) == (n, ms)``)."""
    lines = [f"SocName {name}"]
    for module in modules:
        chain_part = ""
        if module.scan_chain_lengths:
            lengths = " ".join(str(l) for l in module.scan_chain_lengths)
            chain_part = f" ScanChains {len(module.scan_chain_lengths)} {lengths}"
        lines.append(
            f"Module {module.name} Inputs {module.inputs} Outputs {module.outputs} "
            f"Bidirs {module.bidirs}{chain_part} Patterns {module.patterns}"
        )
    return "\n".join(lines) + "\n"


def soc_from_modules(
    name: str,
    modules: list[Itc02Module],
    test_pins: int = 64,
    power_budget: float = 0.0,
    power: float = 1.0,
) -> Soc:
    """Build a :class:`Soc` from parsed ITC'02 modules (one wrapped core
    per module, the :func:`module_to_core` convention)."""
    soc = Soc(name=name, test_pins=test_pins, power_budget=power_budget)
    for module in modules:
        soc.add_core(module_to_core(module, power=power))
    return soc


def soc_from_text(
    text: str,
    test_pins: int = 64,
    power_budget: float = 0.0,
    power: float = 1.0,
    name: str | None = None,
) -> Soc:
    """Build a :class:`Soc` straight from ``.soc`` exchange text.

    The composition of :func:`parse_soc` and :func:`soc_from_modules` —
    the entry point ``repro.serve`` uses for jobs that carry inline
    ``.soc`` bodies.  ``name`` overrides a missing ``SocName`` directive
    (without it, an unnamed file is an error); chips with at least the
    default budgets round-trip digest-identically through
    :func:`repro.gen.writer.soc_to_text`.
    """
    parsed_name, modules = parse_soc(text)
    soc_name = name or parsed_name
    if soc_name is None:
        raise ValueError(".soc text has no SocName directive and no name override")
    if not modules:
        raise ValueError(f".soc text for {soc_name!r} declares no Module lines")
    return soc_from_modules(
        soc_name, modules, test_pins=test_pins, power_budget=power_budget, power=power
    )


def module_to_core(module: Itc02Module, power: float = 1.0) -> Core:
    """Convert an ITC'02 module into a :class:`repro.soc.Core`.

    ITC'02 modules have a single clock and no published control-signal
    detail, so each core gets one clock, one reset and one scan enable
    (when scanned) — the conventional assumption in the scheduling
    literature.  Each non-empty terminal group is one run (``<name>_pi``,
    ``_po``, ``_pb``), its bits ``<name>_pi0``, ``<name>_pi1``, ….
    """
    ports: list[Port] = [Port(f"{module.name}_clk", Direction.IN, SignalKind.CLOCK)]
    chains: list[ScanChain] = []
    if module.scan_chain_lengths:
        ports.append(Port(f"{module.name}_rst", Direction.IN, SignalKind.RESET))
        ports.append(Port(f"{module.name}_se", Direction.IN, SignalKind.SCAN_ENABLE))
        for i, length in enumerate(module.scan_chain_lengths):
            si = Port(f"{module.name}_si{i}", Direction.IN, SignalKind.SCAN_IN)
            so = Port(f"{module.name}_so{i}", Direction.OUT, SignalKind.SCAN_OUT)
            ports.extend([si, so])
            chains.append(
                ScanChain(f"{module.name}_c{i}", length, scan_in=si.name, scan_out=so.name)
            )
    for group, count, direction in (("pi", module.inputs, Direction.IN),
                                    ("po", module.outputs, Direction.OUT),
                                    ("pb", module.bidirs, Direction.INOUT)):
        if count:
            ports.append(Port(f"{module.name}_{group}", direction, run=count))
    if module.scan_chain_lengths:
        tests = [scan_test(module.patterns, name=f"{module.name}_scan", power=power)]
    else:
        tests = [functional_test(module.patterns, name=f"{module.name}_func", power=power)]
    return Core(
        name=module.name,
        core_type=CoreType.SOFT,  # ITC'02 scheduling treats chains as re-balanceable
        ports=ports,
        scan_chains=chains,
        tests=tests,
        gate_count=max(1_000, module.scan_flops * 12),
        wrapped=True,
    )


#: (name, inputs, outputs, bidirs, flip-flops, chain count, patterns)
_D695_DATA: list[tuple[str, int, int, int, int, int, int]] = [
    ("c6288", 32, 32, 0, 0, 0, 12),
    ("c7552", 207, 108, 0, 0, 0, 73),
    ("s838", 34, 1, 0, 32, 1, 75),
    ("s9234", 36, 39, 0, 211, 4, 105),
    ("s38417", 28, 106, 0, 1636, 32, 68),
    ("s13207", 31, 121, 0, 638, 16, 236),
    ("s15850", 14, 87, 0, 534, 16, 95),
    ("s5378", 35, 49, 0, 179, 4, 111),
    ("s35932", 35, 320, 0, 1728, 32, 16),
    ("s38584", 38, 304, 0, 1426, 32, 110),
]


def d695_modules() -> list[Itc02Module]:
    """The d695 instance as :class:`Itc02Module` records."""
    modules = []
    for name, inputs, outputs, bidirs, flops, chain_count, patterns in _D695_DATA:
        lengths = tuple(rebalance_lengths(flops, chain_count)) if chain_count else ()
        modules.append(
            Itc02Module(
                name=name,
                inputs=inputs,
                outputs=outputs,
                bidirs=bidirs,
                scan_chain_lengths=lengths,
                patterns=patterns,
            )
        )
    return modules


def d695_soc(test_pins: int = 64, power_budget: float = 0.0) -> Soc:
    """Build the d695 benchmark as a :class:`repro.soc.Soc`."""
    return soc_from_modules(
        "d695", d695_modules(), test_pins=test_pins, power_budget=power_budget
    )


def d695_soc_text() -> str:
    """The d695 instance rendered in our ``.soc`` exchange format (useful
    for round-trip tests and as a format example)."""
    return modules_to_text("d695", d695_modules())
