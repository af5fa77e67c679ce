"""Reference: the per-bit ITC'02 core builder.

Before terminal runs, :func:`repro.soc.itc02.module_to_core` made one
single-bit :class:`~repro.soc.ports.Port` for every functional terminal
(``<core>_pi{i}``, ``_po{i}``, ``_pb{i}``).  The shipped builder makes
one run per group; ``tests/test_soc_runs_race.py`` holds every
expansion, tally, digest, writer output and integration document of a
run-built chip equal to this builder's.
"""

from __future__ import annotations

from repro.soc.core import Core, CoreType
from repro.soc.itc02 import Itc02Module
from repro.soc.ports import Direction, Port, SignalKind
from repro.soc.scan import ScanChain
from repro.soc.tests import functional_test, scan_test


def module_to_core(module: Itc02Module, power: float = 1.0) -> Core:
    """Convert an ITC'02 module into a core with one ``Port`` per bit."""
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
    for i in range(module.inputs):
        ports.append(Port(f"{module.name}_pi{i}", Direction.IN, SignalKind.FUNCTIONAL))
    for i in range(module.outputs):
        ports.append(Port(f"{module.name}_po{i}", Direction.OUT, SignalKind.FUNCTIONAL))
    for i in range(module.bidirs):
        ports.append(Port(f"{module.name}_pb{i}", Direction.INOUT, SignalKind.FUNCTIONAL))
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
