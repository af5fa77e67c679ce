"""Procedural netlist construction helpers for the tests.

Two seeded generators, used only by the tests (``test_netlist_builder``
and the ATPG engine race):

* :func:`random_combinational` — a seeded random gate cloud (ATPG and
  fault-simulation stress input);
* :func:`random_scan_core` — the same cloud registered by a scan chain,
  with the matching :class:`repro.soc.Core` model, so the whole
  ATPG → STIL → wrapper → replay pipeline can be exercised at arbitrary
  sizes.
"""

from __future__ import annotations

import random

from repro.netlist.netlist import Module
from repro.soc.core import Core, CoreType
from repro.soc.ports import Direction, Port, SignalKind
from repro.soc.scan import ScanChain
from repro.soc.tests import scan_test

_GATES = ("AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2")


def random_combinational(
    name: str,
    n_inputs: int,
    n_gates: int,
    n_outputs: int,
    seed: int = 1,
) -> Module:
    """A random acyclic gate cloud: every gate draws inputs from earlier
    signals, outputs tap the last gates (guaranteeing observability of
    the deep logic)."""
    if n_inputs < 2 or n_gates < 1 or n_outputs < 1:
        raise ValueError("need >=2 inputs, >=1 gate, >=1 output")
    rng = random.Random(seed)
    m = Module(name)
    signals = []
    for i in range(n_inputs):
        signals.append(m.add_input(f"i{i}"))
    for g in range(n_gates):
        cell = rng.choice(_GATES)
        a, b = rng.sample(signals, 2) if len(signals) > 1 else (signals[0], signals[0])
        net = m.add_net(f"g{g}")
        m.add_instance(f"u_g{g}", cell, A=a, B=b, Y=net)
        signals.append(net)
    taps = signals[-n_outputs:] if n_outputs <= len(signals) else signals
    for o, tap in enumerate(taps):
        m.add_output(f"o{o}")
        m.add_instance(f"u_o{o}", "BUF", A=tap, Y=f"o{o}")
    return m


def random_scan_core(
    name: str,
    n_inputs: int = 6,
    n_gates: int = 30,
    n_flops: int = 8,
    seed: int = 1,
) -> tuple[Module, Core]:
    """A random sequential core with one scan chain, plus its model.

    Structure: random cloud → flops (D from cloud taps) → second cloud
    layer feeding outputs; flops stitched ``si → ff0 → … → so``.
    """
    if n_flops < 1:
        raise ValueError("need at least one flop")
    rng = random.Random(seed)
    m = Module(name)
    for pin in ("clk", "se", "si"):
        m.add_input(pin)
    m.add_output("so")
    signals = []
    for i in range(n_inputs):
        signals.append(m.add_input(f"i{i}"))
    for g in range(n_gates):
        cell = rng.choice(_GATES)
        a, b = rng.sample(signals, 2)
        net = m.add_net(f"g{g}")
        m.add_instance(f"u_g{g}", cell, A=a, B=b, Y=net)
        signals.append(net)
    prev_q = "si"
    q_nets = []
    for f in range(n_flops):
        d_net = rng.choice(signals[n_inputs:]) if n_gates else signals[0]
        q_net = m.add_net(f"q{f}")
        m.add_instance(
            f"ff{f}", "SDFF", D=d_net, SI=prev_q, SE="se", CK="clk", Q=q_net
        )
        prev_q = q_net
        q_nets.append(q_net)
        signals.append(q_net)
    m.add_instance("u_so", "BUF", A=prev_q, Y="so")
    n_outputs = max(1, n_flops // 2)
    for o in range(n_outputs):
        m.add_output(f"o{o}")
        m.add_instance(f"u_o{o}", "BUF", A=q_nets[o % len(q_nets)], Y=f"o{o}")

    ports = [
        Port("clk", Direction.IN, SignalKind.CLOCK, clock_domain=f"{name}_clk"),
        Port("se", Direction.IN, SignalKind.SCAN_ENABLE),
        Port("si", Direction.IN, SignalKind.SCAN_IN),
        Port("so", Direction.OUT, SignalKind.SCAN_OUT),
    ]
    ports.extend(Port(f"i{i}", Direction.IN) for i in range(n_inputs))
    ports.extend(Port(f"o{o}", Direction.OUT) for o in range(n_outputs))
    core = Core(
        name,
        core_type=CoreType.HARD,
        ports=ports,
        scan_chains=[ScanChain("c0", n_flops, "si", "so")],
        tests=[scan_test(0, name=f"{name}_scan", power=1.0)],
        gate_count=n_gates,
    )
    return m, core
