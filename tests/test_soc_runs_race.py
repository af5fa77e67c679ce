"""Terminal runs race the per-bit ITC'02 builder they replaced.

:func:`repro.soc.itc02.module_to_core` builds each functional terminal
group as one run (``Port(run=n)``); ``tests/oracles/itc02_bits_ref.py``
keeps the builder that made one ``Port`` per bit.  On d695 and on
generated chips of every profile from ``tiny`` to ``large``, the chip
built with runs must equal the chip built bit by bit wherever a bit,
a tally or an output is read: the expanded ``(bit, direction, kind)``
list, ``counts``, ``wrapper_cell_counts``, ``control_needs``,
``canonical_core``, the digest, the ``.soc`` text, each core's STIL, and
the verified integration document without its wall-clock keys.
"""

import pickle
from unittest import mock

import pytest

from repro.core import Steac, SteacConfig
from repro.gen import SocGenerator
from repro.gen import generator as gen_module
from repro.gen.writer import soc_to_text
from repro.netlist import netlist_to_verilog
from repro.soc import Core, Direction, Port, SignalKind, Soc, functional_test, itc02
from repro.soc.bits import expand_port_bits
from repro.stil import core_from_stil, core_to_stil
from repro.wrapper import plan_wrapper
from repro.wrapper.balance import wrapper_cell_counts

from oracles import itc02_bits_ref
from oracles.soc_canonical_ref import canonical_core

SEEDS = {"tiny": (1, 2, 3, 4), "small": (1, 2, 3), "d695-like": (1, 2), "large": (1, 2)}
CHIPS = [("d695", itc02.d695_soc)] + [
    (f"{profile}-{seed}", SocGenerator(seed, profile).generate)
    for profile, seeds in SEEDS.items() for seed in seeds
]
#: chips whose DFT netlist is written out as Verilog on both sides too
VERILOG = {"d695", "tiny-1", "small-1"}


def per_bit(build):
    """``build()`` with the per-bit oracle in place of ``module_to_core``."""
    with mock.patch.object(itc02, "module_to_core", itc02_bits_ref.module_to_core), \
            mock.patch.object(gen_module, "module_to_core", itc02_bits_ref.module_to_core):
        return build()


def core_records(core: Core) -> dict:
    stil = core_to_stil(core)
    return {
        "bits": [(bit, p.direction.value, p.kind.value)
                 for p in core.ports for bit in expand_port_bits(p)],
        "counts": core.counts,
        "wrapper_cells": wrapper_cell_counts(core),
        "control_needs": core.control_needs,
        "canonical": canonical_core(core),
        "stil": stil,
        "stil_ports": canonical_core(core_from_stil(stil).core)["ports"],
    }


def integration_document(flow) -> dict:
    doc = flow.to_dict()
    doc.pop("runtime_seconds")
    doc.pop("stage_seconds")
    return doc


@pytest.mark.parametrize("label, build", CHIPS, ids=[label for label, _ in CHIPS])
def test_runs_match_per_bit_builder(label, build):
    runs, bits = build(), per_bit(build)
    assert sum(len(c.ports) for c in runs.cores) < sum(len(c.ports) for c in bits.cores)
    for run_core, bit_core in zip(runs.cores, bits.cores, strict=True):
        got, want = core_records(run_core), core_records(bit_core)
        for key in want:
            assert got[key] == want[key], f"{label}/{run_core.name}: {key}"
        # a STIL round trip comes back bit by bit, in the run core's form
        assert got["stil_ports"] == got["canonical"]["ports"]
    assert runs.digest() == bits.digest()
    assert soc_to_text(runs) == soc_to_text(bits)
    flows = [Steac(SteacConfig(verify_schedule=True)).integrate(chip) for chip in (runs, bits)]
    run_doc, bit_doc = (integration_document(flow) for flow in flows)
    assert run_doc["verification"]["ok"]
    assert run_doc == bit_doc
    if label in VERILOG:
        assert netlist_to_verilog(flows[0].netlist) == netlist_to_verilog(flows[1].netlist)


def test_wrapper_port_collision_message_matches_per_bit():
    """A run named ``wpi`` names ``wpi0``, the wrapper's first TAM input."""
    run = Core("c", ports=[Port("wpi", Direction.IN, run=3)])
    bits = Core("c", ports=[Port(f"wpi{i}", Direction.IN) for i in range(3)])
    messages = []
    for core in (run, bits):
        with pytest.raises(ValueError, match="duplicate port 'wpi0' on module 'c_wrapper'") as exc:
            plan_wrapper(core, width=2)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_large_chip_pickle_is_small():
    """One run per terminal group: 132,629 bytes per bit, 43,433 with runs."""
    assert len(pickle.dumps(SocGenerator(1, "large").generate())) < 60_000


def test_run_named_like_a_clock_leaves_the_clock_wired():
    """The DFT top looks control ports up by name; a run's name is no bit."""
    soc = Soc("chip", test_pins=16)
    soc.add_core(Core("c", ports=[Port("c_clk", Direction.IN, SignalKind.CLOCK),
                                  Port("c_clk", Direction.IN, run=2)],
                      tests=[functional_test(5)]))
    top = Steac().integrate(soc).netlist.module("chip_test_top")
    wrapper = next(inst for inst in top.instances if inst.name == "u_wrap_c")
    assert wrapper.conns["c_clk"] == "tclk_c_clk"
    assert wrapper.conns["c_clk0"] == "glue_c_c_clk0"
