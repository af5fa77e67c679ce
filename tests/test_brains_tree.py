"""BRAINS hardware built with the shared tree builder.

The sequencer, the TPGs and the BIST controller build every AND/OR
reduction with :func:`repro.netlist.netlist.add_tree`.  These tests hold
each BRAINS module's cell counts, and each engine's result document,
equal to the same engine built with BRAINS's original tree builder
(``tests/oracles/brains_tree_ref.py``) patched in, over DSC and
generated chips, every library March test and one or two sequencers.
"""

import pytest

from repro.bist import ALGORITHMS, Brains, BrainsConfig, controller, sequencer, tpg
from repro.gen import SocGenerator
from repro.netlist import Module
from repro.netlist.netlist import add_tree
from repro.soc.dsc import build_dsc_chip

from oracles.brains_tree_ref import tree_reference


def _corpus():
    yield "dsc", build_dsc_chip()
    for profile, seeds in (("tiny", range(1, 25)), ("small", range(1, 13)), ("large", range(1, 5))):
        for seed in seeds:
            soc = SocGenerator(seed, profile).generate()
            if soc.memories:
                yield f"{profile}-{seed}", soc


#: DSC and the generated chips with memories among the first seeds.
CORPUS = dict(_corpus())

CONFIGS = [BrainsConfig(march=march, sequencers=n) for march in ALGORITHMS for n in (1, 2)]


def test_corpus_spans_profiles():
    assert {label.split("-")[0] for label in CORPUS} == {"dsc", "tiny", "small", "large"}
    assert len(CORPUS) >= 20


@pytest.mark.parametrize("kind", ["AND", "OR"])
def test_add_tree_is_the_reference_tree(kind):
    for n in range(40):
        nets = [f"n{i}" for i in range(n)]
        built, reference = Module("built"), Module("reference")
        for m in (built, reference):
            for net in nets:
                m.add_input(net)
        add_tree(built, nets, built.add_output("y"), kind, "u_t")
        tree_reference(reference, nets, reference.add_output("y"), kind, "u_t")
        assert built.instances == reference.instances, n
        assert built.nets == reference.nets, n


@pytest.mark.parametrize("chip", list(CORPUS))
def test_same_cells_as_the_reference_tree(chip, monkeypatch):
    memories = CORPUS[chip].memories
    engines = [Brains().compile(memories, config) for config in CONFIGS]
    for engine in engines:
        engine.netlist  # built on first read: build it now, with add_tree
    reference_calls = []

    def recording_reference(m, nets, out, kind, prefix):
        reference_calls.append(m.name)
        tree_reference(m, nets, out, kind, prefix)

    for module in (sequencer, tpg, controller):
        monkeypatch.setattr(module, "add_tree", recording_reference)
    references = [Brains().compile(memories, config) for config in CONFIGS]
    for config, engine, reference in zip(CONFIGS, engines, references):
        case = f"{config.march.name}, {config.sequencers} sequencer(s)"
        assert engine.to_dict() == reference.to_dict(), case
        reference_calls.clear()
        built = engine.netlist.modules
        assert reference_calls == [], case  # built before the patch
        modules = reference.netlist.modules
        assert set(reference_calls) == set(modules), case  # every module built now, by the oracle
        assert built.keys() == modules.keys(), case
        for name, module in built.items():
            assert module.cell_counts() == modules[name].cell_counts(), (case, name)
            assert module.validate(engine.netlist) == [], (case, name)
