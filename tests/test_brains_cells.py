"""Closed-form BRAINS cell counts against the built BIST hardware.

BRAINS prices each TPG, sequencer and the shared BIST controller from
closed-form leaf-cell counts and builds its netlist only on first read.
These tests hold each count equal to the built module's cell counts, in
the same key order (the order :func:`repro.netlist.cell_area` sums in),
and every block area, total area, result document and area table equal
to the retained build and walk (``tests/oracles/brains_area_ref.py``)
under ``==``.  They run over ``tests/test_brains_tree.py``'s corpus
(DSC and generated chips), every library March test and its retention
variant, one or two sequencers, and controllers of 1-40 memories in
1-20 groups.  A repeated memory name is rejected at compile time with
the message the netlist build raised.
"""

import pytest

from repro.bist import ALGORITHMS, Brains, BrainsConfig
from repro.bist.controller import bist_controller_cells, make_bist_controller
from repro.bist.march import with_retention
from repro.bist.sequencer import make_sequencer, sequencer_cells
from repro.bist.tpg import make_tpg, tpg_cells
from repro.netlist import cell_area
from repro.soc.memory import MemorySpec

from oracles.brains_area_ref import reference_compile
from test_brains_tree import CORPUS

#: The library March tests and their data-retention variants.
MARCHES = [*ALGORITHMS, *(with_retention(march) for march in ALGORITHMS)]

CONFIGS = [BrainsConfig(march=march, sequencers=n) for march in MARCHES for n in (1, 2)]


def assert_same_cells(cells, module):
    """``cells`` is ``module``'s histogram, key order included, so it
    prices to the same float."""
    assert list(cells.items()) == list(module.cell_counts().items()), module.name
    assert cell_area(cells) == module.area(), module.name


@pytest.mark.parametrize("chip", list(CORPUS))
def test_tpg_cells_equal_built(chip):
    for spec in CORPUS[chip].memories:
        assert_same_cells(tpg_cells(spec), make_tpg(spec))


@pytest.mark.parametrize("march", MARCHES, ids=lambda march: march.name)
def test_sequencer_cells_equal_built(march):
    assert_same_cells(sequencer_cells(march), make_sequencer(march))


@pytest.mark.parametrize("n_groups", range(1, 21))
def test_controller_cells_equal_built(n_groups):
    for n_memories in range(1, 41):
        assert_same_cells(bist_controller_cells(n_memories, n_groups),
                          make_bist_controller(n_memories, n_groups))


@pytest.mark.parametrize("chip", list(CORPUS))
def test_engine_prices_equal_the_walk(chip):
    memories = CORPUS[chip].memories
    for config in CONFIGS:
        case = f"{config.march.name}, {config.sequencers} sequencer(s)"
        engine = Brains().compile(memories, config)
        reference = reference_compile(memories, config)
        netlist = reference.netlist
        assert cell_area(engine.controller_cells) == reference.controller_module.area(netlist), case
        assert [cell_area(cells) for cells in engine.sequencer_cells] == [
            module.area(netlist) for module in reference.sequencer_modules], case
        assert list(engine.tpg_cells) == list(reference.tpg_modules), case
        for name, module in reference.tpg_modules.items():
            assert_same_cells(engine.tpg_cells[name], module)
        assert engine.total_area == reference.total_area, case
        assert engine.to_dict() == reference.to_dict(), case
        assert engine.area_table().render() == reference.area_table().render(), case


class TestRejectionParity:
    def test_repeated_memory_name_rejected_at_compile(self):
        memories = [MemorySpec("ram", 64, 8), MemorySpec("rom", 32, 8), MemorySpec("ram", 16, 4)]
        with pytest.raises(ValueError) as counted:
            Brains().compile(memories)
        with pytest.raises(ValueError) as built:
            reference_compile(memories)
        assert str(counted.value) == str(built.value) == "duplicate module 'tpg_ram'"

    def test_no_memories(self):
        with pytest.raises(ValueError, match="^BRAINS needs at least one memory$"):
            Brains().compile([])

    @pytest.mark.parametrize("shape", [(0, 1), (1, 0), (0, 0), (-1, 3)])
    def test_empty_controller(self, shape):
        message = "controller needs at least one memory and one group"
        with pytest.raises(ValueError) as counted:
            bist_controller_cells(*shape)
        with pytest.raises(ValueError) as built:
            make_bist_controller(*shape)
        assert str(counted.value) == str(built.value) == message
