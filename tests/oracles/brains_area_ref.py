"""Reference BRAINS pricing: the gate-level build and walk, retained.

``Brains.compile`` used to build every BRAINS module (one TPG per
memory, the sequencers, the shared BIST controller) and price the
engine by walking them with ``Module.area``: controller, then
sequencers, then TPGs.  It now prices closed-form leaf-cell counts
(``tpg_cells``, ``sequencer_cells``, ``bist_controller_cells``) and
builds the netlist only when something reads it.  This is the old build
and walk, the oracle ``tests/test_brains_cells.py`` races those counts
against.  Do not optimize it; its value is being the original.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bist import BrainsConfig
from repro.bist.controller import make_bist_controller
from repro.bist.scheduling import BistPlan, plan_bist
from repro.bist.sequencer import make_sequencer
from repro.bist.tpg import make_tpg
from repro.netlist import Module, Netlist
from repro.soc.memory import MemorySpec
from repro.util import Table, format_gates


@dataclass
class ReferenceEngine:
    """An engine whose modules are all built, priced by walking them."""

    config: BrainsConfig
    plan: BistPlan
    netlist: Netlist
    tpg_modules: dict[str, Module]
    controller_module: Module
    sequencer_modules: list[Module]

    @property
    def total_area(self) -> float:
        total = self.controller_module.area(self.netlist)
        total += sum(s.area(self.netlist) for s in self.sequencer_modules)
        total += sum(t.area(self.netlist) for t in self.tpg_modules.values())
        return total

    def to_dict(self) -> dict:
        return {
            "march": self.config.march.name,
            "memory_count": self.plan.memory_count,
            "group_count": len(self.plan.groups),
            "total_cycles": self.plan.total_cycles,
            "area_gates": round(self.total_area, 1),
        }

    def area_table(self) -> Table:
        table = Table(
            ["Block", "Instances", "Gates"],
            title=f"BRAINS-generated BIST hardware ({self.config.march.name})",
        )
        table.add_row(
            ["BIST controller", 1, f"{self.controller_module.area(self.netlist):.0f}"]
        )
        seq_area = sum(s.area(self.netlist) for s in self.sequencer_modules)
        table.add_row(["Sequencer", len(self.sequencer_modules), f"{seq_area:.0f}"])
        tpg_area = sum(t.area(self.netlist) for t in self.tpg_modules.values())
        table.add_row(["TPGs", len(self.tpg_modules), f"{tpg_area:.0f}"])
        table.add_row(["Total", "", format_gates(self.total_area)])
        return table


def reference_compile(
    memories: list[MemorySpec], config: BrainsConfig | None = None
) -> ReferenceEngine:
    """Plan groups and build every module, as ``Brains.compile`` did."""
    if not memories:
        raise ValueError("BRAINS needs at least one memory")
    config = config or BrainsConfig()
    plan = plan_bist(
        memories,
        config.march,
        config.power_budget,
        config.max_groups,
        word_oriented=config.word_oriented,
    )
    netlist = Netlist()
    tpgs: dict[str, Module] = {}
    for spec in memories:
        module = make_tpg(spec)
        netlist.add(module)
        tpgs[spec.name] = module
    sequencers = []
    for i in range(max(1, config.sequencers)):
        module = make_sequencer(config.march, name=f"sequencer{i}")
        netlist.add(module)
        sequencers.append(module)
    controller = make_bist_controller(len(memories), max(1, len(plan.groups)))
    netlist.add(controller)
    netlist.top_name = controller.name
    return ReferenceEngine(
        config=config,
        plan=plan,
        netlist=netlist,
        tpg_modules=tpgs,
        controller_module=controller,
        sequencer_modules=sequencers,
    )
