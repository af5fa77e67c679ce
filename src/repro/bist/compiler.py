"""BRAINS — the memory BIST compiler (paper Section 2, Fig. 2, ref [3]).

"With our automatic memory BIST generation system, BRAINS, one can
generate the BIST circuit using the GUI or command shell, and evaluate
the memory test efficiency among different designs easily."

:class:`Brains` compiles a list of memory specs into a
:class:`BistEngine`: a grouped test plan, the leaf cells of its hardware
(shared controller + sequencer + one TPG per memory), exact cycle
counts, schedulable tasks for STEAC, and a behavioral runner that
actually executes the March test against (optionally fault-injected)
memory models.  Cells are counted in placement order, so each area is
the built module's to the bit; the ``netlist`` is built on first read,
in one ``bist.netlist`` span.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.bist.controller import bist_controller_cells, make_bist_controller
from repro.bist.march import MARCH_C_MINUS, MarchTest
from repro.bist.memory_model import FaultFreeMemory, FaultModel, FaultyMemory
from repro.bist.scheduling import BistPlan, plan_bist
from repro.bist.sequencer import make_sequencer, sequencer_cells
from repro.bist.tpg import TpgRunResult, make_tpg, run_tpg, tpg_cells
from repro.netlist import Module, Netlist, cell_area
from repro.obs import span
from repro.soc.memory import MemorySpec
from repro.util import Table, format_gates


@dataclass
class BrainsConfig:
    """Compiler knobs.

    Attributes:
        march: the March algorithm to embed.
        power_budget: cap on concurrent memory test power (0 = none).
        max_groups: cap on group count (None = as many as needed).
        sequencers: sequencer instances to generate (the paper's "one or
            more Sequencers"; >1 allows different algorithms per memory
            family — areas add, behaviour is identical here).
        word_oriented: repeat the algorithm once per data background so
            word-wide arrays get intra-word coupling coverage
            (:mod:`repro.bist.backgrounds`).
    """

    march: MarchTest = MARCH_C_MINUS
    power_budget: float = 0.0
    max_groups: int | None = None
    sequencers: int = 1
    word_oriented: bool = False


@dataclass
class BistRunResult:
    """Outcome of a behavioral engine run."""

    results: list[TpgRunResult] = field(default_factory=list)
    total_cycles: int = 0

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failing(self) -> list[str]:
        return [r.memory_name for r in self.results if not r.passed]


@dataclass
class BistEngine:
    """A compiled BIST subsystem for one SOC's memories: the leaf cells
    of each TPG (by memory name), sequencer and the shared controller."""

    specs: list[MemorySpec]
    config: BrainsConfig
    plan: BistPlan
    tpg_cells: dict[str, Counter[str]]
    sequencer_cells: list[Counter[str]]
    controller_cells: Counter[str]
    _netlist: Netlist | None = field(default=None, repr=False, compare=False)

    # -- hardware ------------------------------------------------------------

    @property
    def netlist(self) -> Netlist:
        """The generated BIST hardware, built on the first read only;
        ``tpg_modules``, ``sequencer_modules`` and ``controller_module`` view it."""
        if self._netlist is None:
            with span("bist.netlist", memories=len(self.specs)):
                netlist = Netlist()
                for spec in self.specs:
                    netlist.add(make_tpg(spec))
                for i in range(len(self.sequencer_cells)):
                    netlist.add(make_sequencer(self.march, name=f"sequencer{i}"))
                controller = make_bist_controller(len(self.specs), max(1, len(self.plan.groups)))
                netlist.top_name = netlist.add(controller).name
                self._netlist = netlist
        return self._netlist

    @property
    def tpg_modules(self) -> dict[str, Module]:
        return {name: self.netlist.module(f"tpg_{name}") for name in self.tpg_cells}

    @property
    def sequencer_modules(self) -> list[Module]:
        return [self.netlist.module(f"sequencer{i}") for i in range(len(self.sequencer_cells))]

    @property
    def controller_module(self) -> Module:
        return self.netlist.top

    # -- figures -------------------------------------------------------------

    @property
    def march(self) -> MarchTest:
        return self.config.march

    @property
    def total_cycles(self) -> int:
        """Engine test time (groups back-to-back)."""
        return self.plan.total_cycles

    def memory_cycles(self, spec: MemorySpec) -> int:
        from repro.bist.scheduling import memory_test_cycles

        return memory_test_cycles(self.march, spec, self.config.word_oriented)

    @property
    def total_area(self) -> float:
        """Generated BIST hardware in NAND2 equivalents."""
        total = cell_area(self.controller_cells)
        total += sum(cell_area(cells) for cells in self.sequencer_cells)
        total += sum(cell_area(cells) for cells in self.tpg_cells.values())
        return total

    def to_tasks(self):
        """Schedulable group tasks for the Core Test Scheduler (Fig. 4)."""
        return self.plan.to_tasks()

    def to_dict(self) -> dict:
        """JSON-native summary for ``IntegrationResult.to_dict()``."""
        return {
            "march": self.march.name,
            "memory_count": self.plan.memory_count,
            "group_count": len(self.plan.groups),
            "total_cycles": self.plan.total_cycles,
            "area_gates": round(self.total_area, 1),
        }

    # -- behavioral execution ---------------------------------------------------

    def run(
        self,
        faults: dict[str, FaultModel] | None = None,
        model_words: int = 256,
        seed: int = 1,
    ) -> BistRunResult:
        """Execute the BIST plan against behavioral memory models.

        Arrays are modelled at ``min(spec.words, model_words)`` cells to
        keep runs fast; *cycle counts are always reported for the true
        sizes*.  ``faults`` maps memory names to a fault to inject.
        """
        faults = faults or {}
        result = BistRunResult(total_cycles=self.plan.total_cycles)
        for group in self.plan.groups:
            for spec in group.memories:
                size = min(spec.words, model_words)
                fault = faults.get(spec.name)
                if fault is None:
                    memory = FaultFreeMemory(size, seed=seed)
                else:
                    memory = FaultyMemory(size, fault, seed=seed)
                run = run_tpg(
                    memory, self.march, name=spec.name, two_port=spec.is_two_port
                )
                # report true-size cycles
                run.cycles = self.memory_cycles(spec)
                result.results.append(run)
        return result

    # -- reports -----------------------------------------------------------------

    def area_table(self) -> Table:
        table = Table(
            ["Block", "Instances", "Gates"],
            title=f"BRAINS-generated BIST hardware ({self.march.name})",
        )
        table.add_row(["BIST controller", 1, f"{cell_area(self.controller_cells):.0f}"])
        seq_area = sum(cell_area(cells) for cells in self.sequencer_cells)
        table.add_row(["Sequencer", len(self.sequencer_cells), f"{seq_area:.0f}"])
        tpg_area = sum(cell_area(cells) for cells in self.tpg_cells.values())
        table.add_row(["TPGs", len(self.tpg_cells), f"{tpg_area:.0f}"])
        table.add_row(["Total", "", format_gates(self.total_area)])
        return table


class Brains:
    """The BRAINS compiler front end."""

    def compile(
        self, memories: list[MemorySpec], config: BrainsConfig | None = None
    ) -> BistEngine:
        """Compile BIST for ``memories``: plan groups, count the hardware."""
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
        tpgs: dict[str, Counter[str]] = {}
        for spec in memories:
            if spec.name in tpgs:  # netlist module names are unique
                raise ValueError(f"duplicate module {'tpg_' + spec.name!r}")
            tpgs[spec.name] = tpg_cells(spec)
        return BistEngine(
            specs=list(memories),
            config=config,
            plan=plan,
            tpg_cells=tpgs,
            sequencer_cells=[sequencer_cells(config.march)] * max(1, config.sequencers),
            controller_cells=bist_controller_cells(len(memories), max(1, len(plan.groups))),
        )
