"""Memory BIST scheduling: group memories under a power budget.

The BIST engine tests one *group* of memories at a time; memories inside
a group run **concurrently** (each TPG sweeps its own array while the
shared sequencer broadcasts the March phase), so a group's time is its
slowest member and its power is the sum of members.  Groups run
back-to-back on the single engine.

This is where BRAINS meets the Core Test Scheduler (Fig. 4): each group
becomes one fixed-time :class:`repro.sched.TestTask` that STEAC schedules
alongside the logic-core tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bist.backgrounds import standard_backgrounds
from repro.bist.march import MarchTest
from repro.bist.tpg import march_cycles
from repro.sched.result import TestTask
from repro.soc.core import ControlNeeds
from repro.soc.memory import MemorySpec
from repro.soc.tests import TestKind
from repro.util import Table, format_cycles


def memory_test_cycles(march: MarchTest, memory: MemorySpec, word_oriented: bool = False) -> int:
    """BIST run length for one memory; word-oriented testing repeats the
    algorithm once per data background (see :mod:`repro.bist.backgrounds`)."""
    base = march_cycles(march, memory.words, memory.is_two_port)
    if word_oriented:
        base *= len(standard_backgrounds(memory.bits))
    return base


@dataclass
class BistGroup:
    """One concurrently-tested set of memories."""

    index: int
    memories: list[MemorySpec] = field(default_factory=list)
    word_oriented: bool = False

    def cycles(self, march: MarchTest) -> int:
        """Group time = slowest member (all run concurrently)."""
        return max(
            (memory_test_cycles(march, m, self.word_oriented) for m in self.memories),
            default=0,
        )

    @property
    def power(self) -> float:
        return sum(m.power for m in self.memories)


@dataclass
class BistPlan:
    """A grouped BIST schedule for a set of memories."""

    march: MarchTest
    groups: list[BistGroup] = field(default_factory=list)
    word_oriented: bool = False

    @property
    def total_cycles(self) -> int:
        """Engine-serial total: groups run back-to-back."""
        return sum(g.cycles(self.march) for g in self.groups)

    @property
    def serial_cycles(self) -> int:
        """Baseline: every memory tested one after another."""
        return sum(
            memory_test_cycles(self.march, m, self.word_oriented)
            for g in self.groups
            for m in g.memories
        )

    @property
    def memory_count(self) -> int:
        return sum(len(g.memories) for g in self.groups)

    def to_tasks(self) -> list[TestTask]:
        """One schedulable task per group, all mutually exclusive (they
        share the one BIST engine and the BIST access port, so each
        holds ``bist`` in :attr:`TestTask.exclusive`; the core name
        ``MBIST`` is only a label)."""
        tasks = []
        for group in self.groups:
            tasks.append(
                TestTask(
                    name=f"MBIST.g{group.index}",
                    core_name="MBIST",
                    kind=TestKind.BIST,
                    control=ControlNeeds(),
                    power=group.power,
                    fixed_time=group.cycles(self.march),
                    uses_bist_port=True,
                )
            )
        return tasks

    def render(self) -> str:
        table = Table(
            ["Group", "Memories", "Power", "Cycles"],
            title=f"BIST plan ({self.march.name}, {self.memory_count} memories)",
        )
        for group in self.groups:
            table.add_row(
                [
                    group.index,
                    ", ".join(m.name for m in group.memories),
                    f"{group.power:.1f}",
                    format_cycles(group.cycles(self.march)),
                ]
            )
        speedup = self.serial_cycles / self.total_cycles if self.total_cycles else 1.0
        return "\n".join(
            [
                table.render(),
                f"total {format_cycles(self.total_cycles)} cycles "
                f"(fully serial {format_cycles(self.serial_cycles)}, "
                f"{speedup:.2f}x speedup)",
            ]
        )


def plan_bist(
    memories: list[MemorySpec],
    march: MarchTest,
    power_budget: float = 0.0,
    max_groups: int | None = None,
    word_oriented: bool = False,
) -> BistPlan:
    """Partition memories into concurrent groups.

    Greedy: memories sorted by test time descending; each joins the group
    whose makespan it increases least without exceeding the power budget
    (first-fit-decreasing on time with a power capacity check).  With no
    budget and no group cap, everything lands in one group.
    """
    if not memories:
        return BistPlan(march=march, word_oriented=word_oriented)
    order = sorted(
        memories,
        key=lambda m: -memory_test_cycles(march, m, word_oriented),
    )
    if power_budget > 0:
        for memory in order:
            if memory.power > power_budget:
                raise ValueError(
                    f"memory {memory.name!r} (power {memory.power}) exceeds the "
                    f"power budget {power_budget} on its own"
                )
    groups: list[BistGroup] = []
    for memory in order:
        best = None
        for group in groups:
            if power_budget > 0 and group.power + memory.power > power_budget:
                continue
            # placing into an existing group is free if it doesn't extend it
            added = max(
                0,
                memory_test_cycles(march, memory, word_oriented) - group.cycles(march),
            )
            if best is None or added < best[1]:
                best = (group, added)
        can_open = max_groups is None or len(groups) < max_groups
        if best is not None and (best[1] == 0 or not can_open):
            best[0].memories.append(memory)
        elif can_open:
            groups.append(
                BistGroup(index=len(groups), memories=[memory], word_oriented=word_oriented)
            )
        elif best is not None:
            best[0].memories.append(memory)
        else:
            raise ValueError(
                f"cannot place memory {memory.name!r}: all {len(groups)} groups "
                f"are at the power budget {power_budget} and max_groups="
                f"{max_groups} forbids opening another"
            )
    return BistPlan(march=march, groups=groups, word_oriented=word_oriented)
