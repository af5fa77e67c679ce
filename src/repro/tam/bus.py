"""TAM bus model: wire assignment derived from a schedule.

The mux-based TAM carries test data between chip pins and core wrappers.
Given a session schedule, each scan-tested core gets a contiguous slice
of TAM wire pairs for the duration of its session; the TAM multiplexer
(:mod:`repro.tam.mux`) steers chip pins to the active session's cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sched.result import ScheduleResult
from repro.util import Table


@dataclass(frozen=True)
class TamSlot:
    """One core's TAM allocation inside one session."""

    session: int
    core_name: str
    task_name: str
    wires: tuple[int, ...]  # wire-pair indices

    @property
    def width(self) -> int:
        return len(self.wires)


@dataclass
class TamBus:
    """The chip's TAM: total wire-pair count and per-session slots."""

    width: int
    slots: list[TamSlot] = field(default_factory=list)

    @property
    def sessions(self) -> int:
        return max((s.session for s in self.slots), default=-1) + 1

    def slot_for_task(self, task_name: str) -> TamSlot:
        for slot in self.slots:
            if slot.task_name == task_name:
                return slot
        raise KeyError(f"no TAM slot for task {task_name!r}")

    def wire_sources(self) -> dict[int, list[TamSlot]]:
        """wire index → slots that drive it (across sessions)."""
        sources: dict[int, list[TamSlot]] = {w: [] for w in range(self.width)}
        for slot in self.slots:
            for wire in slot.wires:
                sources[wire].append(slot)
        return sources

    def render(self) -> Table:
        table = Table(
            ["Session", "Core", "Wire pairs"], title=f"TAM bus ({self.width} wire pairs)"
        )
        for slot in self.slots:
            wires = ",".join(str(w) for w in slot.wires)
            table.add_row([slot.session, slot.core_name, wires])
        return table


def build_tam(result: ScheduleResult) -> TamBus:
    """Derive the TAM bus from a schedule: within each session, scan
    tasks receive consecutive wire-pair slices starting at wire 0."""
    width = 0
    slots: list[TamSlot] = []
    for session in result.sessions:
        cursor = 0
        for test in session.tests:
            if not test.task.is_scan:
                continue
            wires = tuple(range(cursor, cursor + test.width))
            cursor += test.width
            slots.append(
                TamSlot(
                    session=session.index,
                    core_name=test.task.core_name,
                    task_name=test.task.name,
                    wires=wires,
                )
            )
        width = max(width, cursor)
    return TamBus(width=width, slots=slots)
