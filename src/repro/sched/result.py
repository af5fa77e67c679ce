"""Schedulable test tasks and schedule results.

The Core Test Scheduler operates on :class:`TestTask` objects — one per
(core, test) pair plus one per memory-BIST group.  A task knows its
control-IO needs, its power draw, and either a fixed duration
(functional, BIST) or a width-dependent duration (scan through a TAM of
``w`` wires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from repro.soc.core import ControlNeeds
from repro.soc.tests import TestKind
from repro.util import Table, format_cycles


@dataclass
class TestTask:
    """One schedulable test.

    Attributes:
        name: unique task name (``"USB.usb_scan"``, ``"MBIST.g0"``).
        core_name: owning core (tasks of the same core never overlap,
            see :attr:`exclusive`).
        kind: scan / functional / bist.
        control: control-IO classes needed while the task runs.
        clock_domains: clock-domain names needing test clock pins.
        power: abstract power units drawn while running.
        fixed_time: duration in cycles for width-independent tasks.
        time_fn: ``width -> cycles`` for scan tasks (monotone
            non-increasing); when set, ``fixed_time`` is ignored.  The
            platform builds these as declarative
            :class:`repro.sched.timecalc.ScanTimeModel` tables, so tasks
            (and the schedule results that embed them) pickle cleanly
            across process boundaries; ad-hoc callables still work but
            forfeit picklability.
        max_width: largest useful TAM width for this task.
        uses_functional_pins: functional tests occupy the chip's
            functional pin interface — at most one such task at a time.
        uses_bist_port: a memory-BIST group: it runs on the chip's one
            BIST engine through the BIST access port, and holds no core
            (its ``core_name`` is only a label).
    """

    name: str
    core_name: str
    kind: TestKind
    control: ControlNeeds = field(default_factory=ControlNeeds)
    clock_domains: tuple[str, ...] = ()
    power: float = 0.0
    fixed_time: int = 0
    time_fn: Optional[Callable[[int], int]] = None
    max_width: int = 1
    uses_functional_pins: bool = False
    uses_bist_port: bool = False

    @property
    def is_scan(self) -> bool:
        return self.time_fn is not None

    @property
    def exclusive(self) -> tuple[str, ...]:
        """The resources this task holds alone while it runs: two tasks
        sharing any of them never overlap.  ``core:<name>`` for a core
        test, ``bist`` for a BIST group instead, plus ``functional`` for
        a test on the chip's functional pins.  Every scheduler and lower
        bound reads this one rule."""
        held = "bist" if self.uses_bist_port else f"core:{self.core_name}"
        return (held, "functional") if self.uses_functional_pins else (held,)

    def time(self, width: int = 1) -> int:
        """Duration in cycles at the given TAM width."""
        if self.time_fn is not None:
            return self.time_fn(min(width, self.max_width))
        return self.fixed_time

    @cached_property
    def breakpoints(self) -> tuple[tuple[int, int], ...]:
        """``(width, time)`` at width 1 and at each wider width, up to
        ``max_width``, where the task gets strictly shorter than at
        every narrower width.

        Each entry's successor is its *next strictly shorter width*, the
        smallest useful widening; session width assignment and the ILP's
        width menu read the chain instead of probing widths one by one.
        Built once per task through :meth:`time`; ``time_fn`` and
        ``max_width`` are never reassigned after construction, so the
        cache cannot go stale.
        """
        chain = [(1, self.time(1))]
        for width in range(2, self.max_width + 1):
            time = self.time(width)
            if time < chain[-1][1]:
                chain.append((width, time))
        return tuple(chain)

    @property
    def min_time(self) -> int:
        """Duration at the task's own maximum useful width."""
        return self.time(self.max_width)

    @property
    def serial_time(self) -> int:
        """Duration at width 1 (fully serialized)."""
        return self.time(1)


@dataclass
class ScheduledTest:
    """A task placed in a schedule: its width, start and finish."""

    task: TestTask
    width: int = 1
    start: int = 0

    @property
    def length(self) -> int:
        return self.task.time(self.width)

    @property
    def finish(self) -> int:
        return self.start + self.length


@dataclass
class Session:
    """One test session: tests that run concurrently."""

    index: int
    tests: list[ScheduledTest] = field(default_factory=list)
    control_pins: int = 0
    data_pins: int = 0

    @property
    def length(self) -> int:
        """Session duration = slowest member."""
        return max((t.length for t in self.tests), default=0)

    @property
    def power(self) -> float:
        return sum(t.task.power for t in self.tests)


@dataclass
class ScheduleResult:
    """Outcome of a scheduling run.

    ``total_time`` includes inter-session reconfiguration overhead for
    session-based schedules; for non-session schedules it is the makespan.
    """

    soc_name: str
    strategy: str
    sessions: list[Session] = field(default_factory=list)
    total_time: int = 0
    pin_budget: int = 0
    notes: str = ""

    @property
    def session_count(self) -> int:
        return len(self.sessions)

    def to_dict(self) -> dict:
        """JSON-native schedule document — the ``schedule`` section of
        the integration-result schema, also emitted standalone by
        ``python -m repro d695 --json``."""
        return {
            "strategy": self.strategy,
            "total_time": self.total_time,
            "session_count": self.session_count,
            "pin_budget": self.pin_budget,
            "notes": self.notes,
            "sessions": [
                {
                    "index": session.index,
                    "length": session.length,
                    "power": session.power,
                    "control_pins": session.control_pins,
                    "data_pins": session.data_pins,
                    "tests": [
                        {
                            "name": test.task.name,
                            "core": test.task.core_name,
                            "kind": test.task.kind.value,
                            "width": test.width,
                            "start": test.start,
                            "finish": test.finish,
                        }
                        for test in session.tests
                    ],
                }
                for session in self.sessions
            ],
        }

    def scheduled_widths(self) -> dict[str, int]:
        """Per-core maximum assigned scan width — the width Test
        Insertion generates each wrapper for, and the width the
        verifier checks wrappers against (one definition, shared)."""
        widths: dict[str, int] = {}
        for session in self.sessions:
            for test in session.tests:
                if test.task.is_scan:
                    widths[test.task.core_name] = max(
                        widths.get(test.task.core_name, 1), test.width
                    )
        return widths

    def render(self) -> str:
        """ASCII schedule report."""
        table = Table(
            ["Session", "Tests (width)", "Control", "Data", "Length"],
            title=f"{self.strategy} schedule for {self.soc_name} "
            f"(pin budget {self.pin_budget})",
        )
        for session in self.sessions:
            names = ", ".join(
                f"{t.task.name}(w{t.width})" if t.task.is_scan else t.task.name
                for t in session.tests
            )
            table.add_row(
                [
                    session.index,
                    names,
                    session.control_pins,
                    session.data_pins,
                    format_cycles(session.length),
                ]
            )
        lines = [table.render(), f"total test time: {format_cycles(self.total_time)} cycles"]
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)
