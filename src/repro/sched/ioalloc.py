"""Test-IO allocation and sharing.

Section 3 of the paper: "The total test IOs of the three large cores are
19, including 6 clock signals, 4 reset signals, 7 test enable signals,
and 2 SE signals.  With shared test IOs, the test control IO counts are
reduced."

The sharing rules implemented here (each is a policy knob), applied to
a concurrent set's totals by the one function :func:`control_pin_count`:

* **clocks** — one chip pin per distinct clock *domain* among the cores
  concurrently under test (domains cannot share a pin; identical domains
  listed by several tasks do).
* **resets** — all resets under test assert together, so one shared pin.
* **scan enables** — the controller aligns all shift phases in a session,
  so one shared SE pin.
* **test enables / dedicated test signals** — static per session, so the
  generated Test Controller drives them on-chip: zero pins (at the cost
  of controller gates, which E4 accounts for).
* **BIST port** — all memories share the single BIST access port
  (Fig. 2); it costs :data:`BIST_PORT_PINS` whenever a BIST task runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.sched.result import TestTask

#: Chip pins of the shared memory-BIST access port (start, done/result,
#: serial command in, serial response out) — the MBS/MBR/MSI/MSO subset
#: of Fig. 2 that must reach the tester; the rest is on-chip.
BIST_PORT_PINS = 4


@dataclass(frozen=True)
class SharingPolicy:
    """Which control-IO classes may share chip pins."""

    share_resets: bool = True
    share_scan_enables: bool = True
    te_from_controller: bool = True

    @classmethod
    def none(cls) -> "SharingPolicy":
        """No sharing at all — every control signal gets its own pin
        (the paper's '19 IOs' baseline)."""
        return cls(share_resets=False, share_scan_enables=False, te_from_controller=False)


def control_pin_count(domains: int, resets: int, scan_enables: int, test_enables: int,
                      bist: bool, policy: SharingPolicy = SharingPolicy()) -> int:
    """Chip control pins for a concurrent set's totals (distinct clock
    domains, resets, scan enables, test enables, any BIST task), the rule
    both :func:`control_pins` and the session search's memo misses apply."""
    pins = domains
    if policy.share_resets:
        pins += 1 if resets else 0
    else:
        pins += resets
    if policy.share_scan_enables:
        pins += 1 if scan_enables else 0
    else:
        pins += scan_enables
    if not policy.te_from_controller:
        pins += test_enables
    if bist:
        pins += BIST_PORT_PINS
    return pins


def control_pins(tasks: Iterable[TestTask], policy: SharingPolicy = SharingPolicy()) -> int:
    """Chip control pins needed while ``tasks`` run concurrently."""
    domains: set[str] = set()
    resets = scan_enables = test_enables = 0
    bist = False
    for task in tasks:
        domains.update(task.clock_domains)
        resets += task.control.resets
        scan_enables += task.control.scan_enables
        test_enables += task.control.test_enables
        bist = bist or task.uses_bist_port
    return control_pin_count(len(domains), resets, scan_enables, test_enables, bist, policy)


def io_sharing_report(tasks: Iterable[TestTask], policy: SharingPolicy = SharingPolicy()):
    """Before/after table for the E3 experiment."""
    from repro.util import Table

    tasks = list(tasks)
    raw = sum(t.control.total for t in tasks)
    shared = control_pins(tasks, policy)
    table = Table(["Scheme", "Control pins"], title="Test control IO sharing")
    table.add_row(["dedicated (paper: 19 for USB+TV+JPEG)", raw])
    table.add_row(["shared via policy", shared])
    return table
