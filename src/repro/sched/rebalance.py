"""Scan-chain rebalancing reports for soft cores.

"If the IP is a soft core, the scan chains can be reconfigured.  The Core
Test Scheduler will then rebalance scan chains for each assigned TAM
width.  The results can be fed back to the SOC integrator to reconfigure
the scan chains to balance the chain length." (paper, Section 2)

The rebalancing arithmetic lives in
:func:`repro.soc.scan.rebalance_lengths`; this module produces the
integrator-facing feedback report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.result import ScheduleResult
from repro.soc.core import Core
from repro.soc.scan import rebalance_lengths
from repro.soc.soc import Soc
from repro.util import Table


@dataclass(frozen=True)
class RebalanceAdvice:
    """Feedback for one soft core: re-stitch to these chain lengths."""

    core_name: str
    assigned_width: int
    old_lengths: tuple[int, ...]
    new_lengths: tuple[int, ...]

    @property
    def old_max(self) -> int:
        return max(self.old_lengths, default=0)

    @property
    def new_max(self) -> int:
        return max(self.new_lengths, default=0)


def rebalance_advice(core: Core, width: int) -> RebalanceAdvice:
    """Rebalancing feedback for one soft core at ``width``."""
    return RebalanceAdvice(
        core_name=core.name,
        assigned_width=width,
        old_lengths=tuple(core.chain_lengths),
        new_lengths=tuple(rebalance_lengths(core.scan_flops, width)),
    )


def rebalance_report(soc: Soc, result: ScheduleResult) -> Table:
    """Integrator feedback for every soft scanned core in a schedule."""
    widths = result.scheduled_widths()
    table = Table(
        ["Core", "TAM width", "Old chains (max)", "Rebalanced chains (max)"],
        title="Scan-chain rebalancing feedback (soft cores)",
    )
    for core in soc.cores:
        if not (core.is_soft and core.has_scan and core.name in widths):
            continue
        advice = rebalance_advice(core, widths[core.name])
        table.add_row(
            [
                advice.core_name,
                advice.assigned_width,
                f"{len(advice.old_lengths)} ({advice.old_max})",
                f"{len(advice.new_lengths)} ({advice.new_max})",
            ]
        )
    return table
