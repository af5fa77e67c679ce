"""Reference wrapper design: the original per-cell boundary fill, retained.

:func:`repro.wrapper.balance.design_wrapper` replaced the two loops
below with the closed-form :func:`repro.wrapper.balance.fill_cells`,
and :meth:`repro.sched.timecalc.ScanTimeModel.for_core` stopped
running a full wrapper design at every width.  This body is kept
verbatim as the oracle for ``tests/test_wrapper_fill.py``: it places
boundary cells one at a time on the least-loaded wrapper chain (first
index on ties), which makes its semantics easy to audit.  Do not
optimize it; its value is being the unoptimized baseline.
"""

from __future__ import annotations

from repro.sched.timecalc import scan_test_time
from repro.soc.core import Core
from repro.soc.scan import rebalance_lengths
from repro.util import check_positive
from repro.wrapper.balance import (
    WrapperChain,
    WrapperPlan,
    partition_greedy,
    partition_optimal,
    wrapper_cell_counts,
)


def design_wrapper_reference(core: Core, width: int, exact: bool = False) -> WrapperPlan:
    """Build a balanced wrapper plan for ``core`` with ``width`` TAM wires.

    Internal scan chains are re-stitched into ``width`` balanced chains
    for soft cores, or partitioned (greedy or exact) for hard cores.
    Wrapper input/output cells (one per functional input/output bit) are
    then distributed to equalize scan-in and scan-out depths.
    """
    check_positive(width, "TAM width")
    n_in_cells, n_out_cells = wrapper_cell_counts(core)

    chains = [WrapperChain() for _ in range(width)]
    rebalanced = False
    if core.scan_chains:
        if core.is_soft:
            new_lengths = rebalance_lengths(core.scan_flops, width)
            for i, length in enumerate(new_lengths):
                chains[i].internal_chains.append(f"{core.name}_rebal{i}")
                chains[i].internal_length = length
            rebalanced = True
        else:
            lengths = core.chain_lengths
            partition = (
                partition_optimal(lengths, width) if exact else partition_greedy(lengths, width)
            )
            for b, items in enumerate(partition):
                for i in items:
                    chains[b].internal_chains.append(core.scan_chains[i].name)
                    chains[b].internal_length += lengths[i]

    # distribute boundary cells: input cells balance scan-in depth,
    # output cells balance scan-out depth (independent greedy passes)
    for _ in range(n_in_cells):
        target = min(chains, key=lambda c: c.in_length)
        target.input_cells += 1
    for _ in range(n_out_cells):
        target = min(chains, key=lambda c: c.out_length)
        target.output_cells += 1

    return WrapperPlan(core_name=core.name, width=width, chains=chains, rebalanced=rebalanced)


def scan_times_reference(core: Core, patterns: int, max_width: int) -> tuple[int, ...]:
    """The old ``ScanTimeModel.for_core`` table: one full wrapper design
    per width from 1 to ``max_width``."""
    times = []
    for width in range(1, max(1, max_width) + 1):
        plan = design_wrapper_reference(core, width)
        times.append(scan_test_time(plan.scan_in_depth, plan.scan_out_depth, patterns))
    return tuple(times)
