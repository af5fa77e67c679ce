"""Reference wrapper design and pricing: the replaced code, retained.

:func:`repro.wrapper.balance.design_wrapper` replaced the two loops of
:func:`design_wrapper_reference` with the closed-form
:func:`repro.wrapper.balance.fill_cells`, and
:meth:`repro.sched.timecalc.ScanTimeModel.for_core` stopped running a
full wrapper design at every width, then stopped building fills at all
(it reads both depths from :func:`repro.wrapper.balance.fill_level`).
These bodies are kept verbatim as the oracles for
``tests/test_wrapper_fill.py``:

* :func:`design_wrapper_reference` places boundary cells one at a time
  on the least-loaded wrapper chain (first index on ties), which makes
  its semantics easy to audit;
* :func:`partition_greedy_reference` scans every bin for the smallest
  ``(load, bin)`` (the heap version picks the same bin);
* :func:`scan_times_fill_reference` is the per-width table loop that
  built both fills and took their maxima;
* :func:`plan_wrapper_reference` names every port bit for the
  wrapper's collision check.

Do not optimize them; their value is being the unoptimized baseline.
"""

from __future__ import annotations

from operator import add

from repro.sched.timecalc import scan_test_time
from repro.soc.bits import expand_port_bits
from repro.soc.core import Core
from repro.soc.ports import SignalKind
from repro.soc.scan import rebalance_lengths
from repro.util import check_positive
from repro.wrapper.balance import (
    WrapperChain,
    WrapperPlan,
    design_wrapper,
    fill_cells,
    internal_loads,
    partition_optimal,
    wrapper_cell_counts,
)
from repro.wrapper.generator import SCAN_IO, SERIAL_PORTS, GeneratedWrapper, wrapper_cells


def partition_greedy_reference(lengths: list[int], width: int) -> list[list[int]]:
    """Partition item indices into ``width`` bins, minimizing max load
    (LPT/BFD heuristic).  Returns bins of item indices (some may be
    empty); deterministic for reproducibility."""
    check_positive(width, "partition width")
    bins: list[list[int]] = [[] for _ in range(width)]
    loads = [0] * width
    for index in sorted(range(len(lengths)), key=lambda i: (-lengths[i], i)):
        target = min(range(width), key=lambda b: (loads[b], b))
        bins[target].append(index)
        loads[target] += lengths[index]
    return bins


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
                partition_optimal(lengths, width) if exact
                else partition_greedy_reference(lengths, width)
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


def scan_times_fill_reference(core: Core, patterns: int, max_width: int) -> tuple[int, ...]:
    """The ``ScanTimeModel.for_core`` table before closed-form depths:
    :func:`internal_loads` and two :func:`fill_cells` passes per width."""
    n_in_cells, n_out_cells = wrapper_cell_counts(core)
    times = []
    for width in range(1, max(1, max_width) + 1):
        loads, _ = internal_loads(core, width)
        si = max(map(add, loads, fill_cells(loads, n_in_cells)))
        so = max(map(add, loads, fill_cells(loads, n_out_cells)))
        times.append(scan_test_time(si, so, patterns))
    return tuple(times)


def _check_unique(names: list[str], message: str, module: str) -> None:
    if len(set(names)) < len(names):
        seen: set[str] = set()
        for name in names:  # report the first repeat, as the build would
            if name in seen:
                raise ValueError(message.format(name, module))
            seen.add(name)


def plan_wrapper_reference(core: Core, width: int = 1) -> GeneratedWrapper:
    """Plan ``core``'s wrapper at ``width`` TAM wires without building it,
    raising the :class:`ValueError` :func:`generate_wrapper` would for a
    port bit that repeats or collides with a wrapper port (``wsi``,
    ``wpo0``, …) or a repeated instance name (a hard core's chain name)."""
    plan = design_wrapper(core, width)
    module = f"{core.name}_wrapper"
    bits = [bit for p in core.ports if p.kind not in SCAN_IO for bit in expand_port_bits(p)]
    _check_unique([*SERIAL_PORTS, "wso", *(f"wp{io}{k}" for k in range(plan.width) for io in "io"),
                   "parallel_sel", *bits], "duplicate port {!r} on module {!r}", module)
    if core.scan_chains and not plan.rebalanced:
        # the instance names a hard core supplies, in build order
        functional = [p for p in core.ports if p.kind is SignalKind.FUNCTIONAL]
        ins = iter([b for p in functional if p.is_input for b in expand_port_bits(p)])
        outs = iter([b for p in functional if not p.is_input for b in expand_port_bits(p)])
        _check_unique([name for chain in plan.chains for name in (
            *(f"u_wbc_{next(ins)}" for _ in range(chain.input_cells)),
            *(f"u_{c}_si" for c in chain.internal_chains),
            *(f"u_wbc_{next(outs)}" for _ in range(chain.output_cells)),
        )], "duplicate instance {!r} in module {!r}", module)
    return GeneratedWrapper(plan, wrapper_cells(plan))
