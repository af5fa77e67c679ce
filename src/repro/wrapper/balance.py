"""Wrapper scan-chain balancing.

A wrapped core's test time is governed by its longest wrapper chain, so
the generator must partition the core's internal scan chains plus its
boundary cells into ``w`` balanced wrapper chains (the classic
*Design_wrapper* problem).  The paper's scheduler additionally
"rebalances scan chains for each assigned TAM width" for soft cores.

Provided algorithms:

* :func:`partition_greedy` — longest-processing-time/best-fit-decreasing
  heuristic (sort descending, place on least-loaded chain); the standard
  Design_wrapper heuristic.
* :func:`partition_optimal` — exact branch-and-bound minimizing the max
  chain length; exponential, intended for small instances and for
  validating the heuristic in tests.
* :func:`design_wrapper` — the full flow: internal chains (re-stitched
  for soft cores, see :func:`internal_loads`), then wrapper input/output
  cells distributed by :func:`fill_cells` to balance scan-in/scan-out
  lengths separately.

:meth:`repro.sched.timecalc.ScanTimeModel.for_core` prices a core at
every width from the same helpers, reading both depths in closed form
from the sorted internal loads (:func:`fill_level`), so the scheduler's
time tables and the wrapper InsertDft builds always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapreplace

from repro.soc.core import Core
from repro.soc.ports import bit_tally
from repro.soc.scan import rebalance_lengths
from repro.util import check_positive


def partition_greedy(lengths: list[int], width: int) -> list[list[int]]:
    """Partition item indices into ``width`` bins, minimizing max load
    (LPT/BFD heuristic: longest item first, ties by index, onto the
    smallest ``(load, bin)`` of a heap).  Returns bins of item indices
    (some may be empty); deterministic for reproducibility."""
    check_positive(width, "partition width")
    bins: list[list[int]] = [[] for _ in range(width)]
    heap = [(0, b) for b in range(width)]  # ascending, so already a heap
    for index in sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True):
        load, target = heap[0]
        bins[target].append(index)
        heapreplace(heap, (load + lengths[index], target))
    return bins


def partition_optimal(lengths: list[int], width: int, node_limit: int = 200_000) -> list[list[int]]:
    """Exact minimum-makespan partition via branch-and-bound.

    Sorted-descending DFS with two prunes: (a) bound the partial makespan
    by the best complete solution found, (b) skip equal-load bins
    (symmetry).  Falls back to the greedy answer if ``node_limit`` is
    exhausted (guards pathological inputs in property tests).
    """
    check_positive(width, "partition width")
    n = len(lengths)
    if n == 0:
        return [[] for _ in range(width)]
    order = sorted(range(n), key=lambda i: (-lengths[i], i))
    best_bins = partition_greedy(lengths, width)
    best_makespan = max((sum(lengths[i] for i in b) for b in best_bins), default=0)
    lower = max(max(lengths, default=0), (sum(lengths) + width - 1) // width)
    if best_makespan == lower:
        return best_bins
    assign = [0] * n
    loads = [0] * width
    nodes = 0

    def dfs(pos: int) -> bool:
        nonlocal best_makespan, nodes
        if nodes > node_limit:
            return True  # abort: keep best found so far
        nodes += 1
        if pos == n:
            makespan = max(loads)
            if makespan < best_makespan:
                best_makespan = makespan
                for i in range(n):
                    best_bins_flat[order[i]] = assign[i]
            return best_makespan == lower
        item = lengths[order[pos]]
        seen_loads: set[int] = set()
        for b in range(width):
            if loads[b] in seen_loads:
                continue  # symmetric bin
            seen_loads.add(loads[b])
            if loads[b] + item >= best_makespan:
                continue
            loads[b] += item
            assign[pos] = b
            if dfs(pos + 1):
                loads[b] -= item
                return True
            loads[b] -= item
        return False

    best_bins_flat = [0] * n
    for b, items in enumerate(best_bins):
        for i in items:
            best_bins_flat[i] = b
    dfs(0)
    result: list[list[int]] = [[] for _ in range(width)]
    for i, b in enumerate(best_bins_flat):
        result[b].append(i)
    return result


@dataclass
class WrapperChain:
    """One wrapper chain: some internal scan chains plus boundary cells.

    ``in_length`` (scan-in depth) counts input cells + internal flops;
    ``out_length`` counts internal flops + output cells.
    """

    internal_chains: list[str] = field(default_factory=list)
    internal_length: int = 0
    input_cells: int = 0
    output_cells: int = 0

    @property
    def in_length(self) -> int:
        return self.input_cells + self.internal_length

    @property
    def out_length(self) -> int:
        return self.internal_length + self.output_cells


@dataclass
class WrapperPlan:
    """A complete wrapper-chain assignment for one core at one TAM width."""

    core_name: str
    width: int
    chains: list[WrapperChain]
    rebalanced: bool = False

    @property
    def scan_in_depth(self) -> int:
        """si: the longest wrapper scan-in path."""
        return max((c.in_length for c in self.chains), default=0)

    @property
    def scan_out_depth(self) -> int:
        """so: the longest wrapper scan-out path."""
        return max((c.out_length for c in self.chains), default=0)

    @property
    def boundary_cells(self) -> int:
        """Total wrapper boundary cells in the plan."""
        return sum(c.input_cells + c.output_cells for c in self.chains)


def wrapper_cell_counts(core: Core) -> tuple[int, int]:
    """(input cells, output cells) a wrapper needs for ``core``.

    One cell per functional bit, counted without naming one (a run
    counts its length); INOUT pads get an output-side observation cell
    only (their drive side rides the mission interconnect) — the same
    accounting :func:`repro.wrapper.generator.generate_wrapper`
    stitches, so plans and generated netlists always agree.
    """
    n_in, n_out, n_inout = bit_tally(core.ports)
    return n_in, n_out + n_inout


def fill_level(levels: list[int], cells: int) -> tuple[int, int]:
    """``(level, extra)`` of :func:`fill_cells` over ascending ``levels``:
    chains below ``level`` rise to it, ``extra`` cells top up chains at it,
    and the deepest chain reaches ``max(levels[-1], level + (extra > 0))``."""
    count = total = 0
    for level in levels:  # grow the filled prefix while the cells reach the next level
        if count * level - total > cells:
            break
        total += level
        count += 1
    return divmod(total + cells, count)


def fill_cells(loads: list[int], cells: int) -> list[int]:
    """Boundary cells each chain gets when ``cells`` cells go one at a
    time to the least-loaded chain, ties to the lowest index: every chain
    below :func:`fill_level`'s level is raised to it, and the cells left
    over go one each to the lowest-index chains at it.  ``loads`` has one
    entry per chain."""
    level, extra = fill_level(sorted(loads), cells)
    fill = [max(0, level - load) for load in loads]
    at_level = [i for i, load in enumerate(loads) if load <= level]
    for i in at_level[:extra]:
        fill[i] += 1
    return fill


def internal_loads(
    core: Core, width: int, exact: bool = False
) -> tuple[list[int], list[list[int]]]:
    """Internal scan flops on each of ``width`` wrapper chains, and the
    hard core's chain indices on each (empty for other cores).

    A soft core is re-stitched into ``width`` balanced chains; with
    fewer flops than wires the extra wrapper chains stay empty and carry
    only boundary cells.  A hard core's chains are partitioned, greedily
    or (``exact``) by branch-and-bound.
    """
    if core.scan_chains and not core.is_soft:
        lengths = core.chain_lengths
        partition = (
            partition_optimal(lengths, width) if exact else partition_greedy(lengths, width)
        )
        return [sum(lengths[i] for i in items) for items in partition], partition
    loads = rebalance_lengths(core.scan_flops, width) if core.scan_chains else []
    return loads + [0] * (width - len(loads)), []


def design_wrapper(core: Core, width: int, exact: bool = False) -> WrapperPlan:
    """Build a balanced wrapper plan for ``core`` with ``width`` TAM wires.

    Internal scan chains are re-stitched into ``width`` balanced chains
    for soft cores, or partitioned (greedy or exact) for hard cores.
    Wrapper input/output cells (one per functional input/output bit) are
    then distributed to equalize scan-in and scan-out depths: two
    independent :func:`fill_cells` passes over the internal loads.
    """
    check_positive(width, "TAM width")
    loads, partition = internal_loads(core, width, exact)
    n_in_cells, n_out_cells = wrapper_cell_counts(core)
    chains = [
        WrapperChain(internal_length=load, input_cells=n_in, output_cells=n_out)
        for load, n_in, n_out in zip(
            loads, fill_cells(loads, n_in_cells), fill_cells(loads, n_out_cells)
        )
    ]
    rebalanced = bool(core.scan_chains) and core.is_soft
    if rebalanced:
        for i, chain in enumerate(chains):
            if chain.internal_length:
                chain.internal_chains.append(f"{core.name}_rebal{i}")
    for chain, items in zip(chains, partition):
        chain.internal_chains.extend(core.scan_chains[i].name for i in items)
    return WrapperPlan(core_name=core.name, width=width, chains=chains, rebalanced=rebalanced)
