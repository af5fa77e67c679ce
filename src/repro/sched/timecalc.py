"""Test-time models.

The wrapped-core scan-test formula is the standard cycle-accurate model
(Iyengar/Chakrabarty/Marinissen) the whole TAM literature uses::

    T = (1 + max(si, so)) * p + min(si, so)

for ``p`` patterns through wrapper scan-in/out depths ``si``/``so``: each
pattern needs ``max(si, so)`` shift cycles (load of pattern *i* overlaps
unload of pattern *i-1*) plus one capture cycle, and the last response
needs a final ``min(si, so)`` flush (the shorter side finishes inside the
next-to-last overlap).  The pattern translator reproduces exactly these
cycle counts, and an integration test pins the two together.

Functional tests are cycle-based: one vector per tester cycle plus the
wrapper-programming preamble.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from repro.obs import METRICS
from repro.soc.core import Core
from repro.wrapper.balance import (
    design_wrapper,
    fill_cells,
    internal_loads,
    wrapper_cell_counts,
)
from repro.wrapper.wir import WIR_BITS

#: Cycles to program one wrapper's WIR (shift opcode + update + select).
WIR_PROGRAM_CYCLES = WIR_BITS + 2

#: Cycles to reconfigure the chip between sessions (re-program WIRs,
#: switch TAM muxes, settle clocks).  Modelled, not published.
SESSION_RECONFIG_CYCLES = 32

#: Preamble cycles before a functional test (wrapper to FUNCTIONAL mode).
FUNCTIONAL_SETUP_CYCLES = WIR_PROGRAM_CYCLES


def scan_test_time(si: int, so: int, patterns: int) -> int:
    """Cycle count for a scan test through a wrapper (see module doc)."""
    if patterns <= 0:
        return 0
    return (1 + max(si, so)) * patterns + min(si, so)


def functional_test_time(patterns: int, setup: int = FUNCTIONAL_SETUP_CYCLES) -> int:
    """Cycle count for a cycle-based functional test."""
    if patterns <= 0:
        return 0
    return patterns + setup


_M_TABLE_HITS = METRICS.counter(
    "cache.scan_time.hits", "always 0: no scan-time table is cached"
)
_M_TABLE_MISSES = METRICS.counter(
    "cache.scan_time.misses", "scan-time tables built"
)


def scan_time_cache_stats() -> dict:
    """The scan-time table counters: ``misses`` counts tables built.
    No table is cached, so ``hits`` stays 0; it is kept because
    ``/stats`` and perfbench read both keys."""
    return {"hits": int(_M_TABLE_HITS.get()), "misses": int(_M_TABLE_MISSES.get())}


def clear_scan_time_cache() -> None:
    """Nothing to drop: no scan-time table is cached.  Kept because
    perfbench resets caches between ops through this name."""


def core_scan_time(core: Core, width: int, patterns: int | None = None) -> int:
    """Scan test time of ``core`` at TAM width ``width``.

    Uses the balanced wrapper plan for that width; ``patterns`` defaults
    to the core's total scan pattern count.
    """
    if patterns is None:
        patterns = core.scan_patterns
    plan = design_wrapper(core, width)
    return scan_test_time(plan.scan_in_depth, plan.scan_out_depth, patterns)


@dataclass(frozen=True)
class ScanTimeModel:
    """Declarative ``width -> cycles`` model for one core's scan test.

    The monotone non-increasing time table is computed **once** per
    (core, patterns) pair — the closed-form wrapper fill of
    :mod:`repro.wrapper.balance` at every useful width up front — and
    stored as a plain tuple, so the model is

    * **picklable** — tasks and schedule results built from it cross
      process boundaries (the ``repro.core.batch`` process backend),
      unlike the closure-over-``Core`` + ``lru_cache`` it replaced, and
    * **O(1) in the scheduler hot loop** — the session local search
      re-evaluates ``task.time()`` thousands of times per chip; every
      call is a tuple index, never a wrapper redesign.

    ``times[w - 1]`` is the cycle count at TAM width ``w``; widths above
    the table clamp to the last entry (extra wires buy nothing past the
    task's own maximum useful width).
    """

    core_name: str
    patterns: int
    times: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError(
                f"scan-time model for {self.core_name!r} needs at least one width"
            )

    @classmethod
    def for_core(
        cls, core: Core, patterns: int | None = None, max_width: int | None = None
    ) -> "ScanTimeModel":
        """Precompute the table for ``core`` over widths ``1..max_width``
        (default: the core's largest useful scan width).

        Each width prices the plan :func:`design_wrapper` would build:
        the same :func:`internal_loads`, and the same :func:`fill_cells`
        pass for the wrapper cells, which are counted once per core.
        The table is built on every call and never cached on the core:
        a core is mutable (the failure shrinker deep-copies an evaluated
        chip, then drops a chain), and a memo keyed by ``(patterns,
        max_width)`` cannot see such a cut.  ``cache.scan_time.misses``
        in :data:`repro.obs.METRICS` counts table builds.
        """
        if patterns is None:
            patterns = core.scan_patterns
        if max_width is None:
            from repro.sched.tasks import scan_max_width

            max_width = scan_max_width(core)
        n_in_cells, n_out_cells = wrapper_cell_counts(core)
        times = []
        for width in range(1, max(1, max_width) + 1):
            loads, _ = internal_loads(core, width)
            si = max(map(add, loads, fill_cells(loads, n_in_cells)))
            so = max(map(add, loads, fill_cells(loads, n_out_cells)))
            times.append(scan_test_time(si, so, patterns))
        _M_TABLE_MISSES.inc()
        return cls(core_name=core.name, patterns=patterns, times=tuple(times))

    @property
    def max_width(self) -> int:
        """Largest width the table covers (wider queries clamp to it)."""
        return len(self.times)

    def __call__(self, width: int) -> int:
        """Cycle count at TAM width ``width`` (clamped into the table)."""
        if width < 1:
            width = 1
        return self.times[min(width, len(self.times)) - 1]


def best_width_time(core: Core, max_width: int, patterns: int | None = None) -> tuple[int, int]:
    """(width, cycles) minimizing scan time with width <= ``max_width``.

    Scan time is non-increasing in width, so this is simply the time at
    ``max_width`` — but the function also returns the *smallest* width
    achieving that time (extra wires that buy nothing are wasted pins).

    Reads one :class:`ScanTimeModel` table over ``1..max_width``,
    built for this call in closed form, instead of designing a wrapper
    per width.
    """
    model = ScanTimeModel.for_core(core, patterns, max_width=max_width)
    best_time = model(max_width)
    width = max_width
    while width > 1 and model(width - 1) == best_time:
        width -= 1
    return width, best_time
