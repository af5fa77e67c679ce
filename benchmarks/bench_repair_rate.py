"""Monte-Carlo repair-rate throughput: process fan-out vs. serial loop.

The repair subsystem's heavy workload is sampling thousands of defective
chips and running redundancy allocation on every failing memory — pure
CPU-bound Python, so the fan-out uses processes, like ``integrate_many``.
Per-trial seeding makes the fanned-out tallies
bit-identical to the serial loop (asserted below); the measured speedup
lands in the pytest-benchmark JSON (``extra_info.mc_speedup``) and
scales with physical cores.
"""

import os
import time

from benchmarks.conftest import paper_vs_ours
from repro.repair import DefectModel, estimate_repair_rate
from repro.repair.redundancy import DEFAULT_REDUNDANCY
from repro.soc.dsc import build_dsc_memories

TRIALS = 2000
SEED = 7
MODEL = DefectModel(defects_per_mbit=2.0)


def _run(workers: int):
    return estimate_repair_rate(
        build_dsc_memories(),
        trials=TRIALS,
        seed=SEED,
        workers=workers,
        model=MODEL,
        default_spares=DEFAULT_REDUNDANCY,
    )


def test_fanout_vs_serial_loop(benchmark):
    """Process fan-out over the DSC's 22 memories, with the serial loop
    as baseline; tallies must match the serial loop exactly."""
    workers = min(4, os.cpu_count() or 1)

    started = time.perf_counter()
    serial = _run(workers=0)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    fanned = benchmark.pedantic(lambda: _run(workers=workers), rounds=1, iterations=1)
    fanned_seconds = time.perf_counter() - started

    assert fanned.to_dict() == serial.to_dict()
    assert fanned.trials == TRIALS

    speedup = serial_seconds / max(fanned_seconds, 1e-9)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["fanout_seconds"] = round(fanned_seconds, 4)
    benchmark.extra_info["mc_workers"] = workers
    benchmark.extra_info["mc_speedup"] = round(speedup, 3)
    print()
    print(serial.render())
    print()
    print(
        paper_vs_ours(
            f"Monte-Carlo repair rate ({TRIALS} chips, 22 memories)",
            [
                ("defect model", "n/a (no repair in paper)",
                 f"Poisson {MODEL.defects_per_mbit}/Mbit"),
                ("serial loop", f"{serial_seconds:.2f} s", ""),
                ("process fan-out", "", f"{fanned_seconds:.2f} s ({workers} workers)"),
                ("speedup", "1.0x", f"{speedup:.2f}x"),
            ],
        )
    )


def test_allocator_cost_exact_vs_greedy(benchmark):
    """The exact branch-and-bound is affordable at Monte-Carlo volume
    only because must-repair prunes most bitmaps; greedy stays cheap."""
    timings = {}
    for allocator in ("greedy", "exact"):
        started = time.perf_counter()
        result = estimate_repair_rate(
            build_dsc_memories(),
            trials=200,
            seed=SEED,
            allocator=allocator,
            model=MODEL,
            default_spares=DEFAULT_REDUNDANCY,
        )
        timings[allocator] = time.perf_counter() - started
        # the heuristic can only lose chips the exact solver saves
        if allocator == "greedy":
            greedy_yield = result.effective_yield
        else:
            assert result.effective_yield >= greedy_yield
    benchmark.pedantic(
        lambda: estimate_repair_rate(
            build_dsc_memories(), trials=50, seed=SEED, allocator="greedy",
            model=MODEL, default_spares=DEFAULT_REDUNDANCY,
        ),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["greedy_seconds_200"] = round(timings["greedy"], 4)
    benchmark.extra_info["exact_seconds_200"] = round(timings["exact"], 4)
