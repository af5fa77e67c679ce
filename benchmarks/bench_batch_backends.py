"""Batch executor backends: serial vs process wall clock.

The motivation for the picklable :class:`repro.sched.timecalc.ScanTimeModel`
refactor: with closure-based time models the batch front end was pinned
to threads, so corpus sweeps ran at single-core speed on GIL builds.
This benchmark pushes a generated ``d695-like`` corpus (spec-based work
items — each worker builds its chips from ``(profile, seed, index)``
coordinates) through both backends and records the measured speedup in
the pytest-benchmark JSON:

* ``extra_info.process_vs_serial`` — the multi-core win; the bar is
  >1.5x over the serial loop *on a multi-core runner* (smaller runners
  record the number without asserting it).
* Results must be bit-identical across backends (the differential test
  in ``tests/test_batch_backends.py`` gates the same property tier-1).
"""

import os
import sys
import time

from benchmarks.conftest import paper_vs_ours
from repro.core import SteacConfig, integrate_many
from repro.gen import scenario_specs

#: ≥16 chips, per the acceptance criterion for the d695-like corpus.
CORPUS_SIZE = 16

#: Assert the multi-core speedup only where multiple cores exist.
MIN_CORES_FOR_SPEEDUP_GATE = 4


def _specs():
    return scenario_specs(CORPUS_SIZE, profiles=("d695-like",), base_seed=0)


def _config() -> SteacConfig:
    return SteacConfig(compare_strategies=False)


def _run(backend: str):
    started = time.perf_counter()
    batch = integrate_many(_specs(), config=_config(), backend=backend)
    return batch, time.perf_counter() - started


def test_backend_race(benchmark):
    """Serial / process over the same 16-chip generated corpus; the
    process pool is the benchmarked subject."""
    workers = min(CORPUS_SIZE, os.cpu_count() or 1)

    serial, serial_s = _run("serial")
    processed = benchmark.pedantic(
        lambda: integrate_many(
            _specs(), config=_config(), workers=workers, backend="process"
        ),
        rounds=3,
        iterations=1,
    )
    process_s = processed.elapsed_seconds

    assert serial.ok and processed.ok
    # make sure the timing below really measured the process pool
    assert (serial.backend, processed.backend) == ("serial", "process")
    # bit-identical outcomes whatever executes them
    reference = [item.result.total_test_time for item in serial]
    assert [item.result.total_test_time for item in processed] == reference

    vs_serial = serial_s / max(process_s, 1e-9)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["serial_seconds"] = round(serial_s, 4)
    benchmark.extra_info["process_seconds"] = round(process_s, 4)
    benchmark.extra_info["process_vs_serial"] = round(vs_serial, 3)
    print()
    print(
        paper_vs_ours(
            f"batch backends ({CORPUS_SIZE}-chip d695-like corpus, "
            f"{workers} workers, {os.cpu_count()} CPUs)",
            [
                ("flow", "one chip at a time", "spec-based fan-out"),
                ("serial", f"{serial_s:.2f} s", "1.0x"),
                ("process pool", f"{process_s:.2f} s", f"{vs_serial:.2f}x"),
            ],
        )
    )
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    if (os.cpu_count() or 1) >= MIN_CORES_FOR_SPEEDUP_GATE and gil_enabled:
        # the acceptance bar — only meaningful with real parallel hardware
        assert vs_serial > 1.5, (
            f"process backend only {vs_serial:.2f}x over serial "
            f"with {os.cpu_count()} CPUs"
        )


def test_spec_transfer_is_cheap(benchmark):
    """Shipping (profile, seed, index) coordinates must dwarf shipping
    pickled SOC models: the specs for a whole corpus pickle smaller than
    a single generated chip."""
    import pickle

    specs = _specs()
    built = [spec.build() for spec in specs]
    spec_bytes = len(pickle.dumps(specs))
    soc_bytes = len(pickle.dumps(built[0]))
    benchmark.pedantic(lambda: [s.build() for s in _specs()[:4]], rounds=3, iterations=1)
    benchmark.extra_info["corpus_spec_bytes"] = spec_bytes
    benchmark.extra_info["one_soc_bytes"] = soc_bytes
    print(f"\n{CORPUS_SIZE} specs pickle to {spec_bytes} B; "
          f"one generated SOC pickles to {soc_bytes} B")
    assert spec_bytes < soc_bytes
