"""Session-search throughput: the incremental engine vs the retained
reference, first vs second pass, across generated corpora.

Like ``bench_serve_cache.py`` this is a standalone harness (the
quantity under test is end-to-end chips scheduled per second)::

    PYTHONPATH=src python benchmarks/bench_sched_search.py [-o BENCH_sched.json]
    PYTHONPATH=src python benchmarks/bench_sched_search.py --smoke --check BENCH_sched.json

The measurements land in ``BENCH_sched.json`` (schema
``repro/bench-sched/v2``), the scheduler's performance-trajectory file:

* **corpus rates** — chips/sec for ``tasks_from_soc`` + ``schedule_sessions``
  over generated corpora, run twice: *cold* and *warm*, a second pass
  over the corpus rebuilt from the same seeds.  Scan-time tables are
  memoized only on the core objects, and the rebuilt cores are fresh,
  so the warm pass builds every table again and cold ≈ warm.
* **reference race** — the incremental engine against
  ``schedule_sessions_reference`` (the test oracle in
  ``tests/oracles/session_ref.py``) on the same prebuilt task lists,
  with every schedule compared bit-for-bit.  This is the
  machine-independent number: the acceptance gate requires >= 3x.
* **backend race** — full-flow chips/sec over a spec-based d695-like
  corpus, serial vs process executor.
* **floor gap** — achieved makespan over ``session_schedule_floor``,
  how much the bound-pruning cutoff leaves on the table.
* **ILP quality** — session-search makespan over the exact MILP optimum
  on small generated chips (scipy; the section records a skip when the
  solver is unavailable).
* **tracer overhead** — paired warm passes with :mod:`repro.obs`
  tracing disabled vs enabled (best of 3 each): the disabled number
  pins the "instrumentation is free when off" claim.

``--check FILE`` compares the measured rate against a committed
baseline and exits nonzero on a regression — the CI smoke gate.  On
the same platform as the baseline the disabled-tracer warm rate must
stay within ``TIGHT_FACTOR`` (2%); on a different machine the gate
falls back to the coarse ``REGRESSION_FACTOR`` (2x) on the warm
corpus rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

#: (profile, corpus size) per mode; seeds are 0..n-1 so every run and
#: every machine schedules the same chips.
CORPORA = {
    "full": (("tiny", 40), ("d695-like", 12), ("large", 3)),
    "smoke": (("tiny", 8), ("d695-like", 3)),
}
RACE_PROFILE = "d695-like"
RACE_CHIPS = {"full": 4, "smoke": 2}
BACKEND_CHIPS = {"full": 8, "smoke": 4}
ILP_CHIPS = {"full": 8, "smoke": 3}
ILP_MAX_TASKS = 8
TRACER_CHIPS = {"full": 12, "smoke": 3}
TRACER_PASSES = 3
SPEEDUP_TARGET = 3.0
REGRESSION_FACTOR = 2.0
#: Same-platform gate: the disabled-tracer warm rate may lag the
#: committed baseline by at most 2% — the observability layer must be
#: free when off.
TIGHT_FACTOR = 1.02
CHECK_PROFILE = "d695-like"


def reference_scheduler():
    """``schedule_sessions_reference``, the pre-incremental search.  It
    is a test oracle, so it lives under ``tests/``, not in the package."""
    tests_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    from oracles.session_ref import schedule_sessions_reference

    return schedule_sessions_reference


def build_corpus(profile: str, count: int):
    from repro.gen import SocGenerator

    return [SocGenerator(seed, profile).generate() for seed in range(count)]


def schedule_corpus(socs) -> tuple[float, list]:
    """Time ``tasks_from_soc`` + ``schedule_sessions`` per chip — the
    scheduling pipeline a corpus sweep runs for every generated SOC."""
    from repro.sched import schedule_sessions, tasks_from_soc

    results = []
    t0 = time.perf_counter()
    for soc in socs:
        tasks = tasks_from_soc(soc)
        results.append((soc, tasks, schedule_sessions(soc, tasks)))
    return time.perf_counter() - t0, results


def measure_corpus_rates(mode: str) -> list[dict]:
    from repro.sched import scan_time_cache_stats, session_schedule_floor

    rows = []
    for profile, count in CORPORA[mode]:
        before = scan_time_cache_stats()
        cold_seconds, _ = schedule_corpus(build_corpus(profile, count))
        # warm: a second pass over fresh Core objects with identical
        # structures; no table is shared between cores, so it builds
        # every table again
        warm_seconds, results = schedule_corpus(build_corpus(profile, count))
        after = scan_time_cache_stats()
        gaps = [
            result.total_time / floor
            for soc, tasks, result in results
            if (floor := session_schedule_floor(soc, tasks)) > 0
        ]
        rows.append({
            "profile": profile,
            "chips": count,
            "cold_seconds": round(cold_seconds, 4),
            "cold_chips_per_sec": round(count / cold_seconds, 2),
            "warm_seconds": round(warm_seconds, 4),
            "warm_chips_per_sec": round(count / warm_seconds, 2),
            "cache_warm_speedup": round(cold_seconds / warm_seconds, 2),
            "cache": {k: after[k] - before[k] for k in ("hits", "misses")},
            "floor_gap": {
                "mean": round(statistics.mean(gaps), 4),
                "max": round(max(gaps), 4),
            },
        })
    return rows


def measure_reference_race(mode: str) -> dict:
    """Both engines over the same prebuilt task lists, outputs compared
    bit for bit.  Task building is excluded: this isolates the search."""
    from repro.sched import schedule_sessions, tasks_from_soc

    schedule_sessions_reference = reference_scheduler()
    count = RACE_CHIPS[mode]
    socs = build_corpus(RACE_PROFILE, count)
    prebuilt = [(soc, tasks_from_soc(soc)) for soc in socs]

    t0 = time.perf_counter()
    fast = [schedule_sessions(soc, tasks) for soc, tasks in prebuilt]
    fast_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    slow = [schedule_sessions_reference(soc, tasks) for soc, tasks in prebuilt]
    slow_seconds = time.perf_counter() - t0

    bit_identical = all(
        json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
        for a, b in zip(fast, slow)
    )
    return {
        "profile": RACE_PROFILE,
        "chips": count,
        "incremental_seconds": round(fast_seconds, 4),
        "incremental_chips_per_sec": round(count / fast_seconds, 2),
        "reference_seconds": round(slow_seconds, 4),
        "reference_chips_per_sec": round(count / slow_seconds, 2),
        "speedup": round(slow_seconds / fast_seconds, 2),
        "bit_identical": bit_identical,
    }


def measure_backends(mode: str) -> dict:
    """Full-flow chips/sec, serial vs process backend, over a spec-based
    d695-like corpus — the corpus-sweep shape batch workers serve."""
    from repro.core import SteacConfig, integrate_many
    from repro.gen import scenario_specs

    count = BACKEND_CHIPS[mode]
    workers = min(count, os.cpu_count() or 1)
    specs = scenario_specs(count, profiles=(RACE_PROFILE,), base_seed=0)
    config = SteacConfig(compare_strategies=False)

    t0 = time.perf_counter()
    serial = integrate_many(specs, config=config, backend="serial")
    serial_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    processed = integrate_many(
        specs, config=config, workers=workers, backend="process"
    )
    process_seconds = time.perf_counter() - t0
    assert serial.ok and processed.ok
    assert [item.result.total_test_time for item in processed] == \
        [item.result.total_test_time for item in serial]
    return {
        "profile": RACE_PROFILE,
        "chips": count,
        "workers": workers,
        "serial_seconds": round(serial_seconds, 4),
        "serial_chips_per_sec": round(count / serial_seconds, 2),
        "process_seconds": round(process_seconds, 4),
        "process_chips_per_sec": round(count / process_seconds, 2),
        "process_vs_serial": round(serial_seconds / process_seconds, 2),
    }


def measure_ilp_quality(mode: str) -> dict:
    """Session-search makespan over the exact MILP optimum on small
    generated chips — how much schedule quality the heuristic trades
    for its speed.  Chips above ``ILP_MAX_TASKS`` are skipped (the
    MILP's runtime explodes); a missing solver skips the section."""
    from repro.sched import schedule_sessions, tasks_from_soc
    from repro.sched.registry import resolve_schedule

    count = ILP_CHIPS[mode]
    socs = build_corpus("tiny", count)
    rows = []
    skipped_large = 0
    for soc in socs:
        tasks = tasks_from_soc(soc)
        if len(tasks) > ILP_MAX_TASKS:
            skipped_large += 1
            continue
        session_time = schedule_sessions(soc, tasks).total_time
        try:
            ilp_time = resolve_schedule("ilp", soc, tasks).total_time
        except ImportError as exc:
            return {"skipped": f"optional dependency: {exc}"}
        rows.append({
            "soc": soc.name,
            "tasks": len(tasks),
            "session": session_time,
            "ilp": ilp_time,
            "ratio": round(session_time / ilp_time, 4),
        })
    if not rows:
        return {"skipped": f"no chips with <= {ILP_MAX_TASKS} tasks"}
    ratios = [row["ratio"] for row in rows]
    return {
        "profile": "tiny",
        "chips": len(rows),
        "skipped_large": skipped_large,
        "max_tasks": ILP_MAX_TASKS,
        "mean_ratio": round(statistics.mean(ratios), 4),
        "max_ratio": round(max(ratios), 4),
        "optimal_fraction": round(
            sum(1 for r in ratios if r <= 1.0) / len(ratios), 4
        ),
        "rows": rows,
    }


def measure_tracer_overhead(mode: str) -> dict:
    """Paired warm corpus passes, tracing disabled vs enabled (best of
    ``TRACER_PASSES`` each).  The disabled number backs the claim that
    instrumentation costs <2% when off; the enabled number prices
    turning it on."""
    from repro.obs import TRACER, disable_tracing, enable_tracing, tracing_enabled

    count = TRACER_CHIPS[mode]
    socs = build_corpus(RACE_PROFILE, count)
    schedule_corpus(socs)  # build the scan-time tables on these cores once

    assert not tracing_enabled(), "tracer must start disabled"
    disabled = min(
        schedule_corpus(socs)[0] for _ in range(TRACER_PASSES)
    )
    enable_tracing()
    try:
        enabled_times = []
        for _ in range(TRACER_PASSES):
            TRACER.clear()
            enabled_times.append(schedule_corpus(socs)[0])
        enabled = min(enabled_times)
    finally:
        disable_tracing()
        TRACER.clear()
    return {
        "profile": RACE_PROFILE,
        "chips": count,
        "passes": TRACER_PASSES,
        "disabled_seconds": round(disabled, 4),
        "disabled_chips_per_sec": round(count / disabled, 2),
        "enabled_seconds": round(enabled, 4),
        "enabled_chips_per_sec": round(count / enabled, 2),
        "enabled_overhead_percent": round(
            (enabled - disabled) / disabled * 100, 2
        ),
    }


def measure_d695() -> dict:
    """The ITC'02 anchor workload both golden fixtures pin."""
    from repro.sched import schedule_sessions, session_schedule_floor, tasks_from_soc
    from repro.soc.itc02 import d695_soc

    schedule_sessions_reference = reference_scheduler()
    soc = d695_soc(test_pins=48)
    tasks = tasks_from_soc(soc)
    t0 = time.perf_counter()
    fast = schedule_sessions(soc, tasks)
    fast_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = schedule_sessions_reference(soc, tasks)
    slow_seconds = time.perf_counter() - t0
    return {
        "soc": soc.name,
        "total_time": fast.total_time,
        "sessions": fast.session_count,
        "floor": session_schedule_floor(soc, tasks),
        "incremental_ms": round(fast_seconds * 1000, 2),
        "reference_ms": round(slow_seconds * 1000, 2),
        "bit_identical": json.dumps(fast.to_dict(), sort_keys=True)
        == json.dumps(slow.to_dict(), sort_keys=True),
    }


def run(mode: str) -> dict:
    corpus = measure_corpus_rates(mode)
    race = measure_reference_race(mode)
    backends = measure_backends(mode)
    ilp = measure_ilp_quality(mode)
    tracer = measure_tracer_overhead(mode)
    d695 = measure_d695()
    bit_identical = race["bit_identical"] and d695["bit_identical"]
    return {
        "schema": "repro/bench-sched/v2",
        "mode": mode,
        "generated": time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime()) + "Z",
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "corpus_rates": corpus,
        "reference_race": race,
        "backend_race": backends,
        "ilp_quality": ilp,
        "tracer_overhead": tracer,
        "d695": d695,
        "acceptance": {
            "speedup_target": SPEEDUP_TARGET,
            "speedup_measured": race["speedup"],
            "bit_identical": bit_identical,
            "ok": race["speedup"] >= SPEEDUP_TARGET and bit_identical,
        },
    }


def check_regression(doc: dict, baseline_path: str) -> tuple[bool, str]:
    """Compare the measured rate against the committed baseline.

    On the platform the baseline was recorded on, the best-of-N
    disabled-tracer warm rate must stay within ``TIGHT_FACTOR`` (2%) of
    the committed one — the gate that keeps the observability layer
    free when off.  On a different machine (or against a pre-v2
    baseline without a ``tracer_overhead`` section) the check falls
    back to the coarse ``REGRESSION_FACTOR`` on the single-pass warm
    corpus rate, which tolerates hardware variation."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)

    def warm_rate(d):
        for row in d["corpus_rates"]:
            if row["profile"] == CHECK_PROFILE:
                return row["warm_chips_per_sec"]
        raise KeyError(f"no {CHECK_PROFILE!r} row in corpus_rates")

    same_platform = (
        doc["environment"].get("platform")
        == baseline["environment"].get("platform")
        and doc["environment"].get("cpus") == baseline["environment"].get("cpus")
    )
    base_tracer = baseline.get("tracer_overhead", {})
    if same_platform and "disabled_chips_per_sec" in base_tracer:
        committed = base_tracer["disabled_chips_per_sec"]
        measured = doc["tracer_overhead"]["disabled_chips_per_sec"]
        floor = committed / TIGHT_FACTOR
        label = f"disabled-tracer warm {CHECK_PROFILE} (2% gate)"
    else:
        committed, measured = warm_rate(baseline), warm_rate(doc)
        floor = committed / REGRESSION_FACTOR
        label = f"warm {CHECK_PROFILE} (2x cross-platform gate)"
    ok = measured >= floor
    verdict = "ok" if ok else "REGRESSION"
    return ok, (
        f"{label}: measured {measured:.2f} chips/sec vs "
        f"committed {committed:.2f} (floor {floor:.2f}): {verdict}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--out", default="BENCH_sched.json",
                        help="output path (default: ./BENCH_sched.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="small corpora for CI (seconds, not minutes)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a committed BENCH_sched.json; "
                             "exit 1 on a >2x warm-rate regression")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    doc = run(mode)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for row in doc["corpus_rates"]:
        print(f"{row['profile']:>10}: cold {row['cold_chips_per_sec']:8.2f}"
              f"  warm {row['warm_chips_per_sec']:8.2f} chips/sec"
              f"  (cache x{row['cache_warm_speedup']:.2f},"
              f" floor gap {row['floor_gap']['mean']:.3f})")
    race = doc["reference_race"]
    print(f"reference race ({race['profile']}, {race['chips']} chips): "
          f"x{race['speedup']:.1f} vs reference"
          f" (target >= {SPEEDUP_TARGET:.0f}x,"
          f" bit-identical: {race['bit_identical']})")
    backends = doc["backend_race"]
    print(f"full flow ({backends['profile']}, {backends['chips']} chips): "
          f"serial {backends['serial_chips_per_sec']:.2f} vs process "
          f"{backends['process_chips_per_sec']:.2f} chips/sec "
          f"(x{backends['process_vs_serial']:.2f}, "
          f"{backends['workers']} workers)")
    ilp = doc["ilp_quality"]
    if "skipped" in ilp:
        print(f"ilp quality: skipped ({ilp['skipped']})")
    else:
        print(f"ilp quality ({ilp['chips']} tiny chips): session/ilp makespan "
              f"mean x{ilp['mean_ratio']:.3f}, max x{ilp['max_ratio']:.3f}, "
              f"optimal on {ilp['optimal_fraction']:.0%}")
    tracer = doc["tracer_overhead"]
    print(f"tracer overhead ({tracer['profile']}, {tracer['chips']} chips, "
          f"best of {tracer['passes']}): disabled "
          f"{tracer['disabled_chips_per_sec']:.2f} vs enabled "
          f"{tracer['enabled_chips_per_sec']:.2f} chips/sec "
          f"({tracer['enabled_overhead_percent']:+.2f}% when on)")
    d695 = doc["d695"]
    print(f"d695: {d695['total_time']} cycles in {d695['sessions']} sessions, "
          f"{d695['incremental_ms']:.1f} ms vs {d695['reference_ms']:.1f} ms reference")
    print(f"wrote {args.out}")

    ok = doc["acceptance"]["ok"]
    if args.check:
        check_ok, message = check_regression(doc, args.check)
        print(message)
        ok = ok and check_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
