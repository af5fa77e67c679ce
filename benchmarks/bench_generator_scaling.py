"""Scheduler scaling over generated SOC size — the synthetic-workload
benchmark the paper could not run (it had one chip; we have a seeded
generator).

Sweeps the `repro.gen` profile ladder x every registered scheduling
strategy, recording wall clock, makespan, and the makespan / lower-bound
ratio (`repro.sched.bounds`) in the pytest-benchmark `extra_info`.
Every schedule is invariant-checked before it is reported — a fast
wrong answer is not a data point — and at every size the session
heuristic must not lose to the serial baseline.

Gates keep the matrix honest about algorithmic reach: the exact MILP
only sees the `tiny` end, and the session heuristic's local search is
capped at `large` (on `huge` it is minutes per chip — measured once in
`test_session_wall_at_scale`, not swept).
"""

import time

import pytest

from repro.core import CompileBist, FlowContext, SteacConfig
from repro.gen import SocGenerator
from repro.sched import resolve_schedule, schedule_lower_bound
from repro.util import Table
from repro.verify import verify_schedule

SEED = 11

#: strategy -> largest profile it is swept at.
STRATEGY_REACH = {
    "ilp": ("tiny",),
    "session": ("tiny", "small", "d695-like", "large"),
    "nonsession": ("tiny", "small", "d695-like", "large", "huge"),
    "serial": ("tiny", "small", "d695-like", "large", "huge"),
}

_CASES: dict[str, tuple] = {}


def case(profile: str) -> tuple:
    """One generated chip + its BIST-extended task list per profile."""
    if profile not in _CASES:
        soc = SocGenerator(SEED, profile).generate()
        ctx = FlowContext(soc=soc, config=SteacConfig(compare_strategies=False))
        CompileBist().run(ctx)
        _CASES[profile] = (soc, ctx.tasks)
    return _CASES[profile]


@pytest.mark.parametrize("strategy", sorted(STRATEGY_REACH))
@pytest.mark.parametrize("profile", ["tiny", "small", "d695-like", "large"])
def test_strategy_scaling(benchmark, profile, strategy):
    if profile not in STRATEGY_REACH[strategy]:
        pytest.skip(f"{strategy} not swept at {profile!r}")
    soc, tasks = case(profile)
    if strategy == "ilp" and len(tasks) > 6:
        pytest.skip("instance beyond the MILP gate")

    result = benchmark.pedantic(
        lambda: resolve_schedule(strategy, soc, tasks), rounds=1, iterations=1
    )

    report = verify_schedule(soc, result, tasks=tasks)
    assert report.ok, report.render()
    bound = schedule_lower_bound(soc, tasks)
    benchmark.extra_info["profile"] = profile
    benchmark.extra_info["cores"] = len(soc.cores)
    benchmark.extra_info["tasks"] = len(tasks)
    benchmark.extra_info["total_time_cycles"] = result.total_time
    benchmark.extra_info["lower_bound_cycles"] = bound
    benchmark.extra_info["optimality_gap"] = round(result.total_time / bound, 3)
    print(f"\n{profile:>10} x {strategy:<10} {len(soc.cores):>3} cores "
          f"{len(tasks):>3} tasks  makespan {result.total_time:>10,}  "
          f"LB ratio {result.total_time / bound:.2f}")


def test_session_beats_serial_at_every_size(benchmark):
    """Across the profile ladder the session heuristic never loses to
    the serial baseline it generalizes."""

    def sweep():
        rows = []
        for profile in STRATEGY_REACH["session"]:
            soc, tasks = case(profile)
            session = resolve_schedule("session", soc, tasks).total_time
            serial = resolve_schedule("serial", soc, tasks).total_time
            rows.append((profile, len(soc.cores), len(tasks), session, serial))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        ["Profile", "Cores", "Tasks", "Session total", "Serial total"],
        title=f"Session vs serial over generated chip size (seed {SEED})",
    )
    for profile, cores, n_tasks, session, serial in rows:
        table.add_row([profile, cores, n_tasks, f"{session:,}", f"{serial:,}"])
    print()
    print(table.render())
    for profile, _, _, session, serial in rows:
        assert session <= serial, f"session lost to serial at {profile!r}"


def test_session_wall_at_scale(benchmark):
    """One `huge` chip through the session heuristic — the wall the
    local search hits, recorded so future scheduler work has a number
    to beat."""
    soc, tasks = case("huge")
    started = time.perf_counter()
    result = benchmark.pedantic(
        lambda: resolve_schedule("session", soc, tasks), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - started
    report = verify_schedule(soc, result, tasks=tasks)
    assert report.ok, report.render()
    serial = resolve_schedule("serial", soc, tasks).total_time
    benchmark.extra_info["cores"] = len(soc.cores)
    benchmark.extra_info["tasks"] = len(tasks)
    benchmark.extra_info["seconds"] = round(elapsed, 2)
    benchmark.extra_info["speedup_vs_serial"] = round(serial / result.total_time, 3)
    print(f"\nhuge x session: {len(tasks)} tasks in {elapsed:.1f}s, "
          f"{serial / result.total_time:.2f}x faster test than serial")


def test_verifier_overhead(benchmark):
    """The invariant checker must stay cheap enough to run on every
    schedule of a fuzz campaign."""
    soc, tasks = case("large")
    result = resolve_schedule("nonsession", soc, tasks)
    report = benchmark(lambda: verify_schedule(soc, result, tasks=tasks))
    assert report.ok
    benchmark.extra_info["tasks"] = len(tasks)
