"""Property-based differential testing (hypothesis).

For *any* generated SOC, every scheduling strategy in the registry must
produce an invariant-clean schedule, and none may beat the verifier's
computable lower bound — the schedule-invariant oracle applied across
the whole strategy registry, seeded so any failure is replayable with
``python -m repro generate --profile <p> --seed <s>``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import CompileBist, FlowContext, SteacConfig  # noqa: E402
from repro.gen import SocGenerator, roundtrip_errors  # noqa: E402
from repro.sched import (  # noqa: E402
    available_strategies,
    resolve_schedule,
    schedule_lower_bound,
)
from repro.verify import verify_schedule  # noqa: E402

#: The exact MILP is raced only on instances it solves in well under a
#: second — the same gate the CLI fuzz harness applies.
ILP_MAX_TASKS = 5

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # tier-1 must be reproducible run to run
)


def tasks_for(soc):
    ctx = FlowContext(soc=soc, config=SteacConfig(compare_strategies=False))
    CompileBist().run(ctx)
    return ctx.tasks


@settings(max_examples=12, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000),
       profile=st.sampled_from(["tiny", "small"]))
def test_every_strategy_is_invariant_clean(seed, profile):
    soc = SocGenerator(seed, profile).generate()
    tasks = tasks_for(soc)
    for strategy in available_strategies():
        if strategy == "ilp" and len(tasks) > ILP_MAX_TASKS:
            continue
        result = resolve_schedule(strategy, soc, tasks)
        report = verify_schedule(soc, result, tasks=tasks)
        assert report.ok, (
            f"{strategy} violated invariants on seed={seed} profile={profile}:\n"
            + report.render()
        )
        if strategy == "nonsession":
            # one concurrent schedule with no reconfiguration: the
            # makespan is exactly the last finish, not just above it
            last = max((t.finish for s in result.sessions for t in s.tests), default=0)
            assert result.total_time == last, f"seed={seed} profile={profile}"


@settings(max_examples=12, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000),
       profile=st.sampled_from(["tiny", "small"]))
def test_no_strategy_beats_the_lower_bound(seed, profile):
    soc = SocGenerator(seed, profile).generate()
    tasks = tasks_for(soc)
    bound = schedule_lower_bound(soc, tasks)
    assert bound > 0
    for strategy in available_strategies():
        if strategy == "ilp" and len(tasks) > ILP_MAX_TASKS:
            continue
        total = resolve_schedule(strategy, soc, tasks).total_time
        assert total >= bound, (
            f"{strategy} reported {total} < lower bound {bound} "
            f"(seed={seed} profile={profile})"
        )


@settings(max_examples=10, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000),
       profile=st.sampled_from(["tiny", "small", "d695-like"]))
def test_generated_socs_always_roundtrip(seed, profile):
    soc = SocGenerator(seed, profile).generate()
    assert roundtrip_errors(soc) == []


@settings(max_examples=10, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000),
       profile=st.sampled_from(["tiny", "small"]))
def test_session_never_loses_to_serial(seed, profile):
    """The paper's heuristic should never be *worse* than the fully
    serial baseline it generalizes (both searched under the same
    sharing policy)."""
    soc = SocGenerator(seed, profile).generate()
    tasks = tasks_for(soc)
    session = resolve_schedule("session", soc, tasks).total_time
    serial = resolve_schedule("serial", soc, tasks).total_time
    assert session <= serial


@settings(max_examples=8, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ilp_matches_or_beats_heuristic_on_tiny(seed):
    """The exact MILP validates the heuristic: on instances it solves,
    its optimum is never worse than the session heuristic's result."""
    soc = SocGenerator(seed, "tiny").generate()
    tasks = tasks_for(soc)
    if len(tasks) > ILP_MAX_TASKS:
        return  # keep tier-1 fast; the CLI fuzz harness covers bigger runs
    heuristic = resolve_schedule("session", soc, tasks).total_time
    exact = resolve_schedule("ilp", soc, tasks).total_time
    assert exact <= heuristic
