"""Reference session-search rounds: the unbounded local search, retained.

:func:`repro.sched.session._local_search` now skips every move and swap
that a session-length lower bound rules out, and builds each session's
drop-one memberships once per round.  This body is kept verbatim as the
oracle for ``tests/test_sched_incremental.py``: it slices and looks up
both touched memberships for every candidate it scans.  Patched in as
``repro.sched.session._local_search``, it must give the same schedule
and the same ``rounds`` and ``moves`` counts as the shipped search.  It
counts member-less sessions as the shipped search does, only to return
the flag that stops the candidate-count window; the search itself is
unchanged.  Do not optimize it; its value is being the unoptimized
baseline.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.sched.session import _makespan, _SessionEvaluator


def local_search_reference(
    members: list[tuple[int, ...]],
    lengths: list[int],
    evaluator: _SessionEvaluator,
    reconfig: int,
    floor: int,
    max_rounds: int = 60,
    stats: Optional[dict] = None,
) -> tuple[list[tuple[int, ...]], int, bool]:
    """First-improvement local search (moves, then swaps), incremental.

    A move or swap touches two sessions: only those two memberships are
    evaluated (memoized) and the makespan is updated by delta.  Rounds
    stop early once the incumbent reaches ``floor`` — every feasible
    makespan is ≥ the floor, so no *strict* improvement exists and the
    reference search's remaining rounds would scan and accept nothing.
    Returns the improved memberships, their makespan, and whether a
    member-less session was kept in every state the search passed
    through (the seed and each accepted candidate), as the shipped
    search reports it.

    ``stats`` (when given) accumulates search telemetry — plain local
    integer counters, flushed by the caller, so the hot loop never
    touches a lock: ``rounds``, ``moves`` (move and swap candidates
    evaluated), ``moves_pruned`` (on a floor exit, the size of the
    neighborhood — ``(k-1)·n`` single-task moves plus the pairwise swap
    space — that the reference search would have scanned next without
    accepting anything), and ``exits[reason]`` for reason ``floor`` /
    ``converged`` / ``max_rounds``.  Telemetry never influences the
    search — bit-identity with the reference is unconditional.
    """
    k = len(members)
    sum_len = sum(ln for ln in lengths if ln)
    active = sum(1 for ln in lengths if ln)
    best_total = _makespan(sum_len, active, reconfig)
    empty = members.count(())
    kept_empty = empty > 0
    rounds = moves = pruned = 0
    exit_reason = "max_rounds"
    for _ in range(max_rounds):
        if best_total <= floor:
            exit_reason = "floor"
            n_tasks = sum(len(m) for m in members)
            pruned = (k - 1) * n_tasks + sum(
                len(members[a]) * len(members[b])
                for a, b in itertools.combinations(range(k), 2)
            )
            break
        rounds += 1
        improved = False
        # single-task moves
        for src, dst in itertools.permutations(range(k), 2):
            for ti in range(len(members[src])):
                moves += 1
                task = members[src][ti]
                new_src = members[src][:ti] + members[src][ti + 1:]
                len_src = evaluator.length(new_src)
                if len_src is None:
                    continue
                new_dst = members[dst] + (task,)
                len_dst = evaluator.length(new_dst)
                if len_dst is None:
                    continue
                s, a = sum_len, active
                for i, new_len in ((src, len_src), (dst, len_dst)):
                    if lengths[i]:
                        s -= lengths[i]
                        a -= 1
                    if new_len:
                        s += new_len
                        a += 1
                total = _makespan(s, a, reconfig)
                if total < best_total:
                    empty += (not new_src) - (not members[dst])
                    kept_empty = kept_empty and empty > 0
                    members[src], members[dst] = new_src, new_dst
                    lengths[src], lengths[dst] = len_src, len_dst
                    sum_len, active, best_total = s, a, total
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        # pairwise swaps
        for sa, sb in itertools.combinations(range(k), 2):
            for ti in range(len(members[sa])):
                ta = members[sa][ti]
                base_a = members[sa][:ti] + members[sa][ti + 1:]
                for tj in range(len(members[sb])):
                    moves += 1
                    tb = members[sb][tj]
                    new_a = base_a + (tb,)
                    len_a = evaluator.length(new_a)
                    if len_a is None:
                        continue
                    new_b = members[sb][:tj] + members[sb][tj + 1:] + (ta,)
                    len_b = evaluator.length(new_b)
                    if len_b is None:
                        continue
                    s, a = sum_len, active
                    for i, new_len in ((sa, len_a), (sb, len_b)):
                        if lengths[i]:
                            s -= lengths[i]
                            a -= 1
                        if new_len:
                            s += new_len
                            a += 1
                    total = _makespan(s, a, reconfig)
                    if total < best_total:
                        members[sa], members[sb] = new_a, new_b
                        lengths[sa], lengths[sb] = len_a, len_b
                        sum_len, active, best_total = s, a, total
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            exit_reason = "converged"
            break
    if stats is not None:
        stats["rounds"] += rounds
        stats["moves"] += moves
        stats["moves_pruned"] += pruned
        stats["exits"][exit_reason] += 1
    return members, best_total, kept_empty
