"""Session-based test scheduling (the paper's core contribution).

"The Scheduler partitions core tests into several test sessions, and
assigns the TAM wires to each core to meet the power and IO resource
constraints" (Section 2).  A *session* is a set of tests that run
concurrently; the chip is reconfigured between sessions, so control pins
are only needed for the session's members — the whole reason
session-based scheduling beats non-session scheduling under tight IO
budgets (Section 3).

Algorithm: for each candidate session count ``k``, seed with a
longest-first greedy placement, then improve with first-improvement
local search (single-task moves and pairwise swaps).  Width assignment
inside a session is a deterministic function of the ordered membership
(:func:`assign_widths`): each spare wire pair grant goes to the longest
scan task that the spare pairs can still shorten, ties in membership
order, and granting stops once the pairs run out or nothing can use
them, or as soon as the longest task is saturated at its maximum width.

The greedy's length is the session's *level*: the smallest scan-member
breakpoint time ``L`` at which the narrowest widths finishing every scan
member by ``L`` fit in the wire pairs.  Until its longest task stops
shortening, the greedy widens only tasks at least as long as its final
length, each to the narrowest width that shortens it, so any shorter
level needs those pairs and more than are left.  Tie order only picks
which equally long task is refused a pair, never the level, so the
search prices memberships by level and runs the greedy for widths only.

The search is **incremental**: a candidate move touches exactly two
sessions, so only those two memberships are re-evaluated (through a
memo keyed by the ordered tuple of the members' indices into the task
list — the greedy seed's k-way trial placement and the O(n²) swap
neighborhood revisit identical memberships constantly) and the running
makespan is updated by delta instead of re-summed.  A memo miss is one
pass over per-task records built once per search plus a binary search
of the level table (:class:`_SessionEvaluator`).  Most candidates need
no lookup at all: adding a test never shortens a session, nor leaves it
shorter than the test's own floor, so a lower bound on the candidate's
makespan, priced from each session's drop-one lengths (built once per
membership) and the per-task floors, dismisses every candidate that
could not beat the incumbent.  Such a candidate is still counted as
evaluated; the scan accepts the same candidates in the same rounds.
The candidate-``k`` loop and the local-search rounds are additionally
pruned against the session lower bound
(:func:`repro.sched.bounds.session_schedule_floor`): once the incumbent
reaches the floor, nothing can *strictly* improve, so stopping early
cannot change the answer.  Nor can stopping the loop after a feasible
count whose local search kept a member-less session in every state it
passed through (the seed and each accepted move): ties go to the lowest
index, so count ``k+1`` seeds as count ``k`` plus one empty session and
scans each move into it right after the same move into an earlier empty
one (a swap with an empty session has no candidates), so it accepts the
same moves in the same rounds and ties; ties keep the earlier count, and
by induction so does every later count.  The pre-incremental search
(over the whole window) and the unbounded local search are retained
under ``tests/oracles/`` as differential-test oracles — the engines are
bit-identical by construction and by test.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

from repro.obs import METRICS, span
from repro.sched.bounds import exclusive_tallies, session_schedule_floor
from repro.sched.ioalloc import SharingPolicy, control_pin_count, control_pins
from repro.sched.power import fits_power_budget
from repro.sched.result import ScheduledTest, ScheduleResult, Session, TestTask
from repro.sched.timecalc import SESSION_RECONFIG_CYCLES
from repro.soc.soc import Soc

#: How many candidate session counts :func:`schedule_sessions` searches,
#: from the mutex-forced floor up; the ``ilp`` strategy's default session
#: cap reads it too.
MAX_SESSIONS = 8


class InfeasibleScheduleError(ValueError):
    """Raised when no feasible schedule exists for the given resources."""


# Search telemetry (see repro.obs): the hot loop counts into plain local
# ints and flushes here once per scheduling run, so the instrumented
# path costs additions, not lock round-trips.
_M_RUNS = METRICS.counter("sched.runs", "session-search invocations")
_M_ROUNDS = METRICS.counter("sched.rounds", "local-search improvement rounds run")
_M_MOVES = METRICS.counter(
    "sched.moves.evaluated", "single-task moves and pairwise swaps evaluated"
)
_M_MOVES_BOUNDED = METRICS.counter(
    "sched.moves.bounded",
    "move and swap candidates dismissed by the session-length bound without a memo lookup",
)
_M_MOVES_PRUNED = METRICS.counter(
    "sched.moves.pruned",
    "neighborhood moves skipped because the incumbent hit session_schedule_floor",
)
_M_CANDIDATES_PRUNED = METRICS.counter(
    "sched.candidates.pruned",
    "candidate session counts skipped because the incumbent hit the floor "
    "or an earlier count kept an empty session throughout its search",
)
_M_FLOOR_EXITS = METRICS.counter(
    "sched.floor_exits", "local-search terminations by reason"
)
for _reason in ("floor", "converged", "max_rounds"):
    _M_FLOOR_EXITS.inc(0, reason=_reason)
_M_MEMO_HITS = METRICS.counter(
    "cache.evaluator_memo.hits", "session-evaluator membership-memo hits"
)
_M_MEMO_MISSES = METRICS.counter(
    "cache.evaluator_memo.misses", "session-evaluator membership-memo misses"
)


def assign_widths(tasks: list[TestTask], data_pins: int) -> Optional[dict[str, int]]:
    """Assign TAM wire pairs to the scan tasks of one session.

    A width-``w`` connection costs ``2w`` data pins (w in + w out).
    Returns task-name → width in membership order, or ``None`` if the
    scan tasks cannot all get at least one wire pair.

    Every scan task starts at width 1.  Each grant goes to the first
    scan task, by time at its current width descending and then
    membership order, that the spare pairs can shorten, and moves it to
    its next strictly shorter width (:attr:`TestTask.breakpoints`).
    Granting stops when the spare pairs are spent or no task can use
    them, or at once when the critical (longest) task is saturated: its
    width has reached its ``max_width``, so the session cannot get
    shorter.

    Spare pairs only shrink, so a task they cannot shorten leaves the
    ``(-time, index)`` heap for the rest of the call, and each grant is
    O(log n).  A skipped task keeps its time and sorts ahead of every
    task left in the heap, so it stays the critical task: the
    saturation stop can only fire while nothing has been skipped.

    The length reached is the session's *level* (module docstring): the
    smallest member breakpoint time whose narrowest widths fit in
    ``data_pins // 2`` pairs.  Tie order changes the widths returned,
    never the length, which :class:`_SessionEvaluator` prices directly.
    """
    scan_tasks = [t for t in tasks if t.is_scan]
    if not scan_tasks:
        return {}
    spare = data_pins // 2 - len(scan_tasks)
    if spare < 0:
        return None
    chains = [t.breakpoints for t in scan_tasks]
    steps = [0] * len(chains)  # each task's position on its chain
    heap = [(-chain[0][1], i) for i, chain in enumerate(chains)]
    heapq.heapify(heap)
    skipped = False
    while spare > 0 and heap:
        i = heap[0][1]
        chain, k = chains[i], steps[i]
        if k + 1 < len(chain):
            extra = chain[k + 1][0] - chain[k][0]
            if extra <= spare:
                spare -= extra
                steps[i] = k + 1
                heapq.heapreplace(heap, (-chain[k + 1][1], i))
                continue
        elif not skipped and chain[k][0] >= scan_tasks[i].max_width:
            break  # the critical task is saturated
        heapq.heappop(heap)
        skipped = True
    return {t.name: chain[k][0] for t, chain, k in zip(scan_tasks, chains, steps)}


def build_session(
    index: int,
    tasks: list[TestTask],
    soc: Soc,
    policy: SharingPolicy = SharingPolicy(),
) -> Optional[Session]:
    """Materialize a session from a membership set, or ``None`` if the
    membership violates a constraint (mutexes, power, pins)."""
    if not tasks:
        return Session(index=index)
    # no two members may hold one exclusive resource
    held = [resource for t in tasks for resource in t.exclusive]
    if len(held) != len(set(held)):
        return None
    if not fits_power_budget(tasks, soc.power_budget):
        return None
    ctrl = control_pins(tasks, policy)
    if ctrl > soc.test_pins:
        return None
    data = soc.test_pins - ctrl
    widths = assign_widths(tasks, data)
    if widths is None:
        return None
    scheduled = [
        ScheduledTest(task=t, width=widths.get(t.name, 1), start=0) for t in tasks
    ]
    return Session(index=index, tests=scheduled, control_pins=ctrl, data_pins=data)


def _finalize_sessions(
    sessions: list[Session], reconfig: int
) -> tuple[list[Session], int]:
    """Assemble the final session list: drop empty sessions, merge all
    zero-length sessions into one trailing no-op session, renumber, and
    set test start offsets.

    Zero-length tests stay in the schedule (the verifier's coverage rule
    demands every input task placed exactly once) but cost nothing: the
    merged session sits at the makespan with zero duration and no
    reconfiguration charge.  Returns ``(sessions, total_time)``, where
    ``total_time`` is the non-trivial sessions' lengths plus one
    reconfiguration between consecutive ones.
    """
    real = [s for s in sessions if s.tests and s.length > 0]
    zero_tests = [t for s in sessions if s.tests and s.length == 0 for t in s.tests]
    offset = 0
    for i, session in enumerate(real):
        session.index = i
        for test in session.tests:
            test.start = offset
        offset += session.length
        if i < len(real) - 1:
            offset += reconfig
    finalized = list(real)
    if zero_tests:
        for test in zero_tests:
            test.start = offset
        # control/data pins deliberately 0: a no-op session programs
        # nothing, and the verifier skips accounting on zeroed sessions
        finalized.append(Session(index=len(real), tests=zero_tests))
    return finalized, offset


class _SessionEvaluator:
    """Memoized membership → session length, the search's inner oracle.

    A membership is an ordered tuple of indices into the run's task
    list.  ``length(key)`` says whether it is feasible and how long the
    session is, as :func:`build_session` would, without the wire-pair
    grant: the length is the session's level (module docstring), which
    the greedy's tie order cannot change.  Once per search each task
    becomes a flat record (mutex bits for its exclusive resources,
    clock-domain mask, reset / scan-enable / test-enable
    counts, BIST flag, power, fixed time), and ``levels`` holds every
    scan task's breakpoint times, sorted, with a row per scan task of
    the narrowest width finishing it within each level.  A memo miss is
    one pass over its records (power summed in membership order and
    compared as :func:`~repro.sched.power.fits_power_budget` does,
    control pins by :func:`~repro.sched.ioalloc.control_pin_count`) and
    a binary search for the smallest level whose widths fit the spare
    pairs, between the members' largest last and largest first
    breakpoint.  The greedy seed's trials, the swap neighborhood and
    every re-scan revisit identical memberships, so the memo absorbs
    most of the search.

    ``floors[i]`` is task ``i``'s time at its widest width for a scan
    task (where its level search starts), else its fixed time: no
    session holding the task is shorter.
    """

    __slots__ = ("test_pins", "power_budget", "policy", "levels", "records",
                 "floors", "_memo", "hits", "misses")

    def __init__(self, soc: Soc, policy: SharingPolicy, tasks: list[TestTask]):
        self.test_pins = soc.test_pins
        self.power_budget = soc.power_budget
        self.policy = policy
        chains = [t.breakpoints if t.is_scan else None for t in tasks]
        self.floors = [chain[-1][1] if chain else task.fixed_time
                       for task, chain in zip(tasks, chains)]
        self.levels = sorted({time for chain in chains if chain for _, time in chain})
        at = {time: j for j, time in enumerate(self.levels)}
        held: dict[str, int] = {}  # one bit per exclusive resource
        domains: dict[str, int] = {}  # a set of distinct bits sums to their mask
        self.records: list[tuple] = []
        for task, chain in zip(tasks, chains):
            scan = None
            if chain is not None:
                first, last = at[chain[0][1]], at[chain[-1][1]]
                row = [0] * last  # never probed: the search starts at ``last``
                for k in range(len(chain) - 1, 0, -1):
                    row += [chain[k][0]] * (at[chain[k - 1][1]] - at[chain[k][1]])
                scan = (last, first, row + [1] * (len(self.levels) - first))
            self.records.append((
                sum({held.setdefault(r, 1 << len(held)) for r in task.exclusive}),
                sum({domains.setdefault(d, 1 << len(domains)) for d in task.clock_domains}),
                task.control.resets, task.control.scan_enables, task.control.test_enables,
                task.uses_bist_port, task.power, task.fixed_time, scan,
            ))
        self._memo: dict[tuple[int, ...], Optional[int]] = {}
        self.hits = 0
        self.misses = 0

    def length(self, key: tuple[int, ...]) -> Optional[int]:
        """Session length of the members ``key`` indexes, or ``None``
        if infeasible."""
        if not key:
            return 0
        try:
            cached = self._memo[key]
            self.hits += 1
            return cached
        except KeyError:
            self.misses += 1
        result = self._memo[key] = self._evaluate(key)
        return result

    def _evaluate(self, key: tuple[int, ...]) -> Optional[int]:
        mutex = clocks = resets = scan_enables = test_enables = lo = hi = 0
        bist = False
        fixed = -math.inf  # the longest non-scan member
        powers, rows = [], []
        for i in key:
            bits, clk, rst, se, te, bi, power, time, scan = self.records[i]
            if mutex & bits:
                return None  # two members hold one exclusive resource
            mutex |= bits
            clocks |= clk
            resets += rst
            scan_enables += se
            test_enables += te
            bist = bist or bi
            powers.append(power)
            if scan is None:
                fixed = time if time > fixed else fixed
            else:
                last, first, row = scan
                lo = last if last > lo else lo
                hi = first if first > hi else hi
                rows.append(row)
        budget = self.power_budget
        if not (budget <= 0 or sum(powers) <= budget):
            return None
        ctrl = control_pin_count(clocks.bit_count(), resets, scan_enables,
                                 test_enables, bist, self.policy)
        pairs = (self.test_pins - ctrl) // 2  # negative if ctrl > test_pins
        if len(rows) > pairs:
            return None
        if not rows:
            return fixed
        mid = lo  # probe ``lo`` first: over half of all sessions end there
        while lo < hi:
            need = 0
            for row in rows:
                need += row[mid]
            if need <= pairs:
                hi = mid
            else:
                lo = mid + 1
            mid = (lo + hi) // 2
        level = self.levels[lo]
        return level if level >= fixed else fixed


def _makespan(sum_len: int, active: int, reconfig: int) -> int:
    """Makespan from the two running aggregates: total length of the
    non-trivial sessions and their count (reconfig between each pair)."""
    return sum_len + reconfig * (active - 1) if active else 0


def _greedy_seed(
    tasks: list[TestTask],
    k: int,
    evaluator: _SessionEvaluator,
    reconfig: int,
) -> Optional[tuple[list[tuple[int, ...]], list[int]]]:
    """Longest-first greedy placement over ``k`` sessions.

    Each trial placement touches exactly one session, so only that
    session is re-evaluated (the other ``k-1`` are unchanged and known
    feasible) and the trial makespan is the incumbent adjusted by the
    one session's length delta — O(1) bookkeeping per trial where the
    reference rebuilds all ``k`` sessions.  Memberships are tuples of
    indices into ``tasks``.
    """
    members: list[tuple[int, ...]] = [()] * k
    lengths = [0] * k
    sum_len = 0
    active = 0
    for task in sorted(range(len(tasks)), key=lambda i: -tasks[i].min_time):
        best_idx: Optional[int] = None
        best_total: Optional[int] = None
        best_len = 0
        for i in range(k):
            new_len = evaluator.length(members[i] + (task,))
            if new_len is None:
                continue
            s, a = sum_len, active
            if lengths[i]:
                s -= lengths[i]
                a -= 1
            if new_len:
                s += new_len
                a += 1
            total = _makespan(s, a, reconfig)
            if best_total is None or total < best_total:
                best_idx, best_total, best_len = i, total, new_len
        if best_idx is None:
            return None
        if lengths[best_idx]:
            sum_len -= lengths[best_idx]
            active -= 1
        if best_len:
            sum_len += best_len
            active += 1
        lengths[best_idx] = best_len
        members[best_idx] += (task,)
    return members, lengths


def _local_search(
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
    evaluated (memoized) and the makespan is updated by delta.  A
    session's drop-one memberships and their lengths are built once, on
    its first use as a source, and kept until a candidate changes the
    session; moves and swaps both read them.

    Every candidate is first priced by a lower bound.  A session never
    gets shorter when a member is added (its mutex bits, power, control
    pins, the rows needing wire pairs and the level search's lower end
    only grow), nor shorter than any member's floor
    (:class:`_SessionEvaluator`), so a move's destination is at least
    ``max(its length, the task's floor)`` and a swap's session at least
    ``max(its drop-one length, the incoming task's floor)``.  With
    a non-negative ``reconfig`` the makespan only grows with a session's
    length, so a candidate whose bounded makespan is not below the
    incumbent could not be accepted, and it is dismissed with no memo
    lookup.  The scan accepts the same first improving candidate as the
    unbounded search, round for round.  Rounds stop early once the
    incumbent reaches ``floor`` — every feasible makespan is ≥ the
    floor, so no *strict* improvement exists and the reference search's
    remaining rounds would scan and accept nothing.  Returns the
    improved memberships, their makespan, and whether every state passed
    through kept a member-less session (module docstring), from a running
    count: a move emptying its source adds one, a move into an empty
    session removes one, and a swap changes none.

    ``stats`` (when given) accumulates search telemetry — plain local
    integer counters, flushed by the caller, so the hot loop never
    touches a lock: ``rounds``, ``moves`` (move and swap candidates
    scanned, bound-dismissed ones included), ``moves_bounded`` (those
    the bound dismissed), ``moves_pruned`` (on a floor exit, the size of
    the neighborhood — ``(k-1)·n`` single-task moves plus the pairwise
    swap space — that the reference search would have scanned next
    without accepting anything), and ``exits[reason]`` for reason
    ``floor`` / ``converged`` / ``max_rounds``.  Telemetry never
    influences the search — bit-identity with the reference is
    unconditional.
    """
    k = len(members)
    length, floors = evaluator.length, evaluator.floors
    sum_len = sum(ln for ln in lengths if ln)
    active = sum(1 for ln in lengths if ln)
    best_total = _makespan(sum_len, active, reconfig)
    empty = members.count(())
    kept_empty = empty > 0
    rounds = moves = bounded = pruned = 0
    exit_reason = "max_rounds"
    drops: list = [None] * k

    def dropped(i: int) -> tuple[list[tuple[int, ...]], list]:
        """Session ``i``'s drop-one memberships and their lengths.  Only a
        negative power can make one infeasible (``None``): a move out of
        it is skipped, and it bounds a swap by the incoming floor alone."""
        if drops[i] is None:
            key = members[i]
            keys = [key[:j] + key[j + 1:] for j in range(len(key))]
            drops[i] = keys, [length(d) for d in keys]
        return drops[i]

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
            keys, lens = dropped(src)
            old_dst = lengths[dst]
            # the makespan terms of the other k - 2 sessions
            s0 = sum_len - lengths[src] - old_dst
            a0 = active - (lengths[src] > 0) - (old_dst > 0)
            for ti, task in enumerate(members[src]):
                moves += 1
                len_src = lens[ti]
                if len_src is None:
                    continue
                low = floors[task] if floors[task] > old_dst else old_dst
                a = a0 + (len_src > 0) + (low > 0)
                if (s0 + len_src + low + reconfig * (a - 1) if a else 0) >= best_total:
                    bounded += 1
                    continue
                new_dst = members[dst] + (task,)
                len_dst = length(new_dst)
                if len_dst is None:
                    continue
                a = a0 + (len_src > 0) + (len_dst > 0)
                total = s0 + len_src + len_dst + reconfig * (a - 1) if a else 0
                if total < best_total:
                    empty += (not keys[ti]) - (not members[dst])
                    kept_empty = kept_empty and empty > 0
                    members[src], members[dst] = keys[ti], new_dst
                    lengths[src], lengths[dst] = len_src, len_dst
                    sum_len, active, best_total = s0 + len_src + len_dst, a, total
                    drops[src] = drops[dst] = None
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        # pairwise swaps
        for sa, sb in itertools.combinations(range(k), 2):
            keys_a, lens_a = dropped(sa)
            keys_b, lens_b = dropped(sb)
            s0 = sum_len - lengths[sa] - lengths[sb]
            a0 = active - (lengths[sa] > 0) - (lengths[sb] > 0)
            for ti, ta in enumerate(members[sa]):
                drop_a, floor_a = lens_a[ti] or 0, floors[ta]
                for tj, tb in enumerate(members[sb]):
                    moves += 1
                    drop_b = lens_b[tj] or 0
                    low_a = floors[tb] if floors[tb] > drop_a else drop_a
                    low_b = floor_a if floor_a > drop_b else drop_b
                    a = a0 + (low_a > 0) + (low_b > 0)
                    if (s0 + low_a + low_b + reconfig * (a - 1) if a else 0) >= best_total:
                        bounded += 1
                        continue
                    new_a = keys_a[ti] + (tb,)
                    len_a = length(new_a)
                    if len_a is None:
                        continue
                    new_b = keys_b[tj] + (ta,)
                    len_b = length(new_b)
                    if len_b is None:
                        continue
                    a = a0 + (len_a > 0) + (len_b > 0)
                    total = s0 + len_a + len_b + reconfig * (a - 1) if a else 0
                    if total < best_total:
                        members[sa], members[sb] = new_a, new_b
                        lengths[sa], lengths[sb] = len_a, len_b
                        sum_len, active, best_total = s0 + len_a + len_b, a, total
                        drops[sa] = drops[sb] = None
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
        stats["moves_bounded"] += bounded
        stats["moves_pruned"] += pruned
        stats["exits"][exit_reason] += 1
    return members, best_total, kept_empty


def schedule_sessions(
    soc: Soc,
    tasks: list[TestTask],
    n_sessions: int | None = None,
    policy: SharingPolicy = SharingPolicy(),
    reconfig: int = SESSION_RECONFIG_CYCLES,
) -> ScheduleResult:
    """Session-based schedule for ``tasks`` on ``soc``.

    When ``n_sessions`` is None, a window of :data:`MAX_SESSIONS`
    candidate session counts is searched, starting at the mutex-forced
    floor (the most tasks holding one exclusive resource,
    :attr:`TestTask.exclusive`: a core, the chip's functional interface or
    the BIST engine) and capped at the task count — ``floor ..
    min(#tasks, floor + MAX_SESSIONS - 1)``.  For small chips (floor 1)
    this is the classic ``1 .. MAX_SESSIONS`` search; large chips with
    many functional tests start higher and stay schedulable.
    ``MAX_SESSIONS`` sizes the search window — it is not a hard cap on
    the returned session count; pass ``n_sessions`` to pin the count
    exactly.  The best feasible result is returned.

    The loop stops once no remaining count can strictly improve the
    incumbent (ties keep the earlier count, as the full loop would): at
    :func:`~repro.sched.bounds.session_schedule_floor`, or after a
    feasible count whose search kept an empty session throughout, which
    every larger count repeats (module docstring).  The result is
    bit-identical to the retained pre-incremental search over the whole
    window, the test oracle ``schedule_sessions_reference``.
    """
    if not tasks:
        return ScheduleResult(soc_name=soc.name, strategy="session-based",
                              pin_budget=soc.test_pins)
    if n_sessions is not None:
        candidates = [n_sessions]
    else:
        forced = max(exclusive_tallies((t, 1) for t in tasks).values())
        # a window of MAX_SESSIONS candidate counts starting at the floor
        # (degenerates to the classic 1..MAX_SESSIONS for small chips)
        candidates = list(range(forced, min(len(tasks), forced + MAX_SESSIONS - 1) + 1))
    evaluator = _SessionEvaluator(soc, policy, tasks)
    floor = session_schedule_floor(soc, tasks, reconfig)
    stats = {"rounds": 0, "moves": 0, "moves_bounded": 0, "moves_pruned": 0,
             "exits": {"floor": 0, "converged": 0, "max_rounds": 0}}
    candidates_pruned = 0
    best_members: Optional[list[tuple[int, ...]]] = None
    best_total: Optional[int] = None
    sp = span("sched.session_search", soc=soc.name, tasks=len(tasks))
    try:
        with sp:
            for ci, k in enumerate(candidates):
                if best_total is not None and best_total <= floor:
                    # bound pruning: every remaining k yields >= floor >= incumbent
                    candidates_pruned = len(candidates) - ci
                    break
                seeded = _greedy_seed(tasks, k, evaluator, reconfig)
                if seeded is None:
                    continue
                members, lengths = seeded
                members, total, kept_empty = _local_search(
                    members, lengths, evaluator, reconfig, floor, stats=stats
                )
                if best_total is None or total < best_total:
                    best_members, best_total = members, total
                if kept_empty:  # every larger k repeats this search
                    candidates_pruned = len(candidates) - ci - 1
                    break
            if sp.id is not None:
                sp.set(
                    floor=floor, makespan=best_total,
                    rounds=stats["rounds"], moves=stats["moves"],
                    moves_bounded=stats["moves_bounded"],
                    moves_pruned=stats["moves_pruned"],
                    candidates_pruned=candidates_pruned,
                    memo_hits=evaluator.hits, memo_misses=evaluator.misses,
                )
    finally:
        # one flush per scheduling run — the search itself only ever
        # bumps plain local ints (see _local_search)
        _M_RUNS.inc()
        _M_ROUNDS.inc(stats["rounds"])
        _M_MOVES.inc(stats["moves"])
        _M_MOVES_BOUNDED.inc(stats["moves_bounded"])
        _M_MOVES_PRUNED.inc(stats["moves_pruned"])
        _M_CANDIDATES_PRUNED.inc(candidates_pruned)
        for reason, count in stats["exits"].items():
            if count:
                _M_FLOOR_EXITS.inc(count, reason=reason)
        _M_MEMO_HITS.inc(evaluator.hits)
        _M_MEMO_MISSES.inc(evaluator.misses)
    if best_members is None:
        raise InfeasibleScheduleError(
            f"no feasible session schedule for {soc.name!r} with "
            f"{soc.test_pins} pins (tried {candidates} sessions)"
        )
    best_sessions = []
    for i, membership in enumerate(best_members):
        session = build_session(i, [tasks[t] for t in membership], soc, policy)
        if session is None:  # pragma: no cover — search only keeps feasible sets
            raise InfeasibleScheduleError(
                f"internal error: winning membership infeasible for {soc.name!r}"
            )
        best_sessions.append(session)
    used, total = _finalize_sessions(best_sessions, reconfig)
    return ScheduleResult(
        soc_name=soc.name,
        strategy="session-based",
        sessions=used,
        total_time=total,
        pin_budget=soc.test_pins,
        notes=f"{len(used)} sessions, reconfig {reconfig} cycles each",
    )


def schedule_serial(
    soc: Soc,
    tasks: list[TestTask],
    policy: SharingPolicy = SharingPolicy(),
    reconfig: int = SESSION_RECONFIG_CYCLES,
) -> ScheduleResult:
    """Fully serial baseline: one task per session, each at max width."""
    memberships = [[t] for t in sorted(tasks, key=lambda t: -t.min_time)]
    sessions = []
    for i, membership in enumerate(memberships):
        session = build_session(i, membership, soc, policy)
        if session is None:
            raise InfeasibleScheduleError(
                f"serial schedule infeasible for {soc.name!r}: some single test "
                f"does not fit in {soc.test_pins} pins"
            )
        sessions.append(session)
    used, total = _finalize_sessions(sessions, reconfig)
    return ScheduleResult(
        soc_name=soc.name,
        strategy="serial",
        sessions=used,
        total_time=total,
        pin_budget=soc.test_pins,
        notes=f"{len(used)} single-test sessions",
    )
