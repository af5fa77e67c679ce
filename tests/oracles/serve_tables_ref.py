"""Reference: the serve layer's three hand-kept LRU routines.

:class:`repro.serve.cache.LruTable` replaced the refresh and trim code
of the result cache's memory tier, the job table and the request-key
memo.  That code is kept here, changed only so that the table and its
cap are arguments and a routine that counted evictions returns them;
``tests/test_serve_tables.py`` races the table class against it.  Do
not optimize it; its value is being the old behaviour.
"""

from __future__ import annotations

from collections import OrderedDict


def touch(table: OrderedDict, key):
    """``ResultCache.get``'s memory hit and ``JobManager.get``: the
    value, moved to the most recent end, or ``None``."""
    value = table.get(key)
    if value is not None:
        table.move_to_end(key)
    return value


def remember(entries: OrderedDict, capacity: int, key, text) -> int:
    """``ResultCache._remember``: insert into the LRU; the number of
    entries evicted."""
    evictions = 0
    if capacity == 0:
        return evictions
    entries[key] = text
    entries.move_to_end(key)
    while len(entries) > capacity:
        entries.popitem(last=False)
        evictions += 1
    return evictions


def evict_terminal(jobs: OrderedDict, max_jobs) -> list:
    """``JobManager._evict_locked``: drop least-recently-used *terminal*
    jobs past ``max_jobs``; the evicted ids."""
    if max_jobs is None or len(jobs) <= max_jobs:
        return []
    excess = len(jobs) - max_jobs
    victims = []
    for job_id, job in jobs.items():
        if job.status in ("done", "failed"):
            victims.append(job_id)
            if len(victims) == excess:
                break
    for job_id in victims:
        del jobs[job_id]
    return victims


def remember_request_key(request_keys: OrderedDict, cap: int, memo_key, cache_key) -> None:
    """``JobManager.accept``'s inline memo insert and trim (the memo
    counted no evictions)."""
    request_keys[memo_key] = cache_key
    request_keys.move_to_end(memo_key)
    while len(request_keys) > cap:
        request_keys.popitem(last=False)
