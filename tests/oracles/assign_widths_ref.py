"""Reference TAM width allocator: the original re-sorting loop, retained.

:func:`repro.sched.session.assign_widths` replaced this loop with a heap
and per-task width breakpoints.  This body is kept verbatim as the
oracle for ``tests/test_sched_assign_widths.py``: it re-sorts every
scan task on every wire-pair grant and probes wider widths one at a
time, which makes its semantics easy to audit.  Do not optimize it;
its value is being the unoptimized baseline.
"""

from __future__ import annotations

from typing import Optional

from repro.sched.result import TestTask


def assign_widths_reference(
    tasks: list[TestTask], data_pins: int
) -> Optional[dict[str, int]]:
    """Assign TAM wire pairs to the scan tasks of one session.

    A width-``w`` connection costs ``2w`` data pins (w in + w out).
    Returns task-name → width, or ``None`` if the scan tasks cannot all
    get at least one wire pair.
    """
    scan_tasks = [t for t in tasks if t.is_scan]
    if not scan_tasks:
        return {}
    pairs = data_pins // 2
    if pairs < len(scan_tasks):
        return None
    widths = {t.name: 1 for t in scan_tasks}
    remaining = pairs - len(scan_tasks)
    while remaining > 0:
        # the session is as long as its slowest member: widen that one
        order = sorted(scan_tasks, key=lambda t: -t.time(widths[t.name]))
        granted = False
        for task in order:
            w = widths[task.name]
            current = task.time(w)
            # smallest extra wires that actually shorten this task
            for extra in range(1, remaining + 1):
                if w + extra > task.max_width:
                    break
                if task.time(w + extra) < current:
                    widths[task.name] = w + extra
                    remaining -= extra
                    granted = True
                    break
            if granted:
                break
            if task is order[0] and w >= task.max_width:
                # critical task saturated: no grant can shorten the session
                return widths
        if not granted:
            break
    return widths
