"""Host-speed calibration and the summary statistics every workload shares.

A shared host runs the same pure-Python loop anywhere from 1x to ~1.8x
slower from one half-second to the next.  Every timed operation is
therefore bracketed by a fixed reference loop, and its wall time is
rescaled by ``REF_NOMINAL_MS / measured reference time``: the result is
the time the operation would have taken on a host running the reference
loop at its nominal speed.  The loop and its nominal duration are
constants of the benchmark; a change to either changes every calibrated
number, so the raw reference time is reported beside the results
(``calib.ref_ms``).

The reference loop is shaped like the platform's own work — sort tuples
by a key, group them in a dict, format and join strings — because a
slower host slows such code more than it slows plain integer arithmetic,
and a loop that slows less would leave part of every slowdown in the
calibrated times.  It runs with the garbage collector off, so a large
live heap left behind by the program cannot slow it down and masquerade
as a faster program.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: Rows of one reference block (~1 ms of pure-Python work).
REF_ROWS = 840
#: Blocks per reference reading; the reading is their median, which
#: drops a block that a context switch happened to land in.
REF_BLOCKS = 3
#: Nominal duration of one reference block: the speed calibrated times
#: are expressed in.  Fixed; never measured at run time.
REF_NOMINAL_MS = 1.0
#: A reference reading older than this is stale as the "before" bracket
#: of the next operation and is taken again.
REF_REUSE_S = 0.05
#: In-process ops are also sampled while they run: every ``SAMPLE_S`` of
#: CPU time a profiling-timer signal runs a quarter block.  Host speed
#: swings within a 100 ms op, which readings at its edges alone miss.
#: Denser or longer samples slow the program itself after each one.
SAMPLE_S = 0.02
SAMPLE_ROWS = REF_ROWS // 4
#: Attempts at a reference reading while the idle guard reports that the
#: program under test used CPU during the reading.
GUARD_ATTEMPTS = 4


def _ref_block(size: int = REF_ROWS) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = [(i * 7919 % 1000, f"t{i % 97}", i) for i in range(size)]
        rows.sort(key=lambda row: (-row[0], row[2]))
        groups: dict[str, list[int]] = {}
        for value, name, _ in rows:
            groups.setdefault(name, []).append(value)
        spread = sum(max(values) - min(values) for values in groups.values())
        text = ",".join(f"{name}:{len(values)}" for name, values in sorted(groups.items()))
        return spread + len(text)
    finally:
        if enabled:
            gc.enable()


def reference_ms(blocks: int = REF_BLOCKS, clock: Callable[[], float] = time.perf_counter) -> float:
    """One reference reading: the median time of ``blocks`` blocks."""
    samples = []
    for _ in range(blocks):
        t0 = clock()
        _ref_block()
        samples.append((clock() - t0) * 1000.0)
    return statistics.median(samples)


def calibrate(raw_s: float, ref_ms: float, nominal_ms: float = REF_NOMINAL_MS) -> float:
    """Rescale a wall time measured while the reference loop took
    ``ref_ms`` per block to the nominal host speed."""
    if ref_ms <= 0:
        raise ValueError(f"reference time must be positive, got {ref_ms}")
    return raw_s * nominal_ms / ref_ms


@dataclass(frozen=True)
class Timed:
    """One calibrated measurement: raw wall time and its reference."""

    raw_s: float
    ref_ms: float  # mean of the two bracketing reference readings

    @property
    def s(self) -> float:
        return calibrate(self.raw_s, self.ref_ms)

    @property
    def ms(self) -> float:
        return self.s * 1000.0

    def scale(self, raw_s: float) -> float:
        """Calibrate another wall time taken inside the same bracket."""
        return calibrate(raw_s, self.ref_ms)


class Calibrator:
    """Brackets operations with reference readings.

    ``clock`` times both the operations and the reference.  Wall time
    (the default) is what a client of another process sees.  An
    operation of the program running in this thread is timed by the
    thread's CPU clock instead (:meth:`in_process`): the shared host
    deschedules the process for about a fifth of the wall time, in gaps
    no reference reading can see, and the CPU clock leaves them out.

    ``idle_check`` (optional) returns a snapshot of the CPU time the
    program under test has used; a reading during which the snapshot
    changed is taken again, so the reference never competes with the
    program.  The reading taken after one operation doubles as the
    "before" bracket of the next when little time passed in between.
    """

    def __init__(self, idle_check: Optional[Callable[[], object]] = None,
                 clock: Callable[[], float] = time.perf_counter, sample: bool = False):
        self.idle_check = idle_check
        self.clock = clock
        self.sample = sample
        self.readings: list[float] = []
        self.guard_retries = 0
        self.guard_failures = 0
        self._last: Optional[tuple[float, float]] = None  # (ref_ms, taken at)

    def reading(self) -> float:
        for _ in range(GUARD_ATTEMPTS):
            before = self.idle_check() if self.idle_check else None
            ref = reference_ms(clock=self.clock)
            if self.idle_check is None or self.idle_check() == before:
                break
            self.guard_retries += 1
        else:
            self.guard_failures += 1
        self.readings.append(ref)
        self._last = (ref, time.perf_counter())
        return ref

    def _before(self) -> float:
        if self._last is not None and time.perf_counter() - self._last[1] < REF_REUSE_S:
            return self._last[0]
        return self.reading()

    def bracket(self) -> "Bracket":
        """Time one operation between two reference readings::

            with calibrator.bracket() as b:
                run_the_operation()
            b.timed.ms
        """
        return Bracket(self)

    def ref_median(self) -> float:
        return statistics.median(self.readings) if self.readings else 0.0

    @classmethod
    def in_process(cls) -> "Calibrator":
        """Thread CPU clock, with in-op samples: an op's speed is the
        mean of its bracket and in-op readings, and the samples' own
        time is taken out of the op's."""
        return cls(clock=time.thread_time, sample=True)


class Bracket:
    """One operation between two reference readings (see
    :meth:`Calibrator.bracket`); ``timed`` is set on exit."""

    def __init__(self, calibrator: Calibrator):
        self._cal = calibrator
        self.timed: Optional[Timed] = None

    def __enter__(self) -> "Bracket":
        self._ref = self._cal._before()
        self._samples: list[float] = []
        self._sampling_s = 0.0
        if self._cal.sample:
            self._handler = signal.signal(signal.SIGPROF, self._take_sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        self._t0 = self._cal.clock()
        return self

    def _take_sample(self, signum: int, frame: object) -> None:
        clock = self._cal.clock
        t0 = clock()
        _ref_block(SAMPLE_ROWS)
        t1 = clock()
        self._samples.append((t1 - t0) * 1000.0 * REF_ROWS / SAMPLE_ROWS)
        self._sampling_s += clock() - t0

    def __exit__(self, *exc: object) -> bool:
        raw = self._cal.clock() - self._t0
        if self._cal.sample:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._handler)
            raw -= self._sampling_s
        after = self._cal.reading()
        readings = [self._ref, *self._samples, after]
        # mean speed over the op: wall time spent at each sampled speed
        speed = statistics.fmean(REF_NOMINAL_MS / ms for ms in readings)
        self.timed = Timed(raw, REF_NOMINAL_MS / speed)
        return False


# -- summary statistics --------------------------------------------------------

#: Percentiles considered for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest ladder percentile with at least ``beyond`` of ``n``
    samples past it, or ``None`` when not even the median qualifies."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= beyond:
            return p
    return None
