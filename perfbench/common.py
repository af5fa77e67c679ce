"""What the workload modules share: the run context, the outcome they
return, fresh-process set-up timing, and peak memory."""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from calib import Calibrator

HERE = Path(__file__).resolve().parent

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_STARTS = 5


class CheckError(AssertionError):
    """An output of the program failed the benchmark's correctness check."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path  # the checkout (holds src/repro)
    workdir: Path  # scratch space inside the checkout, removed afterwards
    outdir: Path  # kept artifacts (span JSONL, run detail)


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_starts(ctx: Context) -> list[float]:
    """Calibrated wall times of :data:`SETUP_STARTS` fresh processes, each
    importing the platform and running the workload's warm-up op
    (``probe.py``).  Bytecode caches are already warm: the calling
    process imported the same modules first."""
    cmd = [sys.executable, str(HERE / "probe.py"), ctx.workload, str(ctx.workdir)]
    cal = Calibrator()
    samples = []
    for _ in range(SETUP_STARTS):
        with cal.bracket() as bracket:
            subprocess.run(cmd, check=True, cwd=ctx.root, timeout=120,
                           stdout=subprocess.DEVNULL)
        samples.append(bracket.timed.s)
    return samples


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)} if values else {"n": 0}
