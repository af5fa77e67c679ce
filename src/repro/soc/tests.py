"""Core test descriptions: scan, functional and memory-BIST tests.

A core may carry several tests (the TV encoder has both a 229-pattern scan
test and a 202,673-pattern functional test).  Tests store *pattern counts*
always and *pattern data* optionally — the DSC case study works from the
published counts, while the ATPG-generated demo cores carry real vectors
through the pattern translator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.util import check_name, check_non_negative


class TestKind(enum.Enum):
    """The three test types STEAC schedules."""

    SCAN = "scan"
    FUNCTIONAL = "functional"
    BIST = "bist"


@dataclass
class CoreTest:
    """One test of a core.

    Attributes:
        name: test identifier, unique within the core.
        kind: scan / functional / bist.
        patterns: number of test patterns.  For scan tests this is the
            number of scan load/capture/unload iterations; for functional
            tests the number of tester cycles (one vector per cycle); for
            BIST the count is informational (BIST time comes from the March
            algorithm and memory size).
        power: abstract test-power units consumed while this test runs
            (used by power-constrained scheduling; 0 = unconstrained).
            Finite and non-negative.
        vectors: optional concrete pattern payload (``repro.patterns``
            containers); ``None`` when only counts are known.
    """

    name: str
    kind: TestKind
    patterns: int
    power: float = 0.0
    vectors: Optional[object] = None

    def __post_init__(self) -> None:
        check_name(self.name, "test name")
        check_non_negative(self.patterns, "pattern count")
        check_non_negative(self.power, "test power")

    @property
    def is_scan(self) -> bool:
        return self.kind is TestKind.SCAN


def scan_test(patterns: int, name: str = "scan", power: float = 0.0, vectors=None) -> CoreTest:
    """Shorthand for a scan test."""
    return CoreTest(name=name, kind=TestKind.SCAN, patterns=patterns, power=power, vectors=vectors)


def functional_test(patterns: int, name: str = "func", power: float = 0.0, vectors=None) -> CoreTest:
    """Shorthand for a functional (cycle-based) test."""
    return CoreTest(
        name=name, kind=TestKind.FUNCTIONAL, patterns=patterns, power=power, vectors=vectors
    )
