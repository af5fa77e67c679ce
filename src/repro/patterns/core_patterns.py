"""Core-level test pattern containers.

These are the payloads the STIL parser extracts and the pattern
translator consumes.  Conventions follow STIL/ATE practice:

* drive characters: ``0``, ``1``, ``X`` (don't care);
* expect characters: ``L`` (low), ``H`` (high), ``X`` (don't compare).

A scan vector is one load/capture/unload iteration: per-chain load
strings, PI values applied before capture, expected PO values at capture,
and per-chain expected unload strings (the response captured by the
*previous* pattern shifts out while the next loads — the containers store
each vector's own capture response; interleaving is the translator's
job).
"""

from __future__ import annotations

from dataclasses import dataclass, field

DRIVE_CHARS = frozenset("01X")
EXPECT_CHARS = frozenset("LHX")


def _check_chars(value: str, allowed: frozenset, what: str) -> str:
    bad = set(value) - allowed
    if bad:
        raise ValueError(f"{what} contains invalid characters {sorted(bad)}: {value!r}")
    return value


@dataclass
class ScanVector:
    """One scan pattern: load, apply PIs, capture, unload.

    Attributes:
        loads: chain name → stimulus bit-string (first character enters
            the chain first, i.e. ends up deepest).
        pi: primary-input drive string, one char per (non-scan) input.
        expected_po: expected primary-output string at capture.
        unloads: chain name → expected response bit-string observed when
            this vector's capture is shifted out.
    """

    loads: dict[str, str] = field(default_factory=dict)
    pi: str = ""
    expected_po: str = ""
    unloads: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for chain, bits in self.loads.items():
            _check_chars(bits, DRIVE_CHARS, f"load for chain {chain!r}")
        _check_chars(self.pi, DRIVE_CHARS, "pi drive")
        _check_chars(self.expected_po, EXPECT_CHARS, "po expect")
        for chain, bits in self.unloads.items():
            _check_chars(bits, EXPECT_CHARS, f"unload for chain {chain!r}")


@dataclass
class FunctionalVector:
    """One functional (cycle-based) vector: drive PIs, expect POs."""

    pi: str = ""
    expected_po: str = ""

    def __post_init__(self) -> None:
        _check_chars(self.pi, DRIVE_CHARS, "pi drive")
        _check_chars(self.expected_po, EXPECT_CHARS, "po expect")


@dataclass
class CorePatternSet:
    """All concrete patterns for one core.

    Attributes:
        core_name: owning core.
        pi_order: non-scan input port names, in drive-string order (bus
            ports appear bit-expanded, MSB first: ``d[3] d[2] ...``).
        po_order: output port names, in expect-string order.
        chain_order: scan chain names in declaration order.
        scan_vectors / functional_vectors: the payloads.
    """

    core_name: str
    pi_order: list[str] = field(default_factory=list)
    po_order: list[str] = field(default_factory=list)
    chain_order: list[str] = field(default_factory=list)
    scan_vectors: list[ScanVector] = field(default_factory=list)
    functional_vectors: list[FunctionalVector] = field(default_factory=list)
