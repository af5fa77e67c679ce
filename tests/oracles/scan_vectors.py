"""Scan-vector shape checker shared by the ATPG and netlist tests.

Every scan vector's load and unload strings must be exactly as long as
the chain they shift through.  Nothing in the package needs the check at
run time: the ATPG builds its vectors from the traced chains, and the
tests hold its output to this shape.
"""

from __future__ import annotations

from repro.patterns.core_patterns import CorePatternSet


def chain_length_problems(patterns: CorePatternSet,
                          chain_lengths: dict[str, int]) -> list[str]:
    """Check every scan vector's load/unload lengths match the chain
    lengths; returns problem strings (empty = clean)."""
    problems = []
    for i, vec in enumerate(patterns.scan_vectors):
        for chain, bits in vec.loads.items():
            expected = chain_lengths.get(chain)
            if expected is None:
                problems.append(f"vector {i}: unknown chain {chain!r}")
            elif len(bits) != expected:
                problems.append(
                    f"vector {i}: chain {chain!r} load is {len(bits)} bits, "
                    f"chain length is {expected}"
                )
        for chain, bits in vec.unloads.items():
            expected = chain_lengths.get(chain)
            if expected is not None and len(bits) != expected:
                problems.append(
                    f"vector {i}: chain {chain!r} unload is {len(bits)} bits, "
                    f"chain length is {expected}"
                )
    return problems
