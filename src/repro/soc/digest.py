"""Canonical SOC serialization and content digests.

A production integration service needs a *content address* for a chip:
two structurally identical SOCs — however they were built (hand-coded,
parsed from ``.soc`` text, regenerated from :class:`repro.gen`
coordinates) — must hash to the same digest, and **any** semantic
mutation (a pin budget, a pattern count, a spare row) must change it.
That address is what the ``repro.serve`` result cache keys on, and what
fuzz campaigns can dedupe minimized chips by.

The digest is ``sha256`` over a canonical JSON rendering of the model:

* every semantic field of :class:`~repro.soc.soc.Soc`,
  :class:`~repro.soc.core.Core`, :class:`~repro.soc.ports.Port`,
  :class:`~repro.soc.scan.ScanChain`, :class:`~repro.soc.tests.CoreTest`,
  :class:`~repro.soc.clocks.ClockDomain` and
  :class:`~repro.soc.memory.MemorySpec` (enums by value, lists in
  declaration order — order is semantic: it is TAM/schedule input);
* keys sorted, separators fixed, floats via ``repr`` (shortest
  round-trip form), so the byte stream is platform-stable;
* a run (``Port(run=n)``) as its ``n`` single-bit ports, so a chip built
  of runs and the same chip built bit by bit (a parsed STIL core) share
  one form, and ``v1`` digests stay what they were before runs.

Pattern *payloads* (``CoreTest.vectors``) are summarized by length only:
the integration flow consumes counts plus the optional payloads, but
payload objects carry no stable canonical form and the scheduling /
insertion outcome is fully determined by the structural fields.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.soc.bits import expand_port_bits

if TYPE_CHECKING:  # pragma: no cover
    from repro.soc.core import Core
    from repro.soc.memory import MemorySpec
    from repro.soc.soc import Soc

#: Version tag mixed into every digest: bump when the canonical form
#: changes so stale on-disk cache entries can never alias a new model.
CANONICAL_VERSION = "repro/soc-canonical/v1"


def _number(value: float | int) -> float | int:
    """Floats canonicalize via their shortest round-trip repr (which
    ``json.dumps`` uses), ints stay ints — ``1`` and ``1.0`` digest
    differently, matching the model's own typing."""
    return value


def canonical_core(core: "Core") -> dict:
    """The canonical JSON-native form of one core."""
    ports: list[dict] = []
    for p in core.ports:
        entry = {
            "name": p.name,
            "direction": p.direction.value,
            "kind": p.kind.value,
            "width": p.width,
            "clock_domain": p.clock_domain,
        }
        if p.run:
            ports.extend({**entry, "name": bit} for bit in expand_port_bits(p))
        else:
            ports.append(entry)
    return {
        "name": core.name,
        "type": core.core_type.value,
        "wrapped": core.wrapped,
        "gate_count": core.gate_count,
        "ports": ports,
        "scan_chains": [
            {
                "name": c.name,
                "length": c.length,
                "scan_in": c.scan_in,
                "scan_out": c.scan_out,
                "clock_domain": c.clock_domain,
                "shares_functional_output": c.shares_functional_output,
            }
            for c in core.scan_chains
        ],
        "tests": [
            {
                "name": t.name,
                "kind": t.kind.value,
                "patterns": t.patterns,
                "power": _number(t.power),
                "vector_count": len(t.vectors) if t.vectors is not None else None,
            }
            for t in core.tests
        ],
        "clock_domains": [
            {"name": d.name, "freq_mhz": _number(d.freq_mhz)}
            for d in core.clock_domains
        ],
    }


def canonical_memory(memory: "MemorySpec") -> dict:
    """The canonical JSON-native form of one embedded memory."""
    return {
        "name": memory.name,
        "words": memory.words,
        "bits": memory.bits,
        "type": memory.mem_type.value,
        "freq_mhz": _number(memory.freq_mhz),
        "power": _number(memory.power),
        "redundancy": (
            None
            if memory.redundancy is None
            else {
                "spare_rows": memory.redundancy.spare_rows,
                "spare_cols": memory.redundancy.spare_cols,
            }
        ),
    }


def canonical_soc(soc: "Soc") -> dict:
    """The canonical JSON-native form of a whole chip.

    Equality of this dict is structural equality of the model; its
    serialized bytes feed :func:`soc_digest`.
    """
    return {
        "version": CANONICAL_VERSION,
        "name": soc.name,
        "test_pins": soc.test_pins,
        "gate_count": soc.gate_count,
        "power_budget": _number(soc.power_budget),
        "cores": [canonical_core(core) for core in soc.cores],
        "memories": [canonical_memory(memory) for memory in soc.memories],
    }


def canonical_json(doc: dict) -> str:
    """Deterministic JSON bytes for any JSON-native document: sorted
    keys, no whitespace — the serialization every digest is taken over."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest_document(doc: dict) -> str:
    """sha256 hex digest of a JSON-native document's canonical bytes."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def soc_digest(soc: "Soc") -> str:
    """The chip's content address: sha256 over :func:`canonical_soc`.

    Stable across processes, platforms and construction paths; any
    core / pin / power / memory mutation yields a different digest.
    """
    return digest_document(canonical_soc(soc))
