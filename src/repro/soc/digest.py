"""Canonical SOC serialization and content digests.

A production integration service needs a *content address* for a chip:
two structurally identical SOCs — however they were built (hand-coded,
parsed from ``.soc`` text, regenerated from :class:`repro.gen`
coordinates) — must hash to the same digest, and **any** semantic
mutation (a pin budget, a pattern count, a spare row) must change it.
That address is what the ``repro.serve`` result cache keys on, and what
fuzz campaigns can dedupe minimized chips by.

The digest is ``sha256`` over a canonical JSON rendering of the model
(:func:`canonical_text`):

* every semantic field of :class:`~repro.soc.soc.Soc`,
  :class:`~repro.soc.core.Core`, :class:`~repro.soc.ports.Port`,
  :class:`~repro.soc.scan.ScanChain`, :class:`~repro.soc.tests.CoreTest`,
  :class:`~repro.soc.clocks.ClockDomain` and
  :class:`~repro.soc.memory.MemorySpec` (enums by value, lists in
  declaration order — order is semantic: it is TAM/schedule input);
* keys sorted, separators fixed, floats via ``repr`` (shortest
  round-trip form; ``1`` and ``1.0`` differ), so the byte stream is
  platform-stable;
* a run (``Port(run=n)``) as its ``n`` single-bit ports, so a chip built
  of runs and the same chip built bit by bit (a parsed STIL core) share
  one form, and ``v1`` digests stay what they were before runs.

Ports are written from templates, not as one JSON object per bit:
entries of one *shape* (clock domain, direction, kind, width) differ
only by name, so each bit's encoded name is spliced into its shape's
text.  ``tests/oracles/soc_canonical_ref.py`` keeps the per-bit form.

Pattern *payloads* (``CoreTest.vectors``) are summarized by length only:
the integration flow consumes counts plus the optional payloads, but
payload objects carry no stable canonical form and the scheduling /
insertion outcome is fully determined by the structural fields.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from repro.soc.bits import expand_port_bits

if TYPE_CHECKING:  # pragma: no cover
    from repro.soc.core import Core
    from repro.soc.soc import Soc

#: Version tag mixed into every digest: bump when the canonical form
#: changes so stale on-disk cache entries can never alias a new model.
CANONICAL_VERSION = "repro/soc-canonical/v1"


def _ports_text(core: "Core", shapes: dict) -> str:
    """One core's ``"ports"`` entries, a run's bit by bit.  ``shapes``
    holds each shape's text before a name, between two names and after
    the last.  Enum members are singletons, so a shape holds their ids
    (hashing a member runs Python code)."""
    entries = []
    for p in core.ports:
        shape = (p.clock_domain, id(p.direction), id(p.kind), p.width)
        frame = shapes.get(shape)
        if frame is None:
            domain = "null" if p.clock_domain is None else encode_basestring_ascii(p.clock_domain)
            head = (f'{{"clock_domain":{domain},"direction":"{p.direction.value}",'
                    f'"kind":"{p.kind.value}","name":')
            tail = f',"width":{p.width}}}'
            frame = shapes[shape] = (head, f"{tail},{head}", tail)
        head, between, tail = frame
        names = expand_port_bits(p) if p.run else (p.name,)
        entries.append(head + between.join(map(encode_basestring_ascii, names)) + tail)
    return ",".join(entries)


def _core_text(core: "Core", shapes: dict) -> str:
    """One core's canonical object: its port list is spliced in between
    the keys that sort before ``"ports"`` and those that sort after."""
    before = canonical_json({
        "name": core.name,
        "gate_count": core.gate_count,
        "clock_domains": [{"name": d.name, "freq_mhz": d.freq_mhz} for d in core.clock_domains],
    })
    after = canonical_json({
        "type": core.core_type.value,
        "wrapped": core.wrapped,
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
                "power": t.power,
                "vector_count": len(t.vectors) if t.vectors is not None else None,
            }
            for t in core.tests
        ],
    })
    return f'{before[:-1]},"ports":[{_ports_text(core, shapes)}],{after[1:]}'


def canonical_text(soc: "Soc") -> str:
    """The chip's canonical JSON text, the bytes :func:`soc_digest`
    hashes.  ``"cores"`` sorts first, so the core objects open it."""
    shapes: dict = {}
    cores = ",".join(_core_text(core, shapes) for core in soc.cores)
    rest = canonical_json({
        "version": CANONICAL_VERSION,
        "name": soc.name,
        "test_pins": soc.test_pins,
        "gate_count": soc.gate_count,
        "power_budget": soc.power_budget,
        "memories": [
            {
                "name": m.name,
                "words": m.words,
                "bits": m.bits,
                "type": m.mem_type.value,
                "freq_mhz": m.freq_mhz,
                "power": m.power,
                "redundancy": (
                    None
                    if m.redundancy is None
                    else {
                        "spare_rows": m.redundancy.spare_rows,
                        "spare_cols": m.redundancy.spare_cols,
                    }
                ),
            }
            for m in soc.memories
        ],
    })
    return f'{{"cores":[{cores}],{rest[1:]}'


def canonical_json(doc: dict) -> str:
    """Deterministic JSON bytes for any JSON-native document: sorted
    keys, no whitespace — the serialization every digest is taken over."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest_document(doc: dict) -> str:
    """sha256 hex digest of a JSON-native document's canonical bytes."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def soc_digest(soc: "Soc") -> str:
    """The chip's content address: sha256 over :func:`canonical_text`.

    Stable across processes, platforms and construction paths; any
    core / pin / power / memory mutation yields a different digest.
    """
    return hashlib.sha256(canonical_text(soc).encode("utf-8")).hexdigest()
