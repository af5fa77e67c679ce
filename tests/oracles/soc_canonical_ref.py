"""Reference: the canonical SOC dict, one JSON object per port bit.

:func:`repro.soc.digest.canonical_text` writes the ``v1`` canonical
bytes directly: each port shape's entry is rendered once per chip and
only the names are spliced in.  The dict builder it replaced is kept
verbatim here; ``canonical_json(canonical_soc(soc))`` is the byte
stream ``canonical_text(soc)`` must equal, which
``tests/test_soc_canonical_race.py`` checks chip by chip.  Do not
optimize it; its value is being the unoptimized baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.soc.bits import expand_port_bits
from repro.soc.digest import CANONICAL_VERSION

if TYPE_CHECKING:  # pragma: no cover
    from repro.soc.core import Core
    from repro.soc.memory import MemorySpec
    from repro.soc.soc import Soc


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
