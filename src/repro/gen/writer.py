"""ITC'02 ``.soc`` writer for generated (and hand-built) SOCs.

The inverse of :func:`repro.soc.itc02.module_to_core`: a :class:`Soc`
whose cores follow the ITC'02 port convention (functional ``pi``/``po``/
``pb`` pins, one clock, reset + SE when scanned) renders to the ``.soc``
exchange format and **round-trips through the existing parser with
equality** — the property the fuzz harness checks on every generated
chip, and the acceptance gate for this subsystem::

    parse_soc(soc_to_text(soc)) == (soc.name, soc_to_modules(soc))

Information the exchange format cannot carry (memories, power budgets,
hard/soft core types, secondary tests) is deliberately dropped — the
round-trip invariant is at the module level, exactly what the format
defines.
"""

from __future__ import annotations

from repro.soc.core import Core
from repro.soc.itc02 import Itc02Module, modules_to_text, parse_soc
from repro.soc.ports import bit_tally
from repro.soc.soc import Soc


def core_to_module(core: Core) -> Itc02Module:
    """Project a core onto its ITC'02 module record.

    Functional IO counts are bit counts (a 4-bit bus or a run of 4 counts
    4, as pads do); the pattern count is the core's total scan patterns when
    it has scan chains, else its total functional patterns — matching
    the single-test convention of :func:`~repro.soc.itc02.module_to_core`.
    """
    inputs, outputs, bidirs = bit_tally(core.ports)
    patterns = core.scan_patterns if core.scan_chains else core.functional_patterns
    return Itc02Module(
        name=core.name,
        inputs=inputs,
        outputs=outputs,
        bidirs=bidirs,
        scan_chain_lengths=tuple(core.chain_lengths),
        patterns=patterns,
    )


def soc_to_modules(soc: Soc) -> list[Itc02Module]:
    """Every core of ``soc`` as an ITC'02 module record, in core order."""
    return [core_to_module(core) for core in soc.cores]


def soc_to_text(soc: Soc) -> str:
    """Render ``soc`` in the ``.soc`` exchange format."""
    return modules_to_text(soc.name, soc_to_modules(soc))


def roundtrip_errors(soc: Soc) -> list[str]:
    """Check the writer → parser round trip, returning human-readable
    mismatch descriptions (empty = clean, the invariant holds)."""
    expected = soc_to_modules(soc)
    name, parsed = parse_soc(soc_to_text(soc))
    errors: list[str] = []
    if name != soc.name:
        errors.append(f"SocName {name!r} != {soc.name!r}")
    if len(parsed) != len(expected):
        errors.append(f"module count {len(parsed)} != {len(expected)}")
        return errors
    for want, got in zip(expected, parsed):
        if want != got:
            errors.append(f"module {want.name!r}: {got} != {want}")
    return errors
