"""BISR hardware area model: fuse registers and address comparators.

Built-in self-repair logic sits between the address decoder and the
array: one fuse register per spare line holds the failing address (plus
a valid bit), and an equality comparator per spare steers matching
accesses onto the spare line.  The model below counts that hardware in
NAND2-equivalent gates, consistent with the rest of the platform's area
accounting (:mod:`repro.netlist.area`), so repair overhead lands in the
same DFT-area report as the test controller and TAM multiplexer.
"""

from __future__ import annotations

from repro.soc.memory import MemorySpec, RedundancySpec

#: Spares assumed when a memory spec carries no redundancy of its own
#: (2 spare rows + 2 spare columns is a common commodity-SRAM choice).
DEFAULT_REDUNDANCY = RedundancySpec(spare_rows=2, spare_cols=2)

#: NAND2 equivalents per fuse-register bit (fuse latch + shift plumbing).
GATES_PER_FUSE_BIT = 6.0
#: NAND2 equivalents per comparator bit (XNOR into the match AND-tree).
GATES_PER_COMPARE_BIT = 3.5
#: Fixed steering/valid logic per spare line (mux legs, enable).
GATES_PER_SPARE_LINE = 12.0


def diagnosis_geometry(spec: MemorySpec, model_rows: int = 64) -> tuple[int, int]:
    """The ``(rows, cols)`` the behavioral model uses for ``spec``.

    Arrays are modelled at ``min(words, model_rows)`` word lines to keep
    March simulation fast — the same down-scaling the BIST engine's
    behavioral runs use — with the true word width as the column count.
    """
    return min(spec.words, model_rows), spec.bits


def row_address_bits(spec: MemorySpec) -> int:
    """Address bits a spare-row fuse register must store."""
    return spec.address_bits


def col_address_bits(spec: MemorySpec) -> int:
    """Address bits a spare-column fuse register must store."""
    return max(1, (spec.bits - 1).bit_length())


def bisr_gates(spec: MemorySpec, redundancy: RedundancySpec | None = None) -> float:
    """BISR hardware for one memory, in NAND2 equivalents.

    Per spare line: a fuse register of (address bits + 1 valid bit), an
    equality comparator over the address bits, and fixed steering logic.
    A memory without spares needs no BISR hardware at all.
    """
    red = redundancy if redundancy is not None else spec.redundancy
    if red is None or not red.has_spares:
        return 0.0
    total = 0.0
    for count, addr_bits in (
        (red.spare_rows, row_address_bits(spec)),
        (red.spare_cols, col_address_bits(spec)),
    ):
        per_line = (
            GATES_PER_FUSE_BIT * (addr_bits + 1)
            + GATES_PER_COMPARE_BIT * addr_bits
            + GATES_PER_SPARE_LINE
        )
        total += count * per_line
    return total

