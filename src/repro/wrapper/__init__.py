"""IEEE-1500-style core test wrappers.

Implements the paper's "Wrapper Generator": wrapper boundary cells (the
26-gate WBR cell of Section 3), wrapper-chain balancing for an assigned
TAM width, the WIR instruction set, closed-form wrapper pricing, and
full gate-level generation.
"""

from repro.wrapper.balance import (
    WrapperChain,
    WrapperPlan,
    design_wrapper,
    partition_greedy,
    partition_optimal,
)
from repro.wrapper.cells import (
    WBC_AREA,
    WBC_LIGHT_AREA,
    WBY_AREA,
    make_wbc_cell,
    make_wbc_light_cell,
    make_wby_cell,
)
from repro.wrapper.generator import GeneratedWrapper, generate_wrapper, plan_wrapper, wrapper_cells
from repro.wrapper.wir import (WIR_AREA, WIR_BITS, WrapperInstruction, encode, make_wir,
                               wir_shift_sequence)

__all__ = [
    "WrapperChain",
    "WrapperPlan",
    "design_wrapper",
    "partition_greedy",
    "partition_optimal",
    "WBC_AREA",
    "WBC_LIGHT_AREA",
    "WBY_AREA",
    "make_wbc_cell",
    "make_wbc_light_cell",
    "make_wby_cell",
    "GeneratedWrapper",
    "generate_wrapper",
    "plan_wrapper",
    "wrapper_cells",
    "WIR_AREA",
    "WIR_BITS",
    "WrapperInstruction",
    "encode",
    "make_wir",
    "wir_shift_sequence",
]
