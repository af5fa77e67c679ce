"""Wrapper Instruction Register (WIR) model and gate-level generator.

The WIR selects the wrapper's operating mode.  We implement the IEEE
1500-style instruction set STEAC needs: functional bypass, serial and
parallel internal test, external test, core bypass, and safe isolation.
"""

from __future__ import annotations

import enum
import math

from repro.netlist import Module, cell_area
from repro.netlist.netlist import add_tree


class WrapperInstruction(enum.Enum):
    """Wrapper operating modes, in encoding order (value = opcode)."""

    FUNCTIONAL = 0     # wrapper transparent, core in mission mode
    BYPASS = 1         # WSI -> WBY -> WSO, core untouched
    INTEST_SCAN = 2    # internal test, wrapper chains fed serially (WSI)
    INTEST_PARALLEL = 3  # internal test, wrapper chains fed from the TAM
    EXTEST = 4         # interconnect test: drive outputs, capture inputs
    SAFE = 5           # safe values held on outputs while others test

    @property
    def opcode(self) -> int:
        return self.value


#: Number of WIR register bits needed for the full instruction set.
WIR_BITS = max(1, math.ceil(math.log2(len(WrapperInstruction))))


def encode(instruction: WrapperInstruction, bits: int = WIR_BITS) -> list[int]:
    """Opcode as a bit list, LSB first (shift order: LSB enters last)."""
    return [(instruction.opcode >> i) & 1 for i in range(bits)]


def make_wir(name: str = "WIR", bits: int = WIR_BITS) -> Module:
    """Generate the WIR: shift stage, update stage, and full decode.

    Ports: ``wsi, wrck, selectwir, shiftwr, updatewr`` in, ``wso`` and one
    decoded line ``dec_<instruction>`` per instruction out.  The shift
    stage advances only when ``selectwir & shiftwr``; the update stage is
    transparent during ``selectwir & updatewr``.
    """
    m = Module(name)
    for port in ("wsi", "wrck", "selectwir", "shiftwr", "updatewr"):
        m.add_input(port)
    m.add_output("wso")
    for instr in WrapperInstruction:
        m.add_output(f"dec_{instr.name}")

    m.add_instance("u_shift_en", "AND2", A="selectwir", B="shiftwr", Y="n_shift_en")
    m.add_instance("u_update_en", "AND2", A="selectwir", B="updatewr", Y="n_update_en")

    prev = "wsi"
    for b in range(bits):
        m.add_instance(f"u_sr{b}", "DFFE", D=prev, CK="wrck", E="n_shift_en", Q=f"n_sr{b}")
        m.add_instance(f"u_upd{b}", "DLATCH", D=f"n_sr{b}", G="n_update_en", Q=f"n_ir{b}")
        m.add_instance(f"u_inv{b}", "INV", A=f"n_ir{b}", Y=f"n_irn{b}")
        prev = f"n_sr{b}"
    m.add_instance("u_wso_buf", "BUF", A=prev, Y="wso")

    for instr in WrapperInstruction:
        literals = [
            f"n_ir{b}" if (instr.opcode >> b) & 1 else f"n_irn{b}" for b in range(bits)
        ]
        add_tree(m, literals, f"dec_{instr.name}", "AND", f"u_dec_{instr.name}")
    return m


def wir_shift_sequence(instruction: WrapperInstruction) -> list[int]:
    """Bits to shift into WSI to load ``instruction`` (first bit shifted
    first; the opcode MSB must be shifted first so it lands deepest)."""
    return list(reversed(encode(instruction)))


#: Leaf cells of the default WIR.
WIR_CELLS = make_wir().cell_counts()

#: Area of the default WIR in NAND2 equivalents.
WIR_AREA = cell_area(WIR_CELLS)
