"""BIST Sequencer: microcoded March program storage and stepping.

"One or more Sequencers can be used to generate March-based test
algorithms" (paper, Fig. 2).  The sequencer broadcasts (element, op)
phases to the TPGs of the memories in the active group; each TPG sweeps
its own address range and reports done, so heterogeneous sizes share one
sequencer — the group advances when its slowest member finishes.

The gate-level sequencer stores the program as two-level logic: minterm
AND trees and output OR trees, both built by the shared
:func:`repro.netlist.netlist.add_tree`.  BRAINS prices a sequencer from
:func:`sequencer_cells`, the closed-form count of the cells
:func:`make_sequencer` places.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.bist.march import MarchTest, Op, Order
from repro.netlist.netlist import Module, add_tree, tree_cells

#: Microcode encoding: 2 bits per op (00 r0, 01 r1, 10 w0, 11 w1).
OP_CODES = {Op.R0: 0, Op.R1: 1, Op.W0: 2, Op.W1: 3}


@dataclass(frozen=True)
class MicroOp:
    """One sequencer microcode slot."""

    element: int
    op: Op
    order: Order
    pause_before: bool = False
    last_in_element: bool = False


def microcode(march: MarchTest) -> list[MicroOp]:
    """Flatten a March test into sequencer microcode."""
    program: list[MicroOp] = []
    for e_idx, element in enumerate(march.elements):
        for o_idx, op in enumerate(element.ops):
            program.append(
                MicroOp(
                    element=e_idx,
                    op=op,
                    order=element.order,
                    pause_before=element.pause_before and o_idx == 0,
                    last_in_element=o_idx == len(element.ops) - 1,
                )
            )
    return program


def make_sequencer(march: MarchTest, name: str = "sequencer") -> Module:
    """Generate the sequencer netlist.

    Structure: an element counter, an op counter, and a microcode ROM
    synthesized as two-level logic (one minterm AND per program slot per
    asserted output bit).  Outputs: the 2-bit op bus, the direction
    flag, and program-done.
    """
    program = microcode(march)
    n_elements = len(march.elements)
    e_bits = max(1, (n_elements - 1).bit_length())
    max_ops = max(len(e.ops) for e in march.elements)
    o_bits = max(1, (max_ops - 1).bit_length())

    m = Module(name)
    for port in ("clk", "rstn", "step", "group_done"):
        m.add_input(port)
    for port in ("op0", "op1", "dir_down", "seq_done"):
        m.add_output(port)

    # element & op counters (advance on step when the group finishes a sweep)
    for prefix, bits in (("e", e_bits), ("o", o_bits)):
        carry = "group_done" if prefix == "e" else "step"
        for b in range(bits):
            q = f"n_{prefix}{b}"
            m.add_instance(f"u_{prefix}x{b}", "XOR2", A=q, B=carry, Y=f"n_{prefix}next{b}")
            m.add_instance(f"u_{prefix}c{b}", "AND2", A=q, B=carry, Y=f"n_{prefix}carry{b}")
            m.add_instance(f"u_{prefix}f{b}", "DFFR", D=f"n_{prefix}next{b}", CK="clk",
                           RN="rstn", Q=q)
            m.add_instance(f"u_{prefix}i{b}", "INV", A=q, Y=f"n_{prefix}{b}_n")
            carry = f"n_{prefix}carry{b}"

    # microcode ROM: two-level logic over the element counter for the
    # per-element attributes (direction), and over (element, op) for ops.
    def element_minterm(e_idx: int, out: str, tag: str) -> None:
        literals = [
            f"n_e{b}" if (e_idx >> b) & 1 else f"n_e{b}_n" for b in range(e_bits)
        ]
        add_tree(m, literals, out, "AND", f"u_mt_{tag}")

    down_terms = []
    for e_idx, element in enumerate(march.elements):
        if element.order is Order.DOWN:
            net = m.add_net(f"n_down_e{e_idx}")
            element_minterm(e_idx, net, f"d{e_idx}")
            down_terms.append(net)
    add_tree(m, down_terms, "dir_down", "OR", "u_dir")

    # op bits: minterms over (element, op-index)
    for bit, port in ((0, "op0"), (1, "op1")):
        terms = []
        for e_idx, element in enumerate(march.elements):
            for o_idx, op in enumerate(element.ops):
                if (OP_CODES[op] >> bit) & 1:
                    net = m.add_net(f"n_op{bit}_e{e_idx}_o{o_idx}")
                    literals = [
                        f"n_e{b}" if (e_idx >> b) & 1 else f"n_e{b}_n" for b in range(e_bits)
                    ] + [
                        f"n_o{b}" if (o_idx >> b) & 1 else f"n_o{b}_n" for b in range(o_bits)
                    ]
                    add_tree(m, literals, net, "AND", f"u_op{bit}_{e_idx}_{o_idx}")
                    terms.append(net)
        add_tree(m, terms, port, "OR", f"u_opor{bit}")

    # done: element counter reached the final element and it completed
    last = n_elements - 1
    literals = [f"n_e{b}" if (last >> b) & 1 else f"n_e{b}_n" for b in range(e_bits)]
    done_net = m.add_net("n_at_last")
    add_tree(m, literals, done_net, "AND", "u_done")
    m.add_instance("u_done_and", "AND2", A=done_net, B="group_done", Y="seq_done")
    return m


def sequencer_cells(march: MarchTest) -> Counter[str]:
    """The leaf cells :func:`make_sequencer` spends on ``march``, in
    closed form and in placement order: four cells per counter bit, a
    minterm tree per down element and per asserted op bit, their OR
    trees, and the done detector."""
    e_bits = max(1, (len(march.elements) - 1).bit_length())
    o_bits = max(1, (max(len(e.ops) for e in march.elements) - 1).bit_length())
    cells = Counter(dict.fromkeys(("XOR2", "AND2", "DFFR", "INV"), e_bits + o_bits))
    downs = sum(element.order is Order.DOWN for element in march.elements)
    for _ in range(downs):
        cells.update(tree_cells(e_bits, "AND"))
    cells.update(tree_cells(downs, "OR"))
    for bit in (0, 1):
        terms = sum((OP_CODES[op] >> bit) & 1 for e in march.elements for op in e.ops)
        for _ in range(terms):
            cells.update(tree_cells(e_bits + o_bits, "AND"))
        cells.update(tree_cells(terms, "OR"))
    cells.update(tree_cells(e_bits, "AND"))
    cells["AND2"] += 1
    return cells
