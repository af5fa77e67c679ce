"""TAM multiplexer generation.

Steers the chip's TAM-out pins among the wrappers' parallel outputs
according to the active session ("the TAM multiplexer requires about 132
gates" — paper Section 3).  Integration prices it from
:func:`tam_mux_cells`, the closed-form count of the cells
:func:`make_tam_mux` places.

Input side needs no gates: TAM-in pins fan out to all wrappers' ``wpi``
ports, and inactive wrappers simply ignore them (their WIR holds
FUNCTIONAL/BYPASS).  Output side: per TAM-out wire, a session-decoded
one-hot OR-AND network selects the active wrapper's ``wpo``.
"""

from __future__ import annotations

from collections import Counter

from repro.netlist.netlist import Module, add_tree, tree_cells
from repro.tam.bus import TamBus


def make_tam_mux(bus: TamBus, name: str = "tam_mux") -> Module:
    """Generate the TAM output multiplexer for a bus assignment.

    Ports: session-select bits ``sel0..``, one data input per (slot,
    wire) — named ``{task}_wpo{i}`` with the task name sanitized — and
    ``tam_out0..`` outputs.
    """
    m = Module(name)
    n_sessions = max(1, bus.sessions)
    sel_bits = max(1, (n_sessions - 1).bit_length())
    for b in range(sel_bits):
        m.add_input(f"sel{b}")
        m.add_instance(f"u_seli{b}", "INV", A=f"sel{b}", Y=f"n_sel{b}_n")
    for w in range(bus.width):
        m.add_output(f"tam_out{w}")

    session_nets: dict[int, str] = {}
    for slot in bus.slots:
        if slot.session not in session_nets:
            net = session_nets[slot.session] = m.add_net(f"n_ses{slot.session}")
            literals = [f"sel{b}" if (slot.session >> b) & 1 else f"n_sel{b}_n"
                        for b in range(sel_bits)]
            add_tree(m, literals, net, "AND", f"u_ses{slot.session}")

    sources = bus.wire_sources()
    data_inputs: set[str] = set()
    for w in range(bus.width):
        terms = []
        for slot in sources[w]:
            local = slot.wires.index(w)
            pin = f"{slot.task_name}_wpo{local}".replace(".", "_")
            if pin not in data_inputs:
                data_inputs.add(m.add_input(pin))
            net = m.add_net(f"n_w{w}_s{slot.session}")
            m.add_instance(
                f"u_g_w{w}_s{slot.session}", "AND2",
                A=pin, B=session_nets[slot.session], Y=net,
            )
            terms.append(net)
        if terms:
            add_tree(m, terms, f"tam_out{w}", "OR", f"u_or_w{w}")
        else:
            m.add_instance(f"u_tie_w{w}", "TIE0", Y=f"tam_out{w}")
    return m


def tam_mux_cells(bus: TamBus) -> Counter[str]:
    """The leaf cells :func:`make_tam_mux` spends on ``bus``, in closed
    form: select inverters, a minterm tree per session with a slot, and
    per TAM-out wire an AND2 per source plus their OR tree (or a TIE0)."""
    sel_bits = max(1, (max(1, bus.sessions) - 1).bit_length())
    cells = Counter({"INV": sel_bits})
    for _ in range(len({slot.session for slot in bus.slots})):
        cells.update(tree_cells(sel_bits, "AND"))
    for slots in bus.wire_sources().values():
        cells["AND2"] += len(slots)
        cells.update(tree_cells(len(slots), "OR"))
    return +cells
