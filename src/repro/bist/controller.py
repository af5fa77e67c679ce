"""Shared BIST controller ("the tester can access all the on-chip
memories via a single shared BIST Controller", paper Fig. 2).

Interface pins follow Fig. 2's naming: ``MBS`` (BIST start), ``MBR``
(BIST ready/done), ``MSI``/``MSO`` (serial command in / response out),
``MBO`` (pass/fail summary), ``MRD`` (result read strobe), ``MBC``
(BIST clock).  Internally: a run FSM, a group counter that walks the
BIST plan's groups, a per-memory result register, and a serial readout
path.  BRAINS prices the controller from :func:`bist_controller_cells`,
the closed-form count of the cells :func:`make_bist_controller` places.
"""

from __future__ import annotations

from collections import Counter

from repro.netlist.netlist import Module, add_tree, tree_cells


def make_bist_controller(
    n_memories: int, n_groups: int, name: str = "bist_controller"
) -> Module:
    """Generate the shared controller netlist."""
    if n_memories < 1 or n_groups < 1:
        raise ValueError("controller needs at least one memory and one group")
    g_bits = max(1, (n_groups - 1).bit_length())
    m = Module(name)
    for port in ("mbc", "rstn", "mbs", "msi", "mrd", "seq_done"):
        m.add_input(port)
    for i in range(n_memories):
        m.add_input(f"err{i}")
    for port in ("mbr", "mbo", "mso"):
        m.add_output(port)
    for g in range(n_groups):
        m.add_output(f"group_en{g}")

    # run FSM: state0 = running, state1 = done (idle = both low)
    m.add_instance("u_idle_n0", "NOR2", A="n_run", B="n_done", Y="n_idle")
    m.add_instance("u_start", "AND2", A="mbs", B="n_idle", Y="n_go")
    m.add_instance("u_last_grp", "AND2", A="n_at_last_group", B="seq_done", Y="n_finish")
    m.add_instance("u_fin_n", "INV", A="n_finish", Y="n_finish_n")
    m.add_instance("u_run_hold", "AND2", A="n_run", B="n_finish_n", Y="n_run_hold")
    m.add_instance("u_run_d", "OR2", A="n_go", B="n_run_hold", Y="n_run_next")
    m.add_instance("u_run_ff", "DFFR", D="n_run_next", CK="mbc", RN="rstn", Q="n_run")
    m.add_instance("u_done_hold", "OR2", A="n_done", B="n_finish", Y="n_done_next")
    m.add_instance("u_done_ff", "DFFR", D="n_done_next", CK="mbc", RN="rstn", Q="n_done")
    m.add_instance("u_mbr_buf", "BUF", A="n_done", Y="mbr")

    # group counter: advances when the sequencer finishes a group's program
    m.add_instance("u_adv", "AND2", A="n_run", B="seq_done", Y="n_adv")
    carry = "n_adv"
    for b in range(g_bits):
        q = f"n_g{b}"
        m.add_instance(f"u_gx{b}", "XOR2", A=q, B=carry, Y=f"n_gnext{b}")
        m.add_instance(f"u_gc{b}", "AND2", A=q, B=carry, Y=f"n_gcarry{b}")
        m.add_instance(f"u_gf{b}", "DFFR", D=f"n_gnext{b}", CK="mbc", RN="rstn", Q=q)
        m.add_instance(f"u_gi{b}", "INV", A=q, Y=f"n_g{b}_n")
        carry = f"n_gcarry{b}"

    # group decode (one-hot enables, gated by run)
    for g in range(n_groups):
        literals = [f"n_g{b}" if (g >> b) & 1 else f"n_g{b}_n" for b in range(g_bits)]
        net = m.add_net(f"n_gdec{g}")
        add_tree(m, literals, net, "AND", f"u_gd{g}")
        m.add_instance(f"u_gen{g}", "AND2", A=net, B="n_run", Y=f"group_en{g}")
    last = n_groups - 1
    literals = [f"n_g{b}" if (last >> b) & 1 else f"n_g{b}_n" for b in range(g_bits)]
    add_tree(m, literals, "n_at_last_group", "AND", "u_lastg")

    # result register: accumulate (sticky) error flags while running;
    # serial readout shifts the register toward MSO when MRD is high
    prev = "msi"
    fail_terms = []
    for i in range(n_memories):
        cap = f"n_cap{i}"
        m.add_instance(f"u_racc{i}", "OR2", A=f"err{i}", B=f"n_res{i}", Y=f"n_acc{i}")
        m.add_instance(f"u_rmux{i}", "MUX2", D0=f"n_acc{i}", D1=prev, S="mrd", Y=cap)
        m.add_instance(f"u_ren{i}", "OR2", A="n_run", B="mrd", Y=f"n_ren{i}")
        m.add_instance(f"u_rff{i}", "DFFE", D=cap, CK="mbc", E=f"n_ren{i}", Q=f"n_res{i}")
        prev = f"n_res{i}"
        fail_terms.append(f"n_res{i}")
    m.add_instance("u_mso_buf", "BUF", A=prev, Y="mso")
    fail_any = m.add_net("n_fail_any")
    add_tree(m, fail_terms, fail_any, "OR", "u_fail")
    m.add_instance("u_mbo_inv", "INV", A=fail_any, Y="mbo")  # 1 = all pass
    return m


def bist_controller_cells(n_memories: int, n_groups: int) -> Counter[str]:
    """The leaf cells :func:`make_bist_controller` spends, in closed form
    and in placement order: fixed run-FSM glue, four cells per group
    counter bit, a decode tree and an AND2 per group plus the last-group
    tree, four cells per memory and the fail OR tree."""
    if n_memories < 1 or n_groups < 1:
        raise ValueError("controller needs at least one memory and one group")
    g_bits = max(1, (n_groups - 1).bit_length())
    cells = Counter({"NOR2": 1, "AND2": 4 + n_groups, "INV": 2, "OR2": 2, "DFFR": 2, "BUF": 2})
    cells.update(dict.fromkeys(("XOR2", "AND2", "DFFR", "INV"), g_bits))
    for _ in range(n_groups + 1):
        cells.update(tree_cells(g_bits, "AND"))
    cells.update({"OR2": 2 * n_memories, "MUX2": n_memories, "DFFE": n_memories})
    cells.update(tree_cells(n_memories, "OR"))
    return cells
