"""Gate-level Test Controller generation ("TACS Generator", Fig. 1).

The paper measures its DSC controller at "about 371 gates"; experiment
E4 compares our area against that.  Integration prices the controller
from :func:`controller_cells`, the closed-form count of the cells
:func:`make_test_controller` places.  Structure:

* a 2-bit state FSM (IDLE / CONFIG / RUN, DONE),
* a session counter sized for the schedule,
* per-session one-hot decode,
* per-core test-enable outputs (OR of the sessions the core is active
  in, gated by RUN) — this is what lets TE signals come off chip pins,
* wrapper serial-control broadcast (``selectwir`` during CONFIG, shift /
  capture / update passthroughs), and
* the TAM session-select output feeding :mod:`repro.tam.mux`.
"""

from __future__ import annotations

from collections import Counter

from repro.netlist.netlist import Module, add_tree, tree_cells
from repro.sched.result import ScheduleResult


def _shape(result: ScheduleResult) -> tuple[int, int, dict[str, set[int]]]:
    """(sessions, counter bits, core → the sessions it is tested in)."""
    n_sessions = max(1, len(result.sessions))
    active: dict[str, set[int]] = {}
    for session in result.sessions:
        for test in session.tests:
            active.setdefault(test.task.core_name, set()).add(session.index)
    return n_sessions, max(1, (n_sessions - 1).bit_length()), active


def controller_cells(result: ScheduleResult) -> Counter[str]:
    """The leaf cells :func:`make_test_controller` spends on ``result``,
    in closed form: fixed FSM and broadcast glue, five cells per counter
    bit, 1 + n decode trees, and per core an AND2 per session + OR tree."""
    n_sessions, s_bits, active = _shape(result)
    cells = Counter({"INV": 5, "AND2": 11, "OR3": 4, "TIE0": 1, "DFFR": 2, "BUF": 5})
    cells.update(dict.fromkeys(("XOR2", "AND2", "DFFR", "INV", "BUF"), s_bits))
    for _ in range(n_sessions + 1):
        cells.update(tree_cells(s_bits, "AND"))
    for sessions in active.values():
        cells["AND2"] += len(sessions)
        cells.update(tree_cells(len(sessions), "OR"))
    return cells


def make_test_controller(result: ScheduleResult, name: str = "test_controller") -> Module:
    """Generate the controller netlist for a session schedule."""
    n_sessions, s_bits, active = _shape(result)
    cores = sorted(active)

    m = Module(name)
    for port in ("tck", "trstn", "start", "next_session", "config_done"):
        m.add_input(port)
    for port in ("selectwir", "shift_bcast", "capture_bcast", "update_bcast", "done"):
        m.add_output(port)
    m.add_input("shiftwr")
    m.add_input("capturewr")
    m.add_input("updatewr")
    for core in cores:
        m.add_output(f"te_{core}")
    for b in range(s_bits):
        m.add_output(f"session_sel{b}")

    # --- state FSM: s1 s0 = 00 idle, 01 config, 10 run, 11 done ------------
    m.add_instance("u_s0_inv", "INV", A="n_s0", Y="n_s0_n")
    m.add_instance("u_s1_inv", "INV", A="n_s1", Y="n_s1_n")
    m.add_instance("u_idle", "AND2", A="n_s1_n", B="n_s0_n", Y="n_idle")
    m.add_instance("u_cfg", "AND2", A="n_s1_n", B="n_s0", Y="n_config")
    m.add_instance("u_run", "AND2", A="n_s1", B="n_s0_n", Y="n_run")
    m.add_instance("u_done_st", "AND2", A="n_s1", B="n_s0", Y="n_done_st")
    # at-last-session detect
    last = n_sessions - 1
    last_literals = [
        f"n_c{b}" if (last >> b) & 1 else f"n_c{b}_n" for b in range(s_bits)
    ]
    add_tree(m, last_literals, "n_at_last", "AND", "u_last")
    # transitions
    m.add_instance("u_t_start", "AND2", A="n_idle", B="start", Y="n_go")
    m.add_instance("u_t_cfg", "AND2", A="n_config", B="config_done", Y="n_to_run")
    m.add_instance("u_t_next", "AND2", A="n_run", B="next_session", Y="n_adv")
    m.add_instance("u_t_fin", "AND2", A="n_adv", B="n_at_last", Y="n_finish")
    m.add_instance("u_fin_inv", "INV", A="n_at_last", Y="n_not_last")
    m.add_instance("u_t_more", "AND2", A="n_adv", B="n_not_last", Y="n_to_cfg")
    # next-state logic: s0' = go | to_cfg | (config & !config_done) | done&s0
    m.add_instance("u_hold_cfg", "INV", A="config_done", Y="n_cfgd_n")
    m.add_instance("u_s0_h", "AND2", A="n_config", B="n_cfgd_n", Y="n_s0_hold")
    m.add_instance("u_s0_o1", "OR3", A="n_go", B="n_to_cfg", C="n_s0_hold", Y="n_s0_p")
    m.add_instance("u_s0_o2", "OR3", A="n_s0_p", B="n_finish", C="n_done_st", Y="n_s0_d")
    # s1' = to_run | (run & !adv) | finish | done
    m.add_instance("u_adv_inv", "INV", A="n_adv", Y="n_adv_n")
    m.add_instance("u_s1_h", "AND2", A="n_run", B="n_adv_n", Y="n_s1_hold")
    m.add_instance("u_s1_o1", "OR3", A="n_to_run", B="n_s1_hold", C="n_finish", Y="n_s1_p")
    m.add_instance("u_s1_o2", "OR3", A="n_s1_p", B="n_done_st", C="n_to_cfg_z", Y="n_s1_d")
    m.add_instance("u_z_tie", "TIE0", Y="n_to_cfg_z")
    m.add_instance("u_s0_ff", "DFFR", D="n_s0_d", CK="tck", RN="trstn", Q="n_s0")
    m.add_instance("u_s1_ff", "DFFR", D="n_s1_d", CK="tck", RN="trstn", Q="n_s1")
    m.add_instance("u_done_buf", "BUF", A="n_done_st", Y="done")

    # --- session counter ------------------------------------------------------
    carry = "n_to_cfg"
    for b in range(s_bits):
        q = f"n_c{b}"
        m.add_instance(f"u_cx{b}", "XOR2", A=q, B=carry, Y=f"n_cn{b}")
        m.add_instance(f"u_cc{b}", "AND2", A=q, B=carry, Y=f"n_cy{b}")
        m.add_instance(f"u_cf{b}", "DFFR", D=f"n_cn{b}", CK="tck", RN="trstn", Q=q)
        m.add_instance(f"u_ci{b}", "INV", A=q, Y=f"n_c{b}_n")
        m.add_instance(f"u_co{b}", "BUF", A=q, Y=f"session_sel{b}")
        carry = f"n_cy{b}"

    # --- per-session decode -------------------------------------------------------
    for s in range(n_sessions):
        literals = [f"n_c{b}" if (s >> b) & 1 else f"n_c{b}_n" for b in range(s_bits)]
        add_tree(m, literals, m.add_net(f"n_ses{s}"), "AND", f"u_sd{s}")

    # --- per-core TE: OR of (session decode & run) over active sessions ---------
    for core in cores:
        terms = []
        for s in sorted(active[core]):
            net = m.add_net(f"n_te_{core}_{s}")
            m.add_instance(f"u_te_{core}_{s}", "AND2", A=f"n_ses{s}", B="n_run", Y=net)
            terms.append(net)
        add_tree(m, terms, f"te_{core}", "OR", f"u_teor_{core}")

    # --- wrapper serial control broadcast -----------------------------------------
    m.add_instance("u_selw", "BUF", A="n_config", Y="selectwir")
    m.add_instance("u_shb", "BUF", A="shiftwr", Y="shift_bcast")
    m.add_instance("u_cpb", "BUF", A="capturewr", Y="capture_bcast")
    m.add_instance("u_upb", "BUF", A="updatewr", Y="update_bcast")
    return m
