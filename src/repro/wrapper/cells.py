"""Wrapper boundary cell (WBC) generators.

The paper reports "the area of the WBR cell is equivalent to 26 two-input
NAND gates".  We build the cell from library gates and let the area fall
out of the structure; the default safe capture/update cell lands on
exactly 26.0 NAND2 equivalents (checked by tests).

Cell structure (IEEE-1500-style ``WC_SD1_CU`` with safe mode)::

    shift mux   : CTI vs CFI            (MUX2)
    or gate     : shift|capture         (OR2)
    shift FF    : WBR shift stage       (DFFE, clock WRCK,
                                         enabled on shift|capture)
    update latch: shadow/update stage   (DLATCH, gate = update & mode)
    guard gate  : update gating         (AND2)
    mode mux    : functional vs test    (MUX2)
    safe mux    : safe value insertion  (MUX2 + TIE0)
    out buffer  : CFO driver            (BUF)

Ports: ``cfi`` (functional in), ``cto``/``cti`` (serial test path),
``cfo`` (functional out), controls ``wrck, shift, capture, update, mode,
safe_en``.
"""

from __future__ import annotations

from repro.netlist import Module, cell_area


def make_wbc_cell(name: str = "WBC") -> Module:
    """Build the full capture/update/safe wrapper boundary cell."""
    m = Module(name)
    for port in ("cfi", "cti", "wrck", "shift", "capture", "update", "mode", "safe_en"):
        m.add_input(port)
    m.add_output("cfo")
    m.add_output("cto")
    # serial path: shift mux selects CTI when shifting, CFI when capturing;
    # the enable FF holds its state when neither shifting nor capturing
    m.add_instance("u_shift_mux", "MUX2", D0="cfi", D1="cti", S="shift", Y="n_load")
    m.add_instance("u_sc_or", "OR2", A="shift", B="capture", Y="n_sc")
    m.add_instance("u_ff", "DFFE", D="n_load", CK="wrck", E="n_sc", Q="n_ff_q")
    m.add_instance("u_cto_buf", "BUF", A="n_ff_q", Y="cto")
    # update stage: shadow latch, gated so it only opens in test mode
    m.add_instance("u_upd_and", "AND2", A="update", B="mode", Y="n_upd")
    m.add_instance("u_latch", "DLATCH", D="n_ff_q", G="n_upd", Q="n_upd_q")
    # output path: functional bypass vs test value, then safe insertion
    m.add_instance("u_mode_mux", "MUX2", D0="cfi", D1="n_upd_q", S="mode", Y="n_mode")
    m.add_instance("u_safe_tie", "TIE0", Y="n_safe_val")
    m.add_instance("u_safe_mux", "MUX2", D0="n_mode", D1="n_safe_val", S="safe_en", Y="n_out")
    m.add_instance("u_out_buf", "BUF", A="n_out", Y="cfo")
    return m


def make_wbc_light_cell(name: str = "WBC_LIGHT") -> Module:
    """A minimal shift-only boundary cell (no update stage, no safe mode).

    Used for ablation studies: trades ripple during shift for ~40% less
    area.  Structure: shift mux + hold mux + OR + FF + mode mux + buffer.
    """
    m = Module(name)
    for port in ("cfi", "cti", "wrck", "shift", "capture", "mode"):
        m.add_input(port)
    m.add_output("cfo")
    m.add_output("cto")
    m.add_instance("u_shift_mux", "MUX2", D0="cfi", D1="cti", S="shift", Y="n_load")
    m.add_instance("u_sc_or", "OR2", A="shift", B="capture", Y="n_sc")
    m.add_instance("u_hold_mux", "MUX2", D0="n_ff_q", D1="n_load", S="n_sc", Y="n_d")
    m.add_instance("u_ff", "DFF", D="n_d", CK="wrck", Q="n_ff_q")
    m.add_instance("u_cto_buf", "BUF", A="n_ff_q", Y="cto")
    m.add_instance("u_mode_mux", "MUX2", D0="cfi", D1="n_ff_q", S="mode", Y="n_out")
    m.add_instance("u_out_buf", "BUF", A="n_out", Y="cfo")
    return m


def make_wby_cell(name: str = "WBY") -> Module:
    """The 1-bit wrapper bypass register (WSI → FF → WSO)."""
    m = Module(name)
    m.add_input("wsi")
    m.add_input("wrck")
    m.add_output("wso")
    m.add_instance("u_ff", "DFF", D="wsi", CK="wrck", Q="wso")
    return m


#: Leaf cells of the full WBC and of the bypass register.
WBC_CELLS = make_wbc_cell().cell_counts()
WBY_CELLS = make_wby_cell().cell_counts()

#: Area of the full WBC in NAND2 equivalents (the paper's "26 gates").
WBC_AREA = cell_area(WBC_CELLS)

#: Area of the light ablation cell.
WBC_LIGHT_AREA = make_wbc_light_cell().area()

#: Area of the bypass register.
WBY_AREA = cell_area(WBY_CELLS)
