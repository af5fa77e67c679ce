"""Wrapper generation ("Wrapper Generator" in paper Fig. 1).

Integration prices a wrapper without gates (:func:`plan_wrapper`,
:func:`wrapper_cells`).  :func:`generate_wrapper` builds the module
around a core: WBC cells on every functional IO bit, wrapper chains per
the balance plan, a WIR, a WBY, and the serial / parallel plumbing.
The core itself is instantiated by reference — a blackbox for real IPs,
or a real module (for simulation-based verification in the tests).

Wrapper ports:

* chip-side functional mirrors of the core's functional IOs (bit-expanded);
* pass-throughs for the core's control/test pins (clock, reset, SE, TE,
  dedicated test signals);
* the IEEE-1500-style serial interface ``wsi, wso, wrck, selectwir,
  shiftwr, capturewr, updatewr``;
* the parallel TAM interface ``wpi0..wpi{w-1}`` / ``wpo0..wpo{w-1}``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netlist import Module, Netlist, cell_area
from repro.soc.core import Core
from repro.soc.ports import SignalKind
from repro.soc.bits import expand_port_bits
from repro.wrapper.balance import WrapperPlan, design_wrapper
from repro.wrapper.cells import WBC_CELLS, WBY_CELLS, make_wbc_cell, make_wby_cell
from repro.wrapper.wir import WIR_CELLS, WrapperInstruction, make_wir

#: The serial-interface inputs every wrapper declares first.
SERIAL_PORTS = ("wsi", "wrck", "selectwir", "shiftwr", "capturewr", "updatewr")
#: Core port kinds that stay inside the wrapper, as nets.
SCAN_IO = (SignalKind.SCAN_IN, SignalKind.SCAN_OUT)
#: Every prefix of a fixed wrapper port name.  ``Core`` refuses repeats
#: among run bits and port names, so a port's bits can repeat only if it
#: is a bus, or its name holds ``[``, is one of these or starts ``wpi``/``wpo``.
RESERVED_PREFIXES = frozenset(name[:end] for name in (*SERIAL_PORTS, "wso", "parallel_sel")
                              for end in range(1, len(name) + 1))


@dataclass
class GeneratedWrapper:
    """A wrapped core: its balance plan and the leaf cells its wrapper
    spends, core excluded.  A planned wrapper's ``module`` is taken, on
    first access, from the DFT netlist ``build_netlist`` generates."""

    plan: WrapperPlan
    cells: Counter[str]
    build_netlist: Optional[Callable[[], Netlist]] = field(default=None, repr=False, compare=False)
    _module: Optional[Module] = field(default=None, repr=False, compare=False)

    @property
    def wbc_count(self) -> int:
        return self.plan.boundary_cells

    @property
    def area(self) -> float:
        """Wrapper area excluding the wrapped core itself."""
        return cell_area(self.cells)

    @property
    def module(self) -> Module:
        if self._module is None and self.build_netlist is not None:
            self._module = self.build_netlist().module(f"{self.plan.core_name}_wrapper")
        return self._module


def wrapper_cells(plan: WrapperPlan) -> Counter[str]:
    """The leaf cells :func:`generate_wrapper` spends on ``plan``, core
    excluded: a WBC per boundary bit, the WIR, the WBY, fixed glue, a MUX2
    and two BUFs per wrapper chain, a scan-in BUF per internal chain."""
    n_chains = len(plan.chains)
    cells = Counter(WIR_CELLS) + Counter(WBY_CELLS)
    for cell, n in WBC_CELLS.items():
        cells[cell] += n * plan.boundary_cells
    scan_in_bufs = sum(len(chain.internal_chains) for chain in plan.chains)
    cells.update({"OR2": 2, "INV": 1, "AND2": 3, "MUX2": 2 + n_chains,
                  "BUF": 1 + 2 * n_chains + scan_in_bufs})
    return +cells


def _check_unique(names: list[str], message: str, module: str) -> None:
    seen: set[str] = set()
    for name in names:  # report the first repeat, as the build would
        if name in seen:
            raise ValueError(message.format(name, module))
        seen.add(name)


def plan_wrapper(core: Core, width: int = 1) -> GeneratedWrapper:
    """Plan ``core``'s wrapper at ``width`` TAM wires without building it,
    raising the :class:`ValueError` :func:`generate_wrapper` would for a
    port bit that repeats or collides with a wrapper port (``wsi``,
    ``wpo0``, …) or a repeated instance name (a hard core's chain name).
    Only bits that can repeat (:data:`RESERVED_PREFIXES`) are named, and
    instances only when a chain name repeats or starts ``wbc``."""
    plan = design_wrapper(core, width)
    module = f"{core.name}_wrapper"
    bits = [bit for p in core.ports if p.kind not in SCAN_IO and (
        p.width > 1 or "[" in p.name or p.name in RESERVED_PREFIXES
        or p.name.startswith(("wpi", "wpo"))) for bit in expand_port_bits(p)]
    _check_unique([*SERIAL_PORTS, "wso", *(f"wp{io}{k}" for k in range(plan.width) for io in "io"),
                   "parallel_sel", *bits], "duplicate port {!r} on module {!r}", module)
    chains = [chain.name for chain in core.scan_chains]
    if not plan.rebalanced and (
            len(set(chains)) < len(chains) or any(c.startswith("wbc") for c in chains)):
        # the instance names a hard core supplies, in build order
        functional = [p for p in core.ports if p.kind is SignalKind.FUNCTIONAL]
        ins = iter([b for p in functional if p.is_input for b in expand_port_bits(p)])
        outs = iter([b for p in functional if not p.is_input for b in expand_port_bits(p)])
        _check_unique([name for chain in plan.chains for name in (
            *(f"u_wbc_{next(ins)}" for _ in range(chain.input_cells)),
            *(f"u_{c}_si" for c in chain.internal_chains),
            *(f"u_wbc_{next(outs)}" for _ in range(chain.output_cells)),
        )], "duplicate instance {!r} in module {!r}", module)
    return GeneratedWrapper(plan, wrapper_cells(plan))


def generate_wrapper(
    core: Core,
    netlist: Netlist,
    width: int = 1,
    plan: WrapperPlan | None = None,
) -> GeneratedWrapper:
    """Generate the wrapper module for ``core`` and add it to ``netlist``.

    Shared cells (``WBC``, ``WBY``, ``WIR``) are added to the netlist once
    and instantiated per use.
    """
    if plan is None:
        plan = design_wrapper(core, width)
    for maker, ref in ((make_wbc_cell, "WBC"), (make_wby_cell, "WBY"), (make_wir, "WIR")):
        if ref not in netlist.modules:
            netlist.add(maker(ref))

    m = Module(f"{core.name}_wrapper")
    # -- ports ---------------------------------------------------------------
    for port in SERIAL_PORTS:
        m.add_input(port)
    m.add_output("wso")
    for k in range(plan.width):
        m.add_input(f"wpi{k}")
        m.add_output(f"wpo{k}")
    m.add_input("parallel_sel")  # INTEST_PARALLEL vs serial chain feed

    core_conns: dict[str, str] = {}
    in_bits: list[str] = []
    out_bits: list[str] = []
    for port in core.ports:
        bits = expand_port_bits(port)
        if port.kind is SignalKind.FUNCTIONAL:
            add, side = (m.add_input, in_bits) if port.is_input else (m.add_output, out_bits)
            side.extend(add(bit) for bit in bits)
        elif port.kind in SCAN_IO:
            # internal scan IO stays inside the wrapper (net per bit)
            for bit in bits:
                m.add_net(f"n_core_{bit}")
        else:
            # control/test pins pass straight through
            for bit in bits:
                m.add_input(bit)
                core_conns[bit] = bit

    # -- WIR -------------------------------------------------------------------
    wir_conns = {p: p for p in ("wsi", "wrck", "selectwir", "shiftwr", "updatewr")}
    wir_conns["wso"] = "n_wir_so"
    for instr in WrapperInstruction:
        wir_conns[f"dec_{instr.name}"] = f"n_dec_{instr.name}"
    m.add_instance("u_wir", "WIR", **wir_conns)

    # mode/safe/shift controls derived from the decoded instruction
    m.add_instance(
        "u_mode_or1", "OR2",
        A=f"n_dec_{WrapperInstruction.INTEST_SCAN.name}",
        B=f"n_dec_{WrapperInstruction.INTEST_PARALLEL.name}",
        Y="n_intest",
    )
    m.add_instance(
        "u_mode_or2", "OR2",
        A="n_intest",
        B=f"n_dec_{WrapperInstruction.EXTEST.name}",
        Y="n_test_mode",
    )
    m.add_instance(
        "u_safe_buf", "BUF", A=f"n_dec_{WrapperInstruction.SAFE.name}", Y="n_safe_en"
    )
    m.add_instance("u_nsel_inv", "INV", A="selectwir", Y="n_sel_wr")
    m.add_instance("u_shift_dr", "AND2", A="shiftwr", B="n_sel_wr", Y="n_shift_dr")
    m.add_instance("u_capture_dr", "AND2", A="capturewr", B="n_sel_wr", Y="n_capture_dr")
    m.add_instance("u_update_dr", "AND2", A="updatewr", B="n_sel_wr", Y="n_update_dr")

    # -- WBY ---------------------------------------------------------------------
    m.add_instance("u_wby", "WBY", wsi="wsi", wrck="wrck", wso="n_wby_so")

    # -- wrapper chains -------------------------------------------------------------
    chain_by_name = {c.name: c for c in core.scan_chains}
    in_iter = iter(in_bits)
    out_iter = iter(out_bits)
    serial_prev = "wsi"
    chain_tails: list[str] = []
    for k, chain in enumerate(plan.chains):
        head = m.add_net(f"n_ch{k}_head")
        m.add_instance(
            f"u_ch{k}_src", "MUX2", D0="n_serial_prev_" + str(k), D1=f"wpi{k}", S="parallel_sel",
            Y=head,
        )
        m.add_instance(f"u_ch{k}_serbuf", "BUF", A=serial_prev, Y=f"n_serial_prev_{k}")
        cursor = head
        # input cells first
        for i in range(chain.input_cells):
            bit = next(in_iter)
            cto = m.add_net(f"n_ch{k}_i{i}_cto")
            m.add_instance(
                f"u_wbc_{bit}", "WBC",
                cfi=bit, cti=cursor, wrck="wrck",
                shift="n_shift_dr", capture="n_capture_dr", update="n_update_dr",
                mode="n_test_mode", safe_en="n_safe_en",
                cfo=f"n_core_{bit}", cto=cto,
            )
            core_conns[bit] = f"n_core_{bit}"
            cursor = cto
        # then the internal chains (through the core)
        if plan.rebalanced:
            # soft core: one synthesized chain per wrapper chain; the
            # re-stitched core exposes si/so per wrapper chain index
            if chain.internal_length > 0:
                si_net = f"n_core_rebal_si{k}"
                so_net = f"n_core_rebal_so{k}"
                m.add_net(si_net)
                m.add_net(so_net)
                m.add_instance(f"u_ch{k}_si", "BUF", A=cursor, Y=si_net)
                core_conns[f"rebal_si{k}"] = si_net
                core_conns[f"rebal_so{k}"] = so_net
                cursor = so_net
        else:
            for name in chain.internal_chains:
                ichain = chain_by_name[name]
                # a chain whose scan-out shares a functional output pin
                # simply taps the same core net the output WBC taps
                si_net = m.add_net(f"n_core_{ichain.scan_in}_drv")
                so_net = m.add_net(f"n_core_{ichain.scan_out}")
                m.add_instance(f"u_{name}_si", "BUF", A=cursor, Y=si_net)
                core_conns[ichain.scan_in] = si_net
                core_conns[ichain.scan_out] = so_net
                cursor = so_net
        # output cells last
        for i in range(chain.output_cells):
            bit = next(out_iter)
            cto = m.add_net(f"n_ch{k}_o{i}_cto")
            m.add_instance(
                f"u_wbc_{bit}", "WBC",
                cfi=f"n_core_{bit}", cti=cursor, wrck="wrck",
                shift="n_shift_dr", capture="n_capture_dr", update="n_update_dr",
                mode="n_test_mode", safe_en="n_safe_en",
                cfo=bit, cto=cto,
            )
            core_conns[bit] = f"n_core_{bit}"
            cursor = cto
        m.add_instance(f"u_ch{k}_wpo", "BUF", A=cursor, Y=f"wpo{k}")
        chain_tails.append(cursor)
        serial_prev = cursor

    # -- WSO selection: WIR when selectwir, else bypass vs chain tail -----------
    last_tail = chain_tails[-1] if chain_tails else "n_wby_so"
    m.add_instance(
        "u_wso_mux1", "MUX2",
        D0=last_tail, D1="n_wby_so", S=f"n_dec_{WrapperInstruction.BYPASS.name}",
        Y="n_wso_dr",
    )
    m.add_instance("u_wso_mux2", "MUX2", D0="n_wso_dr", D1="n_wir_so", S="selectwir", Y="wso")

    # -- the core itself -----------------------------------------------------------
    # functional outputs come straight from the core (output WBCs tap them)
    for bit in out_bits:
        core_conns.setdefault(bit, f"n_core_{bit}")
    for bit in in_bits:
        core_conns.setdefault(bit, f"n_core_{bit}")
    # shared scan-out chains: the core drives the shared functional net,
    # already mapped above via core_conns[chain.scan_out]
    m.add_instance("u_core", core.name, **core_conns)

    netlist.add(m)
    return GeneratedWrapper(plan, wrapper_cells(plan), _module=m)
