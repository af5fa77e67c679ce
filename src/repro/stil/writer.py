"""STIL writer: render a :class:`repro.soc.Core` (plus optional concrete
patterns) as a STIL file.

This is the format STEAC consumes — in the paper it is produced by
commercial ATPG tools; here it is produced by :mod:`repro.atpg` or by
this writer directly.  Core attributes STIL cannot express natively are
carried in standard ``Ann {* ... *}`` annotations:

* ``Header``: ``Ann {* core=<name> type=<hard|soft|legacy> gates=<n> *}``
* per-signal: ``Ann {* kind=<clock|reset|test_enable|scan_enable|test>
  [domain=<d>] *}``
* per-pattern block: ``Ann {* test=<scan|functional> power=<p>
  patterns=<n> *}`` — ``patterns`` lets a file declare a vector *count*
  without carrying vector *data* (used for the DSC case study, where the
  paper publishes counts only).

Scan-vector convention: each scan pattern is written as one
``Call "load_unload"`` carrying that vector's chain loads **and its own
expected unload response**, followed by one ``V`` with the PI/PO values
of the capture cycle.  (Real ATEs interleave vector *i*'s unload with
vector *i+1*'s load; the pattern translator performs that interleaving
when producing chip-level cycles.)
"""

from __future__ import annotations

from repro.patterns.core_patterns import CorePatternSet
from repro.soc.bits import expand_port_bits, functional_signal_order
from repro.soc.core import Core
from repro.soc.ports import SignalKind
from repro.soc.tests import CoreTest, TestKind

_KIND_TAGS = {
    SignalKind.CLOCK: "clock",
    SignalKind.RESET: "reset",
    SignalKind.TEST_ENABLE: "test_enable",
    SignalKind.SCAN_ENABLE: "scan_enable",
    SignalKind.TEST: "test",
}


def _wrap(data: str, indent: str, width: int = 80) -> str:
    """Wrap long vector data across lines (the tokenizer rejoins it)."""
    if len(data) <= width:
        return data
    chunks = [data[i : i + width] for i in range(0, len(data), width)]
    return ("\n" + indent).join(chunks)


def _group_expr(names: list[str]) -> str:
    return " + ".join(f'"{n}"' for n in names)


def core_to_stil(core: Core, patterns: CorePatternSet | None = None) -> str:
    """Render ``core`` (and optional concrete ``patterns``) as STIL text."""
    lines: list[str] = ["STIL 1.0;", ""]
    # -- Header ------------------------------------------------------------
    lines.append("Header {")
    lines.append(f'   Title "{core.name} core test information";')
    lines.append('   Source "repro STIL writer";')
    lines.append(
        f"   Ann {{* core={core.name} type={core.core_type.value} "
        f"gates={core.gate_count} *}}"
    )
    lines.append("}")
    lines.append("")
    # -- Signals -----------------------------------------------------------
    lines.append("Signals {")
    for port in core.ports:
        direction = {"input": "In", "output": "Out", "inout": "InOut"}[port.direction.value]
        for bit_name in expand_port_bits(port):
            attrs: list[str] = []
            if port.kind is SignalKind.SCAN_IN:
                attrs.append("ScanIn;")
            elif port.kind is SignalKind.SCAN_OUT:
                attrs.append("ScanOut;")
            elif port.kind in _KIND_TAGS:
                ann = f"kind={_KIND_TAGS[port.kind]}"
                if port.clock_domain:
                    ann += f" domain={port.clock_domain}"
                attrs.append(f"Ann {{* {ann} *}}")
            if attrs:
                lines.append(f'   "{bit_name}" {direction} {{ {" ".join(attrs)} }}')
            else:
                lines.append(f'   "{bit_name}" {direction};')
    lines.append("}")
    lines.append("")
    # -- SignalGroups --------------------------------------------------------
    pi_order, po_order = functional_signal_order(core)
    si_names = [c.scan_in for c in core.scan_chains]
    so_names = [c.scan_out for c in core.scan_chains]
    lines.append("SignalGroups {")
    if pi_order:
        lines.append(f'   "_pi" = \'{_group_expr(pi_order)}\';')
    if po_order:
        lines.append(f'   "_po" = \'{_group_expr(po_order)}\';')
    if si_names:
        lines.append(f'   "_si" = \'{_group_expr(si_names)}\';')
        lines.append(f'   "_so" = \'{_group_expr(so_names)}\';')
    lines.append("}")
    lines.append("")
    # -- ScanStructures -------------------------------------------------------
    if core.scan_chains:
        lines.append("ScanStructures {")
        for chain in core.scan_chains:
            lines.append(f'   ScanChain "{chain.name}" {{')
            lines.append(f"      ScanLength {chain.length};")
            lines.append(f'      ScanIn "{chain.scan_in}";')
            lines.append(f'      ScanOut "{chain.scan_out}";')
            if chain.clock_domain:
                lines.append(f"      Ann {{* domain={chain.clock_domain} *}}")
            lines.append("   }")
        lines.append("}")
        lines.append("")
    # -- Timing ----------------------------------------------------------------
    lines.append("Timing {")
    lines.append('   WaveformTable "_default_wft" {')
    lines.append("      Period '100ns';")
    lines.append("      Waveforms {")
    for port in core.ports:
        if port.kind is SignalKind.CLOCK:
            lines.append(f'         "{port.name}" {{ P {{ \'0ns\' D; \'50ns\' U; \'80ns\' D; }} }}')
    lines.append("      }")
    lines.append("   }")
    lines.append("}")
    lines.append("")
    # -- Procedures ----------------------------------------------------------
    if core.scan_chains:
        se_ports = core.ports_of_kind(SignalKind.SCAN_ENABLE)
        lines.append("Procedures {")
        lines.append('   "load_unload" {')
        lines.append('      W "_default_wft";')
        for se in se_ports:
            lines.append(f'      V {{ "{se.name}" = 1; }}')
        lines.append('      Shift { V { "_si" = #; "_so" = #; } }')
        lines.append("   }")
        lines.append("}")
        lines.append("")
    # -- Pattern bursts ---------------------------------------------------------
    test_names = [t.name for t in core.tests]
    lines.append('PatternBurst "_burst" {')
    lines.append("   PatList {")
    for name in test_names:
        lines.append(f'      "{name}";')
    lines.append("   }")
    lines.append("}")
    lines.append("")
    lines.append('PatternExec { PatternBurst "_burst"; }')
    lines.append("")
    # -- Patterns -----------------------------------------------------------------
    for test in core.tests:
        lines.extend(_pattern_block(core, test, patterns))
        lines.append("")
    return "\n".join(lines)


def _pattern_block(core: Core, test: CoreTest, patterns: CorePatternSet | None) -> list[str]:
    lines = [f'Pattern "{test.name}" {{']
    lines.append('   W "_default_wft";')
    kind_tag = "scan" if test.kind is TestKind.SCAN else "functional"
    lines.append(
        f"   Ann {{* test={kind_tag} power={test.power} patterns={test.patterns} *}}"
    )
    if patterns is not None:
        if test.kind is TestKind.SCAN and patterns.scan_vectors:
            chain_by_name = {c.name: c for c in core.scan_chains}
            for vec in patterns.scan_vectors:
                lines.append('   Call "load_unload" {')
                for chain_name in patterns.chain_order:
                    chain = chain_by_name[chain_name]
                    load = vec.loads.get(chain_name, "")
                    unload = vec.unloads.get(chain_name, "")
                    if load:
                        lines.append(f'      "{chain.scan_in}" = {_wrap(load, "         ")};')
                    if unload:
                        lines.append(f'      "{chain.scan_out}" = {_wrap(unload, "         ")};')
                lines.append("   }")
                lines.append(_capture_v(vec.pi, vec.expected_po))
        elif test.kind is TestKind.FUNCTIONAL and patterns.functional_vectors:
            for vec in patterns.functional_vectors:
                lines.append(_capture_v(vec.pi, vec.expected_po))
    lines.append("}")
    return lines


def _capture_v(pi: str, expected_po: str) -> str:
    """Render the capture-cycle V statement, omitting empty groups."""
    assigns = []
    if pi:
        assigns.append(f'"_pi" = {_wrap(pi, "      ")};')
    if expected_po:
        assigns.append(f'"_po" = {_wrap(expected_po, "      ")};')
    return "   V { " + " ".join(assigns) + " }"
