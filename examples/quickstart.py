"""Quickstart: the whole platform in ~90 lines, three API layers deep.

1. **One call** — ``Steac().integrate(soc)`` runs the full Fig.-1 flow
   (STIL parse → BIST → schedule → DFT insertion → pattern translation).
2. **Staged** — the same flow as composable stages over a
   ``FlowContext``: run a prefix, inspect, continue.
3. **Batch** — ``integrate_many`` pushes a design-space sweep through a
   process pool with per-SOC error isolation.

Run:  python examples/quickstart.py
"""

from repro.atpg import generate_scan_patterns
from repro.core import Pipeline, Steac
from repro.netlist import netlist_to_verilog
from repro.soc import MemorySpec, Soc
from repro.soc.demo import build_demo_core, build_demo_core_module
from repro.stil import core_to_stil


def build_soc(test_pins: int = 16) -> Soc:
    """The demo SOC: one scan core plus a couple of embedded SRAMs."""
    soc = Soc("quickstart_soc", test_pins=test_pins, power_budget=4.0)
    soc.add_memory(MemorySpec("buf0", words=1024, bits=16))
    soc.add_memory(MemorySpec("buf1", words=512, bits=8))
    return soc


def main() -> None:
    # -- a core with a real gate-level implementation, through real ATPG
    module = build_demo_core_module()
    core = build_demo_core()
    atpg = generate_scan_patterns(module, core)
    print(
        f"ATPG: {atpg.pattern_count} patterns, "
        f"{atpg.coverage:.1f}% stuck-at coverage, "
        f"{len(atpg.untestable)} provably untestable faults"
    )

    # the core's test information travels as STIL (IEEE 1450), exactly
    # as it would from a commercial ATPG tool
    stil_text = core_to_stil(build_demo_core(patterns=atpg.pattern_count), atpg.patterns)
    print(f"STIL file: {len(stil_text.splitlines())} lines")

    # -- layer 1: one call does everything ---------------------------------
    steac = Steac()
    result = steac.integrate(build_soc(), stil_texts={"demo": stil_text})
    print()
    print(result.report())

    # artifacts, human- and machine-readable
    program = result.programs["demo.scan"]
    print()
    print(f"chip-level ATE program: {program.cycle_count} cycles "
          f"across pins {program.pins[:6]}...")
    verilog = netlist_to_verilog(result.netlist)
    print(f"DFT-inserted netlist: {len(verilog.splitlines())} lines of Verilog "
          f"({result.netlist.top.name})")
    print(f"JSON result: {len(result.to_json())} chars "
          f"(schema {result.to_dict()['schema']})")

    # -- layer 2: the same flow, staged ------------------------------------
    # run only the front half (STIL parse → BIST → schedule), look at the
    # schedule, then let the back half finish on the same context
    ctx = steac.context(build_soc(), stil_texts={"demo": stil_text})
    Pipeline.default().until("schedule").run(ctx)
    print()
    print(f"staged flow, after '{'/'.join(Pipeline.default().until('schedule').stage_names)}':")
    print(f"  schedule: {ctx.schedule.session_count} sessions, "
          f"{ctx.schedule.total_time:,} cycles (netlist not built yet: {ctx.netlist})")
    Pipeline.default().since("insert_dft").run(ctx)
    print(f"  after the back half: netlist top = {ctx.netlist.top.name}, "
          f"stage times = {{{', '.join(f'{k}: {v * 1e3:.1f}ms' for k, v in ctx.stage_seconds.items())}}}")

    # -- layer 3: batch — a pin-budget sweep, concurrently ------------------
    # backend="auto" picks a process pool for real sweeps (serial for
    # trivial ones); each worker runs its own Steac instance
    batch = steac.integrate_many([build_soc(test_pins=p) for p in (12, 16, 24, 32)],
                                 workers=4)
    print()
    print(batch.render())


if __name__ == "__main__":
    main()
