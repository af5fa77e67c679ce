"""Pattern translation: core level → wrapper level → chip level.

"The core test patterns are generated at the core level.  After the
cores are wrapped, the test patterns must be translated to the wrapper
level and then to the chip level." (paper, Section 2)

**Wrapper level.**  Each scan vector becomes per-wrapper-chain shift
streams.  Bit-order conventions (verified end-to-end by replaying the
translated program against the generated wrapper netlist):

* a core load string's first character ends up at the chain's scan-out
  end (it is shifted in first);
* the wrapper scan-in path of chain ``k`` runs head → input WBCs →
  internal chains (in plan order) → output WBCs → tail;
* the stimulus stream is therefore the *reverse* of the path-ordered
  cell values, and alignment padding ('X') goes in front of stimulus
  and behind expected response when ``si != so``.

**Cycle structure** (reproducing the scheduler's time model exactly,
``(1+max(si,so))·p + min(si,so)`` plus the WIR preamble)::

    preamble: program WIR (INTEST_PARALLEL), enable parallel feed
    window 0: si shift cycles                    (load vector 1)
    for v = 1..p:
        capture cycle (update+capture folded)
        window v: max(si,so) shifts              (unload v | load v+1)
        ... final window: so shifts              (unload p)

**Chip level.**  Wrapper pins are renamed to the TAM pins assigned by
the schedule (``TamSlot``), and the session preamble (test-controller
start / config) is prepended.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.patterns.ate import AteProgram
from repro.patterns.core_patterns import CorePatternSet
from repro.sched.timecalc import scan_test_time
from repro.soc.core import Core
from repro.soc.ports import SignalKind
from repro.soc.bits import functional_signal_order
from repro.tam.bus import TamSlot
from repro.wrapper.balance import WrapperPlan
from repro.wrapper.wir import WrapperInstruction, wir_shift_sequence

#: Cycles the chip-level lift prepends (test-controller session config);
#: the verifier's translation-consistency rule imports the same value.
CHIP_SESSION_PREAMBLE = 4


@dataclass
class WrapperVector:
    """One scan pattern at wrapper level.

    ``chain_loads[k]``: stimulus stream for wrapper chain ``k`` (first
    character shifted first; length = that chain's scan-in length).
    ``chain_unloads[k]``: expected response stream (first character
    observed first; length = that chain's scan-out length).
    """

    chain_loads: list[str]
    chain_unloads: list[str]


@dataclass
class WrapperPatternSet:
    """All translated vectors for one wrapped core."""

    core_name: str
    plan: WrapperPlan
    vectors: list[WrapperVector] = field(default_factory=list)

    @property
    def si(self) -> int:
        return self.plan.scan_in_depth

    @property
    def so(self) -> int:
        return self.plan.scan_out_depth

    @property
    def shift_window(self) -> int:
        return max(self.si, self.so)

    def expected_cycles(self, preamble: int = 0) -> int:
        """Scan cycles this set needs — must equal the scheduler's
        ``scan_test_time(si, so, p)``."""
        return scan_test_time(self.si, self.so, len(self.vectors)) + preamble


def _cell_bit_map(order: list[str], plan_counts: list[int]) -> list[list[int]]:
    """Split bit indices 0..len(order)-1 chain by chain (the same
    sequential rule the wrapper generator uses)."""
    result: list[list[int]] = []
    cursor = 0
    for count in plan_counts:
        result.append(list(range(cursor, cursor + count)))
        cursor += count
    return result


def translate_core_to_wrapper(
    core: Core,
    patterns: CorePatternSet,
    plan: WrapperPlan,
) -> WrapperPatternSet:
    """Translate core-level scan vectors to wrapper-chain streams."""
    pi_order, po_order = functional_signal_order(core)
    in_map = _cell_bit_map(pi_order, [c.input_cells for c in plan.chains])
    out_map = _cell_bit_map(po_order, [c.output_cells for c in plan.chains])
    result = WrapperPatternSet(core_name=core.name, plan=plan)

    for vector in patterns.scan_vectors:
        chain_loads: list[str] = []
        chain_unloads: list[str] = []
        for k, chain in enumerate(plan.chains):
            # scan-in path values, ascending from head to deepest
            in_path: list[str] = []
            for bit_index in in_map[k]:
                in_path.append(vector.pi[bit_index] if bit_index < len(vector.pi) else "X")
            for name in chain.internal_chains:
                load = vector.loads.get(name, "")
                length = _chain_length(core, name)
                load = load if len(load) == length else "X" * length
                in_path.extend(reversed(load))
            chain_loads.append("".join(reversed(in_path)))

            # scan-out path values, ascending toward WSO
            out_path: list[str] = []
            for name in chain.internal_chains:
                unload = vector.unloads.get(name, "")
                length = _chain_length(core, name)
                unload = unload if len(unload) == length else "X" * length
                out_path.extend(reversed(unload))
            for bit_index in out_map[k]:
                out_path.append(
                    vector.expected_po[bit_index]
                    if bit_index < len(vector.expected_po)
                    else "X"
                )
            chain_unloads.append("".join(reversed(out_path)))
        result.vectors.append(WrapperVector(chain_loads, chain_unloads))
    return result


def _chain_length(core: Core, chain_name: str) -> int:
    for chain in core.scan_chains:
        if chain.name == chain_name:
            return chain.length
    raise KeyError(f"core {core.name!r} has no scan chain {chain_name!r}")


def _control_pin_names(core: Core) -> dict[str, list[str]]:
    """The wrapper pass-through control pins, by class."""
    return {
        "se": [p.name for p in core.ports_of_kind(SignalKind.SCAN_ENABLE)],
        "clock": [p.name for p in core.ports_of_kind(SignalKind.CLOCK)],
        "reset": [p.name for p in core.ports_of_kind(SignalKind.RESET)],
        "te": [
            p.name
            for kind in (SignalKind.TEST_ENABLE, SignalKind.TEST)
            for p in core.ports_of_kind(kind)
        ],
    }


def wir_preamble(program: AteProgram, instruction: WrapperInstruction, statics: dict[str, str]) -> None:
    """Append the WIR programming sequence (shift opcode, update)."""
    for bit in wir_shift_sequence(instruction):
        program.add(
            drive={**statics, "selectwir": "1", "shiftwr": "1", "wsi": str(bit)},
            label="wir-shift",
        )
    program.add(
        drive={**statics, "selectwir": "1", "shiftwr": "0", "updatewr": "1", "wsi": "0"},
        label="wir-update",
    )


def wir_preamble_cycles(instruction: WrapperInstruction) -> int:
    """Cycles :func:`wir_preamble` spends programming the WIR (shift + update)."""
    return len(wir_shift_sequence(instruction)) + 1


def wrapper_scan_program(
    core: Core,
    wrapper_patterns: WrapperPatternSet,
    name: str | None = None,
) -> AteProgram:
    """Build the wrapper-level ATE program for a scan test.

    Pins are the wrapper module's ports: ``wpi{k}``/``wpo{k}`` for data
    (parallel TAM access), plus the serial/control interface.  The
    resulting cycle count is exactly ``WIR preamble +
    scan_test_time(si, so, p)`` — asserted here.
    """
    plan = wrapper_patterns.plan
    vectors = wrapper_patterns.vectors
    program = AteProgram(name or f"{core.name}_scan")
    controls = _control_pin_names(core)
    statics = {pin: "0" for pin in ("selectwir", "shiftwr", "capturewr", "updatewr",
                                    "parallel_sel", "wsi")}
    for pin in controls["reset"]:
        statics[pin] = "1"  # resets held inactive (active-low convention)
    for pin in controls["te"]:
        statics[pin] = "1"
    preamble_len = wir_preamble_cycles(WrapperInstruction.INTEST_PARALLEL)
    wir_preamble(program, WrapperInstruction.INTEST_PARALLEL, statics)
    statics["parallel_sel"] = "1"

    si, so = wrapper_patterns.si, wrapper_patterns.so
    window = wrapper_patterns.shift_window
    se_on = {pin: "1" for pin in controls["se"]}
    se_off = {pin: "0" for pin in controls["se"]}

    def shift_cycles(count: int, loads: list[str] | None, unloads: list[str] | None,
                     label: str) -> None:
        for t in range(count):
            drive = {**statics, **se_on, "shiftwr": "1"}
            expect = {}
            for k, _chain in enumerate(plan.chains):
                if loads is not None:
                    stream = loads[k]
                    pad = count - len(stream)
                    char = "X" if t < pad else stream[t - pad]
                    drive[f"wpi{k}"] = char
                else:
                    drive[f"wpi{k}"] = "X"
                if unloads is not None:
                    stream = unloads[k]
                    expect[f"wpo{k}"] = (
                        _expect_char(stream[t]) if t < len(stream) else "X"
                    )
            program.add(drive=drive, expect=expect, label=label)

    # window 0: load the first vector (si cycles)
    if vectors:
        shift_cycles(si, vectors[0].chain_loads, None, "load-0")
    for v, vector in enumerate(vectors):
        # capture cycle: update the input cells, capture responses
        program.add(
            drive={**statics, **se_off, "updatewr": "1", "capturewr": "1", "shiftwr": "0"},
            label=f"capture-{v}",
        )
        last = v == len(vectors) - 1
        if last:
            shift_cycles(so, None, [vec for vec in vector.chain_unloads], f"unload-{v}")
        else:
            shift_cycles(
                window,
                vectors[v + 1].chain_loads,
                vector.chain_unloads,
                f"unload-{v}|load-{v + 1}",
            )
    expected = wrapper_patterns.expected_cycles(preamble=preamble_len)
    if len(program) != expected:
        raise AssertionError(
            f"translated program is {len(program)} cycles, time model says {expected}"
        )
    return program


def _expect_char(char: str) -> str:
    return {"0": "L", "1": "H", "L": "L", "H": "H"}.get(char.upper(), "X")


def wrapper_functional_program(
    core: Core,
    patterns: CorePatternSet,
    name: str | None = None,
) -> AteProgram:
    """Wrapper-level program for a functional test: FUNCTIONAL mode, one
    cycle per vector through the chip-side functional pins."""
    program = AteProgram(name or f"{core.name}_func")
    controls = _control_pin_names(core)
    statics = {pin: "0" for pin in ("selectwir", "shiftwr", "capturewr", "updatewr",
                                    "parallel_sel", "wsi")}
    for pin in controls["reset"]:
        statics[pin] = "1"
    for pin in controls["te"]:
        statics[pin] = "0"  # mission mode
    for pin in controls["se"]:
        statics[pin] = "0"
    wir_preamble(program, WrapperInstruction.FUNCTIONAL, statics)
    pi_order, po_order = functional_signal_order(core)
    for v, vector in enumerate(patterns.functional_vectors):
        drive = dict(statics)
        for i, pin in enumerate(pi_order):
            drive[pin] = vector.pi[i] if i < len(vector.pi) else "X"
        expect = {}
        for i, pin in enumerate(po_order):
            char = vector.expected_po[i] if i < len(vector.expected_po) else "X"
            expect[pin] = _expect_char(char)
        program.add(drive=drive, expect=expect, label=f"func-{v}")
    return program


def chip_level_program(
    wrapper_program: AteProgram,
    slot: TamSlot,
    session_preamble: int = CHIP_SESSION_PREAMBLE,
) -> AteProgram:
    """Lift a wrapper-level program to chip level.

    TAM data pins replace the wrapper's ``wpi/wpo`` ports according to
    the schedule's wire assignment; the test-controller session preamble
    (start/config handshake) is prepended.
    """
    chip = AteProgram(f"{wrapper_program.name}@chip")
    for i in range(session_preamble):
        chip.add(drive={"tc_start": "1" if i == 0 else "0"}, label="session-config")
    rename: dict[str, str] = {}
    for local, wire in enumerate(slot.wires):
        rename[f"wpi{local}"] = f"tam_in{wire}"
        rename[f"wpo{local}"] = f"tam_out{wire}"
    for cycle in wrapper_program.cycles:
        chip.add(
            drive={rename.get(p, p): v for p, v in cycle.drive.items()},
            expect={rename.get(p, p): v for p, v in cycle.expect.items()},
            label=cycle.label,
        )
    return chip


def chip_scan_program(
    core: Core,
    wrapper_patterns: WrapperPatternSet,
    slot: TamSlot,
    chain_wrappers_after: int = 0,
    name: str | None = None,
) -> AteProgram:
    """The *real* chip-level scan program for one wrapped core on the
    STEAC-inserted top netlist.

    Unlike :func:`chip_level_program` (a pin renaming), this drives the
    actual access mechanism the test controller implements:

    1. reset the controller (``trstn``), pulse ``tc_start`` → CONFIG;
    2. shift the WIR opcode through the chip-level serial chain (the
       controller holds ``selectwir`` during CONFIG; wrappers *after*
       this core in the daisy chain receive BYPASS, shifted first);
    3. pulse ``updatewr``, assert ``tc_config_done`` → RUN;
    4. run the scan cycles with data on the TAM pins of ``slot``,
       scan-enable on the shared ``se_shared`` pin, and the shared
       reset pin held inactive.

    Replayed against the flattened top module in the tests — the
    strongest correctness evidence the platform produces.
    """
    program = AteProgram(name or f"{core.name}_scan@chip")
    base = {
        "trstn": "1", "tc_start": "0", "tc_next": "0", "tc_config_done": "0",
        "wsi": "0", "shiftwr": "0", "capturewr": "0", "updatewr": "0",
        "parallel_sel": "0", "se_shared": "0", "rst_shared": "1",
    }
    # 1. controller reset and start
    program.add(drive={**base, "trstn": "0"}, label="reset")
    program.add(drive=dict(base), label="release")
    program.add(drive={**base, "tc_start": "1"}, label="start")
    # 2. WIR programming during CONFIG: bits for the deepest wrapper first
    wir_bits: list[int] = []
    for _ in range(chain_wrappers_after):
        wir_bits.extend(wir_shift_sequence(WrapperInstruction.BYPASS))
    wir_bits.extend(wir_shift_sequence(WrapperInstruction.INTEST_PARALLEL))
    for bit in wir_bits:
        program.add(drive={**base, "shiftwr": "1", "wsi": str(bit)}, label="wir-shift")
    program.add(drive={**base, "updatewr": "1"}, label="wir-update")
    # 3. enter RUN
    program.add(drive={**base, "tc_config_done": "1"}, label="config-done")

    # 4. scan cycles: reuse the wrapper-level program, renamed to chip pins
    wrapper_program = wrapper_scan_program(core, wrapper_patterns)
    controls = _control_pin_names(core)
    drop = set(controls["te"]) | {"selectwir"}
    rename: dict[str, str] = {}
    for pin in controls["se"]:
        rename[pin] = "se_shared"
    for pin in controls["reset"]:
        rename[pin] = "rst_shared"
    for local, wire in enumerate(slot.wires):
        rename[f"wpi{local}"] = f"tam_in{wire}"
        rename[f"wpo{local}"] = f"tam_out{wire}"
    for cycle in wrapper_program.cycles:
        if cycle.label.startswith("wir-"):
            continue  # the controller already programmed the WIRs
        drive = dict(base)
        for pin, value in cycle.drive.items():
            if pin in drop:
                continue
            drive[rename.get(pin, pin)] = value
        expect = {rename.get(p, p): v for p, v in cycle.expect.items()}
        program.add(drive=drive, expect=expect, label=cycle.label)
    # 5. close the session
    program.add(drive={**base, "tc_next": "1"}, label="session-done")
    return program
