"""Test Pattern Generator (TPG): per-memory March executor.

"Each Test Pattern Generator (TPG) attached to the memory will translate
the March-based test commands to the respective RAM signals" (paper,
Fig. 2).  Two faces:

* a **behavioral** run of a March test against a
  :class:`repro.bist.memory_model.MemoryInterface`, through the one
  March loop (:func:`repro.bist.faultsim.mismatches`), reporting the
  first failing read and the hardware's cycle count, :func:`march_cycles`;
* a **gate-level generator** producing the TPG netlist (address counter,
  op decoder, read comparator, done logic); its terminal-count AND tree
  comes from the shared :func:`repro.netlist.netlist.add_tree`.
  BRAINS prices a TPG from :func:`tpg_cells`, the closed-form count of
  the cells :func:`make_tpg` places.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from repro.bist.faultsim import mismatches
from repro.bist.march import MarchTest
from repro.bist.memory_model import MemoryInterface
from repro.netlist.netlist import Module, add_tree, tree_cells
from repro.soc.memory import MemorySpec

#: Cycles for BIST start-up handshake per memory run.
TPG_SETUP_CYCLES = 4

#: Pipeline bubble when the sequencer advances to the next March element.
ELEMENT_SWITCH_CYCLES = 2

#: Retention pause length in cycles (tester-controlled; modelled value).
PAUSE_CYCLES = 1000


@dataclass
class TpgRunResult:
    """Outcome of one behavioral TPG run."""

    memory_name: str
    passed: bool
    cycles: int
    fail_addr: int | None = None
    fail_op: str | None = None


def march_cycles(march: MarchTest, words: int, two_port: bool = False) -> int:
    """Cycle-accurate BIST run length for one memory.

    One RAM operation per cycle, plus per-element switch bubbles and the
    setup handshake; two-port memories run the algorithm once per port.
    """
    passes = 2 if two_port else 1
    per_pass = (
        march.operation_count(words)
        + ELEMENT_SWITCH_CYCLES * len(march.elements)
        + sum(PAUSE_CYCLES for e in march.elements if e.pause_before)
    )
    return TPG_SETUP_CYCLES + passes * per_pass


def run_tpg(
    memory: MemoryInterface,
    march: MarchTest,
    name: str = "mem",
    two_port: bool = False,
) -> TpgRunResult:
    """Behavioral TPG: apply ``march`` (once per port) and record the
    first failing read.  A run takes :func:`march_cycles` whether or not
    it fails: the hardware finishes the sweep either way."""
    fails = mismatches(memory, march)
    if two_port:
        fails = chain(fails, mismatches(memory, march))
    cycles = march_cycles(march, memory.size, two_port)
    first = next(fails, None)
    if first is None:
        return TpgRunResult(name, True, cycles)
    addr, op = first
    return TpgRunResult(name, False, cycles, addr, op.value)


def make_tpg(spec: MemorySpec, name: str | None = None) -> Module:
    """Generate the TPG netlist for one memory.

    Structure: an ``addr_bits`` up/down counter, a terminal-count
    detector, March op decode (2-bit op bus from the sequencer), expected-
    data generation, a read comparator and a sticky error flag.
    """
    bits = spec.address_bits
    m = Module(name or f"tpg_{spec.name}")
    for port in ("clk", "rstn", "run", "op0", "op1", "dir_down", "q"):
        m.add_input(port)
    for port in ("addr_done", "error", "we", "wdata"):
        m.add_output(port)
    for b in range(bits):
        m.add_output(f"addr{b}")

    # up/down address counter: next = addr +/- 1 (ripple half-add/sub)
    m.add_instance("u_dir_inv", "INV", A="dir_down", Y="n_dir_up")
    carry = "run"  # increment only while running
    for b in range(bits):
        q = f"n_a{b}"
        # count bit: XOR with carry; direction handled by xor-ing the
        # stored bit with dir_down before the carry chain (two's-complement
        # down count via inverted bit trick)
        m.add_instance(f"u_cx{b}", "XOR2", A=q, B=carry, Y=f"n_next{b}")
        eff = f"n_eff{b}"
        m.add_instance(f"u_ce{b}", "XOR2", A=q, B="dir_down", Y=eff)
        m.add_instance(f"u_cc{b}", "AND2", A=eff, B=carry, Y=f"n_carry{b}")
        m.add_instance(
            f"u_ff{b}", "DFFR", D=f"n_next{b}", CK="clk", RN="rstn", Q=q
        )
        m.add_instance(f"u_ob{b}", "BUF", A=q, Y=f"addr{b}")
        carry = f"n_carry{b}"
    # terminal count: all effective bits high -> sweep complete
    terms = [f"n_eff{b}" for b in range(bits)]
    add_tree(m, terms, "addr_done", "AND", "u_tc")

    # op decode: op[1:0] = 00 r0, 01 r1, 10 w0, 11 w1
    m.add_instance("u_we_buf", "BUF", A="op1", Y="we")
    m.add_instance("u_wd_buf", "BUF", A="op0", Y="wdata")
    # read compare: expected = op0 when reading (op1 = 0)
    m.add_instance("u_exp_x", "XOR2", A="q", B="op0", Y="n_mismatch")
    m.add_instance("u_rd_inv", "INV", A="op1", Y="n_is_read")
    m.add_instance("u_err_and", "AND3", A="n_mismatch", B="n_is_read", C="run", Y="n_err_set")
    m.add_instance("u_err_or", "OR2", A="n_err_set", B="n_err_q", Y="n_err_d")
    m.add_instance("u_err_ff", "DFFR", D="n_err_d", CK="clk", RN="rstn", Q="n_err_q")
    m.add_instance("u_err_buf", "BUF", A="n_err_q", Y="error")
    return m


def tpg_cells(spec: MemorySpec) -> Counter[str]:
    """The leaf cells :func:`make_tpg` spends on ``spec``, in closed form
    and in placement order: five cells per address bit, the terminal-count
    tree, and fixed op-decode and compare glue."""
    bits = spec.address_bits
    cells = Counter({"INV": 2, "XOR2": 2 * bits + 1, "AND2": bits,
                     "DFFR": bits + 1, "BUF": bits + 3})
    cells.update(tree_cells(bits, "AND"))
    cells.update({"AND3": 1, "OR2": 1})
    return cells
