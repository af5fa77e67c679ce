"""Reference March loops: the three bit-memory March executors, retained.

``run_march``, ``diagnose_march`` and ``run_tpg`` each used to carry
their own copy of the loop that applies a March test to a behavioral
memory.  They are now built on one generator,
:func:`repro.bist.faultsim.mismatches`, and ``run_tpg`` reports
:func:`repro.bist.tpg.march_cycles` instead of counting cycles op by op.
These are the old bodies, verbatim, the oracle
``tests/test_bist_march_race.py`` races the shipped functions against.
``run_tpg`` keeps its op-by-op cycle count and its ``stop_on_fail``, so
``march_cycles`` keeps an independent check.  Do not optimize them;
their value is being the originals.
"""

from __future__ import annotations

from repro.bist.march import MarchTest, Order
from repro.bist.memory_model import MemoryInterface
from repro.bist.tpg import ELEMENT_SWITCH_CYCLES, PAUSE_CYCLES, TPG_SETUP_CYCLES, TpgRunResult


def run_march(memory: MemoryInterface, march: MarchTest) -> bool:
    """Apply ``march`` to ``memory``; True = all reads matched (pass)."""
    size = memory.size
    for element in march.elements:
        if element.pause_before:
            memory.pause()
        addresses = range(size) if element.order is not Order.DOWN else range(size - 1, -1, -1)
        for addr in addresses:
            for op in element.ops:
                if op.is_write:
                    memory.write(addr, op.value_bit)
                else:
                    if memory.read(addr) != op.value_bit:
                        return False
    return True


def diagnose_march(memory: MemoryInterface, march: MarchTest) -> list[int]:
    """Apply ``march`` in *diagnosis mode*: run to completion and log
    every failing read's address instead of stopping at the first
    mismatch.

    This is the bitmap-capture mode of a BIST controller with diagnosis
    support — the raw material for redundancy analysis
    (:mod:`repro.repair`).  Returns the sorted distinct addresses whose
    reads mismatched; an empty list means the memory passed.
    """
    failing: set[int] = set()
    size = memory.size
    for element in march.elements:
        if element.pause_before:
            memory.pause()
        addresses = range(size) if element.order is not Order.DOWN else range(size - 1, -1, -1)
        for addr in addresses:
            for op in element.ops:
                if op.is_write:
                    memory.write(addr, op.value_bit)
                elif memory.read(addr) != op.value_bit:
                    failing.add(addr)
    return sorted(failing)


def run_tpg(
    memory: MemoryInterface,
    march: MarchTest,
    name: str = "mem",
    two_port: bool = False,
    stop_on_fail: bool = False,
) -> TpgRunResult:
    """Behavioral TPG: apply ``march``, count cycles, record first fail.

    The cycle count always equals :func:`march_cycles` when
    ``stop_on_fail`` is False — an invariant the tests pin.
    """
    cycles = TPG_SETUP_CYCLES
    passed = True
    fail_addr = fail_op = None
    passes = 2 if two_port else 1
    for _ in range(passes):
        for element in march.elements:
            if element.pause_before:
                memory.pause()
                cycles += PAUSE_CYCLES
            cycles += ELEMENT_SWITCH_CYCLES
            addresses = (
                range(memory.size)
                if element.order is not Order.DOWN
                else range(memory.size - 1, -1, -1)
            )
            for addr in addresses:
                for op in element.ops:
                    cycles += 1
                    if op.is_write:
                        memory.write(addr, op.value_bit)
                    elif memory.read(addr) != op.value_bit:
                        if passed:
                            fail_addr, fail_op = addr, op.value
                        passed = False
                        if stop_on_fail:
                            return TpgRunResult(name, False, cycles, fail_addr, fail_op)
    return TpgRunResult(name, passed, cycles, fail_addr, fail_op)
