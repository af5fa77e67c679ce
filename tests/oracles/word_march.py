"""A word-oriented March simulator: a test oracle for data backgrounds.

A March test runs once per data background: ``w0`` writes the
background, ``w1`` its complement, and reads compare whole words.
:func:`run_word_march` applies that to a word memory with an optional
word-level fault, so the tests can show that
:func:`repro.bist.backgrounds.standard_backgrounds` catches intra-word
coupling faults a solid background misses, and that the operation count
matches :func:`repro.bist.backgrounds.word_march_cycles`.  No shipped
code runs a word memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bist.backgrounds import standard_backgrounds
from repro.bist.march import MarchTest


class WordMemory:
    """A fault-free word-oriented memory (words x bits)."""

    def __init__(self, words: int, bits: int):
        if words <= 0 or bits <= 0:
            raise ValueError("words and bits must be positive")
        self.words = words
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.cells = [0] * words

    def read(self, addr: int) -> int:
        return self.cells[addr]

    def write(self, addr: int, value: int) -> None:
        self.cells[addr] = value & self.mask


class WordFaultModel:
    """Base word-level fault: behaves fault-free."""

    name = "none"

    def apply_write(self, memory: WordMemory, addr: int, value: int) -> None:
        memory.cells[addr] = value & memory.mask

    def apply_read(self, memory: WordMemory, addr: int) -> int:
        return memory.cells[addr]


class WordStuckBitFault(WordFaultModel):
    """One bit of one word stuck at a value."""

    def __init__(self, word: int, bit: int, value: int):
        self.word = word
        self.bit = bit
        self.value = value & 1
        self.name = f"WSAF{self.value}@{word}.{bit}"

    def _fix(self, data: int) -> int:
        if self.value:
            return data | (1 << self.bit)
        return data & ~(1 << self.bit)

    def apply_write(self, memory: WordMemory, addr: int, value: int) -> None:
        value &= memory.mask
        if addr == self.word:
            value = self._fix(value)
        memory.cells[addr] = value

    def apply_read(self, memory: WordMemory, addr: int) -> int:
        data = memory.cells[addr]
        if addr == self.word:
            data = self._fix(data)
        return data


class IntraWordCouplingFault(WordFaultModel):
    """CFid inside one word: an aggressor-bit transition during a write
    forces the victim bit of the *stored* word to ``forced_value``.

    Invisible to solid backgrounds whenever aggressor and victim receive
    equal values — the case data backgrounds exist to break.
    """

    def __init__(self, word: int, aggressor_bit: int, victim_bit: int,
                 rising: bool, forced_value: int):
        if aggressor_bit == victim_bit:
            raise ValueError("aggressor and victim bits must differ")
        self.word = word
        self.aggressor_bit = aggressor_bit
        self.victim_bit = victim_bit
        self.rising = rising
        self.forced_value = forced_value & 1
        arrow = "↑" if rising else "↓"
        self.name = f"WCFid{arrow}{self.forced_value}@{word}.{aggressor_bit}->{victim_bit}"

    def apply_write(self, memory: WordMemory, addr: int, value: int) -> None:
        value &= memory.mask
        if addr == self.word:
            old = (memory.cells[addr] >> self.aggressor_bit) & 1
            new = (value >> self.aggressor_bit) & 1
            transitioned = (old == 0 and new == 1) if self.rising else (old == 1 and new == 0)
            if transitioned:
                if self.forced_value:
                    value |= 1 << self.victim_bit
                else:
                    value &= ~(1 << self.victim_bit)
        memory.cells[addr] = value


@dataclass
class WordMarchResult:
    """Outcome of a word-oriented March run."""

    passed: bool
    backgrounds_run: int
    operations: int
    fail_addr: int | None = None
    fail_background: int | None = None


def run_word_march(
    memory: WordMemory,
    march: MarchTest,
    fault: WordFaultModel | None = None,
    backgrounds: list[int] | None = None,
) -> WordMarchResult:
    """Run ``march`` once per background against a word memory.

    ``w0`` writes the background, ``w1`` its complement; ``r0``/``r1``
    expect them respectively.  Returns at the first mismatching word.
    """
    fault = fault or WordFaultModel()
    if backgrounds is None:
        backgrounds = standard_backgrounds(memory.bits)
    operations = 0
    for background in backgrounds:
        complement = (~background) & memory.mask
        for element in march.elements:
            for addr in element.addresses(memory.words):
                for op in element.ops:
                    operations += 1
                    if op.is_write:
                        value = complement if op.value_bit else background
                        fault.apply_write(memory, addr, value)
                    else:
                        expected = complement if op.value_bit else background
                        if fault.apply_read(memory, addr) != expected:
                            return WordMarchResult(
                                passed=False,
                                backgrounds_run=backgrounds.index(background) + 1,
                                operations=operations,
                                fail_addr=addr,
                                fail_background=background,
                            )
    return WordMarchResult(
        passed=True, backgrounds_run=len(backgrounds), operations=operations
    )
