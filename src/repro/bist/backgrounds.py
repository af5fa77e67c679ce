"""Word-oriented memory testing with data backgrounds.

Classical March theory is bit-oriented; production SRAMs are
word-oriented (the DSC's arrays are 8-32 bits wide).  BRAINS handles
this the standard way: run the March algorithm once per *data
background*, where ``w0`` writes the background pattern, ``w1`` writes
its complement, and reads compare whole words.

With the :func:`standard_backgrounds` set (solid plus the log2(B)
"address-of-bit" stripes), every pair of distinct bit positions receives
opposite values under at least one background — which is exactly the
condition for a bit-oriented detection guarantee to lift to intra-word
coupling faults.  The property is asserted in the tests, which run a
word-oriented March simulator (``tests/oracles/word_march.py``);
BRAINS itself prices the background set with :func:`word_march_cycles`.
"""

from __future__ import annotations

from repro.bist.march import MarchTest


def standard_backgrounds(bits: int) -> list[int]:
    """Solid + stripe backgrounds for ``bits``-bit words.

    Background ``k`` (k >= 1) sets bit ``i`` iff bit ``k-1`` of the
    index ``i`` is set; background 0 is solid zero.  Any two distinct
    bit positions differ under some background (their indices differ in
    some bit), giving ``floor(log2(B)) + 1`` backgrounds total.

    >>> [f"{b:04b}" for b in standard_backgrounds(4)]
    ['0000', '1010', '1100']
    """
    if bits <= 0:
        raise ValueError(f"word width must be positive, got {bits}")
    backgrounds = [0]
    k = 0
    while (1 << k) < bits:
        background = 0
        for i in range(bits):
            if (i >> k) & 1:
                background |= 1 << i
        backgrounds.append(background)
        k += 1
    return backgrounds


def word_march_cycles(march: MarchTest, words: int, bits: int) -> int:
    """Test length in RAM operations for the full background set."""
    return march.operation_count(words) * len(standard_backgrounds(bits))
