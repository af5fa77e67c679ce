"""The one March loop races the three loops it replaced.

``run_march`` (go/no-go), ``diagnose_march`` (bitmap capture) and
``run_tpg`` (the behavioral TPG) are all built on
:func:`repro.bist.faultsim.mismatches`.  Their old bodies, each with its
own copy of the loop, are kept in ``tests/oracles/march_ref.py``.  On a
drawn algorithm (or its retention variant), array size, injected fault,
power-up seed and port count, the shipped functions must return exactly
what the originals return; ``run_tpg``'s cycles come from
``march_cycles`` and must equal the original's op-by-op count.
"""

from hypothesis import given, settings, strategies as st

from repro.bist import ALGORITHMS, with_retention
from repro.bist.faults import FAULT_CLASSES, fault_population
from repro.bist.faultsim import diagnose_march, run_march
from repro.bist.memory_model import FaultFreeMemory, FaultyMemory
from repro.bist.tpg import run_tpg

from oracles import march_ref


def _retention(march):
    try:
        return [with_retention(march)]
    except ValueError:  # no read-first element of each polarity
        return []


MARCHES = list(ALGORITHMS) + [v for march in ALGORITHMS for v in _retention(march)]


@st.composite
def march_cases(draw):
    """(march, memory factory, two_port): the factory builds a fresh,
    identically seeded memory per run, since a run mutates it."""
    march = draw(st.sampled_from(MARCHES))
    size = draw(st.integers(2, 24))
    population = fault_population(
        size, FAULT_CLASSES, coupling_pairs=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 99)),
    )
    # no fault, one fault, or several defects in one array
    fault = draw(st.none() | st.sampled_from(population)
                 | st.lists(st.sampled_from(population), min_size=2, max_size=3))
    seed = draw(st.integers(0, 2**16))

    def memory():
        if fault is None:
            return FaultFreeMemory(size, seed=seed)
        return FaultyMemory(size, fault, seed=seed)

    return march, memory, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(march_cases())
def test_march_loop_matches_reference(case):
    march, memory, two_port = case
    assert run_march(memory(), march) == march_ref.run_march(memory(), march)
    assert diagnose_march(memory(), march) == march_ref.diagnose_march(memory(), march)
    # passed, cycles, first fail address and op, all equal
    assert run_tpg(memory(), march, "m", two_port) == march_ref.run_tpg(
        memory(), march, "m", two_port
    )
