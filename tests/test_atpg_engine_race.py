"""The ATPG engines race the levelizer and cell table they replaced.

``CombEngine`` and ``ParallelSim`` order their gates with the
simulator's :func:`repro.netlist.sim.levelize`, and ``ParallelSim``
evaluates each gate with its library cell's ``word`` function.  The old
private levelizer and the old ``ParallelSim`` (an ``if``/``elif`` on
cell names) are kept in ``tests/oracles/parallel_sim_ref.py``.  On
drawn random gate clouds, both engines must give the old gate order
(PODEM scans it for its D-frontier) and ``ParallelSim`` the old words,
with and without a forced net.
"""

from hypothesis import given, settings, strategies as st

from repro.atpg import CombEngine, ParallelSim
from repro.netlist import LIBRARY
from oracles import parallel_sim_ref
from oracles.netlist_builder import random_combinational

#: every combinational library cell; ``random_combinational`` itself
#: draws only 2-input AND/OR/NAND/NOR/XOR/XNOR gates and BUFs
COMB_CELLS = sorted(name for name, cell in LIBRARY.items() if not cell.sequential)


@st.composite
def gate_clouds(draw):
    module = random_combinational(
        "race",
        n_inputs=draw(st.integers(2, 10)),
        n_gates=draw(st.integers(1, 150)),
        n_outputs=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 10**6)),
    )
    # graft gates of every other cell onto the cloud, each observed at
    # its own output port
    nets = sorted(module.nets)
    for k, name in enumerate(draw(st.lists(st.sampled_from(COMB_CELLS), max_size=16))):
        pins = {pin: draw(st.sampled_from(nets)) for pin in LIBRARY[name].inputs}
        module.add_instance(f"u_x{k}", name, Y=module.add_output(f"x{k}"), **pins)
        nets.append(f"x{k}")
    return module


def _names(order):
    return [inst.name for inst, _cell in order]


@settings(max_examples=150, deadline=None)
@given(module=gate_clouds(), data=st.data())
def test_engines_match_reference(module, data):
    reference = parallel_sim_ref.ParallelSim(module)
    sim = ParallelSim(module)
    assert _names(CombEngine(module).order) == _names(reference.order)
    assert _names(sim.order) == _names(reference.order)

    patterns = data.draw(st.integers(1, 64))
    words = {pin: data.draw(st.integers(0, (1 << patterns) - 1)) for pin in sim.inputs}
    force = data.draw(st.none() | st.tuples(st.sampled_from(sorted(module.nets)),
                                            st.integers(0, 1)))
    assert sim.run(words, force) == reference.run(words, force)
