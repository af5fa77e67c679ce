"""Differential tests pinning the closed-form wrapper cell fill to its oracle.

``repro.wrapper.balance.fill_cells`` places a core's boundary cells in
closed form, and both ``design_wrapper`` and
``ScanTimeModel.for_core`` go through it.  ``tests/oracles/
wrapper_fill_ref.py`` keeps the original loop, which places one cell at
a time on the least-loaded chain.  The two must agree on every core and
width: the same wrapper plan chain by chain, and the same time table.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gen import SocGenerator
from repro.sched import ScanTimeModel, scan_max_width
from repro.soc import Core, CoreType, Direction, Port, ScanChain, SignalKind
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc
from repro.wrapper import design_wrapper
from repro.wrapper.balance import fill_cells

from oracles.wrapper_fill_ref import design_wrapper_reference, scan_times_reference

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # tier-1 must be reproducible run to run
)


def make_core(core_type, chain_lengths, inputs=(), outputs=(), inouts=()) -> Core:
    """A core with the given scan chains and functional port widths."""
    ports = [Port("clk", Direction.IN, SignalKind.CLOCK)]
    chains = []
    for i, length in enumerate(chain_lengths):
        ports.append(Port(f"si{i}", Direction.IN, SignalKind.SCAN_IN))
        ports.append(Port(f"so{i}", Direction.OUT, SignalKind.SCAN_OUT))
        chains.append(ScanChain(f"c{i}", length, f"si{i}", f"so{i}"))
    for prefix, direction, widths in (
        ("i", Direction.IN, inputs), ("o", Direction.OUT, outputs), ("b", Direction.INOUT, inouts),
    ):
        ports.extend(Port(f"{prefix}{j}", direction, width=w) for j, w in enumerate(widths))
    return Core("dut", core_type=core_type, ports=ports, scan_chains=chains)


def assert_same(core, width, patterns=7, exact=False):
    """The plan and the time table both match the oracle."""
    plan = design_wrapper(core, width, exact=exact)
    reference = design_wrapper_reference(core, width, exact=exact)
    assert [(c.input_cells, c.output_cells) for c in plan.chains] == \
        [(c.input_cells, c.output_cells) for c in reference.chains]
    assert plan == reference
    model = ScanTimeModel.for_core(core, patterns, max_width=width)
    assert model.times == scan_times_reference(core, patterns, width)


# small pools make equal chain lengths (ties) common
LENGTHS = st.one_of(st.sampled_from([1, 2, 3, 5, 8]), st.integers(1, 60))
WIDTHS = st.lists(st.integers(1, 12), max_size=4)


@st.composite
def cores(draw):
    """Hard, soft and scanless cores.  Functional bits may be zero, and
    the width may run past the chain count or the flop count."""
    core_type = draw(st.sampled_from(list(CoreType)))
    lengths = [] if core_type is CoreType.LEGACY else draw(st.lists(LENGTHS, max_size=6))
    core = make_core(core_type, lengths, draw(WIDTHS), draw(WIDTHS), draw(WIDTHS))
    width = draw(st.integers(1, len(lengths) + sum(lengths) + 3))
    return core, width


class TestAgainstReference:
    @settings(max_examples=300, **COMMON)
    @given(case=cores(), patterns=st.integers(0, 40), exact=st.booleans())
    def test_generated_cores_match(self, case, patterns, exact):
        assert_same(*case, patterns=patterns, exact=exact)

    @settings(max_examples=200, **COMMON)
    @given(loads=st.lists(st.sampled_from([0, 1, 2, 4, 7]), min_size=1, max_size=8),
           cells=st.integers(0, 40))
    def test_fill_matches_per_cell_loop(self, loads, cells):
        # the oracle's rule on raw loads: zero loads and ties that cores
        # reach only through the partition step
        fill = [0] * len(loads)
        for _ in range(cells):
            target = min(range(len(loads)), key=lambda i: loads[i] + fill[i])
            fill[target] += 1
        assert fill_cells(loads, cells) == fill

    def test_soft_core_with_fewer_flops_than_wires(self):
        # rebalance_lengths drops the empty chains; the plan keeps all
        # eight, and the boundary cells go to the empty ones first
        core = make_core(CoreType.SOFT, [2, 1], inputs=[4], outputs=[2])
        plan = design_wrapper(core, 8)
        assert len(plan.chains) == 8
        assert [c.internal_length for c in plan.chains] == [1, 1, 1, 0, 0, 0, 0, 0]
        assert [c.input_cells for c in plan.chains] == [0, 0, 0, 1, 1, 1, 1, 0]
        assert_same(core, 8)

    def test_zero_functional_bits_width_one_and_ties(self):
        for core in (
            make_core(CoreType.HARD, [5, 5, 5, 5]),
            make_core(CoreType.HARD, [5, 5, 5, 5], inputs=[3], outputs=[6]),
            make_core(CoreType.SOFT, [4, 4], inputs=[1], inouts=[2]),
            make_core(CoreType.LEGACY, [], inputs=[9], outputs=[4]),
        ):
            for width in range(1, 12):
                assert_same(core, width)

    def test_paper_and_itc02_cores(self):
        socs = [build_dsc_chip(), d695_soc(test_pins=48)]
        socs += [SocGenerator(seed, profile).generate()
                 for profile in ("tiny", "d695-like", "large") for seed in (1, 2)]
        for soc in socs:
            for core in soc.wrapped_cores:
                useful = scan_max_width(core)
                for width in sorted({1, useful, useful + 5}):
                    assert_same(core, width, patterns=core.scan_patterns)
        # best_width_time asks for tables up to the chip's pin count,
        # far past a core's useful width (d695's s838 at 48)
        for core in d695_soc(test_pins=48).wrapped_cores:
            assert_same(core, 48, patterns=core.scan_patterns)


class TestFillCells:
    def test_level_then_lowest_index(self):
        # fill to level 5 costs 2 + 4 = 6; the 2 left over go to the
        # two lowest-index chains at level 5
        assert fill_cells([3, 9, 1, 5], 8) == [3, 0, 5, 0]
        assert fill_cells([3, 9, 1, 5], 9) == [3, 0, 5, 1]

    def test_no_cells(self):
        assert fill_cells([4, 0, 2], 0) == [0, 0, 0]

    def test_equal_loads_round_robin(self):
        assert fill_cells([0, 0, 0], 7) == [3, 2, 2]
