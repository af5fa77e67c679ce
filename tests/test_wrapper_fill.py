"""Differential tests pinning closed-form wrapper pricing to its oracles.

``repro.wrapper.balance.fill_cells`` places a core's boundary cells in
closed form, and ``design_wrapper`` goes through it;
``ScanTimeModel.for_core`` reads the depths of the same fill from
``fill_level`` without building it; ``partition_greedy`` keeps its bins
in a heap; ``plan_wrapper`` names only the port bits that can repeat.
``tests/oracles/wrapper_fill_ref.py`` keeps the code each replaced: a
loop placing one cell at a time on the least-loaded chain, the per-width
table loop over two fills, a scan over every bin, and a check naming
every bit.  Each pair must agree on every core and width: the same
wrapper plan chain by chain, the same time table, the same bins and the
same planned wrapper or ``ValueError`` text.
"""

from operator import add

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.gen import SocGenerator
from repro.sched import ScanTimeModel, scan_max_width
from repro.sched.timecalc import scan_test_time
from repro.soc import Core, CoreType, Direction, Port, ScanChain, SignalKind
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc
from repro.wrapper import design_wrapper
from repro.wrapper.balance import fill_cells, fill_level, partition_greedy
from repro.wrapper.generator import plan_wrapper

from oracles.wrapper_fill_ref import (
    design_wrapper_reference,
    partition_greedy_reference,
    plan_wrapper_reference,
    scan_times_fill_reference,
    scan_times_reference,
)

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
    @example(loads=[0], cells=0)
    @example(loads=[0, 0, 0], cells=0)
    @example(loads=[7, 0, 2, 0], cells=0)
    @example(loads=[0, 0, 4], cells=1)
    def test_fill_matches_per_cell_loop(self, loads, cells):
        # the oracle's rule on raw loads: zero loads and ties that cores
        # reach only through the partition step
        fill = [0] * len(loads)
        for _ in range(cells):
            target = min(range(len(loads)), key=lambda i: loads[i] + fill[i])
            fill[target] += 1
        assert fill_cells(loads, cells) == fill
        # the closed-form depth for_core reads, without building the fill
        levels = sorted(loads)
        level, extra = fill_level(levels, cells)
        assert max(levels[-1], level + (extra > 0)) == max(map(add, loads, fill))

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
        # a table can run up to the chip's pin count, far past a core's
        # useful width (d695's s838 at 48)
        for core in d695_soc(test_pins=48).wrapped_cores:
            assert_same(core, 48, patterns=core.scan_patterns)


@st.composite
def partitions(draw):
    """Chain lengths from the tie-heavy pool, and a width that may run
    past the chain count."""
    lengths = draw(st.lists(LENGTHS, max_size=12))
    return lengths, draw(st.integers(1, len(lengths) + 4))


class TestHeapPartition:
    @settings(max_examples=300, **COMMON)
    @given(case=partitions())
    def test_bins_match_full_scan(self, case):
        assert partition_greedy(*case) == partition_greedy_reference(*case)


def race_chips(profile):
    """DSC and d695 (``paper``), or seeds 1-8 of a generator profile."""
    if profile == "paper":
        return [build_dsc_chip(), d695_soc(test_pins=48)]
    return [SocGenerator(seed, profile).generate() for seed in range(1, 9)]


RACE_PROFILES = ["paper", "tiny", "small", "d695-like", "large"]


def planned(plan, core, width):
    """The planned wrapper, or the text of the ``ValueError`` raised."""
    try:
        return plan(core, width)
    except ValueError as error:
        return str(error)


class TestChipRaces:
    @pytest.mark.parametrize("profile", RACE_PROFILES)
    def test_tables_match_both_oracles(self, profile):
        # widths 1 .. useful+3 against both oracles, and the table out to
        # a 48-pin chip against the fill loop, its last entry against
        # the per-cell design at 48
        for soc in race_chips(profile):
            for core in soc.wrapped_cores:
                if not core.scan_chains:
                    continue
                patterns, top = core.scan_patterns, scan_max_width(core) + 3
                times = ScanTimeModel.for_core(core, patterns, max_width=top).times
                assert times == scan_times_fill_reference(core, patterns, top)
                assert times == scan_times_reference(core, patterns, top)
                wide = ScanTimeModel.for_core(core, patterns, max_width=48).times
                assert wide == scan_times_fill_reference(core, patterns, 48)
                plan = design_wrapper_reference(core, 48)
                assert wide[-1] == scan_test_time(plan.scan_in_depth, plan.scan_out_depth, patterns)

    @pytest.mark.parametrize("profile", RACE_PROFILES)
    def test_plan_wrapper_matches_oracle(self, profile):
        for soc in race_chips(profile):
            for core in soc.wrapped_cores:
                useful = scan_max_width(core)
                for width in sorted({1, useful, useful + 3, 48}):
                    assert planned(plan_wrapper, core, width) == \
                        planned(plan_wrapper_reference, core, width)


#: Names that collide with a wrapper port, a bus bit or a run bit, next
#: to names that cannot; chain names that collide with a WBC instance.
PORT_NAMES = ["a", "q", "d", "d[3]", "d[0]", "se", "w", "wsi", "wso", "parallel_sel",
              "wpi", "wpi1", "wpo", "wpo_x", "si", "x_si"]
CHAIN_NAMES = ["c", "c0", "x", "wbc", "wbc_x", "wbc_a"]


@st.composite
def colliding_cores(draw):
    """A core whose port bits, wrapper ports and instance names may
    repeat, and a width; cores ``Core`` itself refuses are skipped."""
    ports = []
    for name in draw(st.lists(st.sampled_from(PORT_NAMES), unique=True, max_size=5)):
        kind = draw(st.sampled_from([SignalKind.FUNCTIONAL, SignalKind.TEST]))
        shape = draw(st.sampled_from(["bit", "bus", "run"]))
        if kind is not SignalKind.FUNCTIONAL and shape == "run":
            shape = "bus"
        n = draw(st.integers(2, 4) if shape == "bus" else st.integers(1, 12))
        direction = draw(st.sampled_from(list(Direction))) \
            if kind is SignalKind.FUNCTIONAL else Direction.IN
        ports.append(Port(name, direction, kind, width=n if shape == "bus" else 1,
                          run=n if shape == "run" else None))
    chains = []
    for i, name in enumerate(draw(st.lists(st.sampled_from(CHAIN_NAMES), max_size=3))):
        ports += [Port(f"scan_in{i}", Direction.IN, SignalKind.SCAN_IN),
                  Port(f"scan_out{i}", Direction.OUT, SignalKind.SCAN_OUT)]
        chains.append(ScanChain(name, draw(st.integers(1, 9)), f"scan_in{i}", f"scan_out{i}"))
    try:
        core = Core("demo", core_type=draw(st.sampled_from(list(CoreType))), ports=ports,
                    scan_chains=chains)
    except ValueError:
        assume(False)
    return core, draw(st.integers(1, 12))


class TestPlanWrapperCollisions:
    @settings(max_examples=400, **COMMON)
    @given(case=colliding_cores())
    def test_same_wrapper_or_message(self, case):
        assert planned(plan_wrapper, *case) == planned(plan_wrapper_reference, *case)


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
