"""Tests for the SOC data model (ports, scan, cores, memories, chips)."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.soc import (
    ClockDomain,
    ControlNeeds,
    Core,
    Direction,
    MemorySpec,
    MemoryType,
    Port,
    PortCounts,
    ScanChain,
    SignalKind,
    Soc,
    functional_test,
    rebalance_lengths,
    scan_test,
    total_flops,
)
from repro.soc.bits import expand_port_bits


class TestPort:
    def test_basic_port(self):
        p = Port("clk", Direction.IN, SignalKind.CLOCK)
        assert p.is_input
        assert p.kind.is_test

    def test_functional_not_test(self):
        p = Port("d", Direction.IN)
        assert not p.kind.is_test

    def test_clock_must_be_input(self):
        with pytest.raises(ValueError):
            Port("clk", Direction.OUT, SignalKind.CLOCK)

    def test_scan_in_must_be_input(self):
        with pytest.raises(ValueError):
            Port("si", Direction.OUT, SignalKind.SCAN_IN)

    def test_scan_out_must_be_output(self):
        with pytest.raises(ValueError):
            Port("so", Direction.IN, SignalKind.SCAN_OUT)

    def test_width_positive(self):
        with pytest.raises(ValueError):
            Port("d", Direction.IN, width=0)

    @pytest.mark.parametrize("field, value", [
        ("width", True), ("width", 2.0), ("run", True), ("run", 2.0),
    ])
    def test_width_and_run_must_be_ints(self, field, value):
        """The chip digest writes a width by its value: ``True`` and
        ``2.0`` must not pass for ``1`` and ``2``."""
        with pytest.raises(ValueError, match=re.escape(
                f"port 'd': {field} must be an int, got {value!r}")):
            Port("d", Direction.IN, **{field: value})

    def test_port_counts_widths(self):
        ports = [
            Port("a", Direction.IN, width=8),
            Port("b", Direction.OUT, width=3),
            Port("si", Direction.IN, SignalKind.SCAN_IN),
            Port("so", Direction.OUT, SignalKind.SCAN_OUT),
        ]
        c = PortCounts.of(ports)
        assert (c.pi, c.po, c.ti, c.to) == (8, 3, 1, 1)

    def test_inout_counts_both_sides(self):
        c = PortCounts.of([Port("x", Direction.INOUT, width=4)])
        assert c.pi == 4 and c.po == 4


class TestPortRuns:
    """``Port(run=n)`` stands for ``n`` single-bit functional terminals."""

    def test_bits_and_tallies(self):
        run = Port("c_pi", Direction.IN, run=38)
        assert expand_port_bits(run) == [f"c_pi{i}" for i in range(38)]
        assert expand_port_bits(Port("c_pi", Direction.IN, run=1)) == ["c_pi0"]
        c = PortCounts.of([run, Port("c_pb", Direction.INOUT, run=2), Port("q", Direction.OUT, width=3)])
        assert (c.pi, c.po, c.ti, c.to) == (40, 5, 0, 0)

    @pytest.mark.parametrize("changes, message", [
        ({"width": 2}, "run 'r' must be of single-bit functional terminals"),
        ({"kind": SignalKind.TEST}, "run 'r' must be of single-bit functional terminals"),
        ({"run": 0}, "run length must be positive, got 0"),
    ])
    def test_bad_run_refused(self, changes, message):
        with pytest.raises(ValueError, match=message):
            Port("r", Direction.IN, **{"run": 4, **changes})

    @pytest.mark.parametrize("ports, bit", [
        ([Port("c_pi", Direction.IN, run=38), Port("c_pi3", Direction.IN)], "c_pi3"),
        ([Port("c_p", Direction.IN, run=12), Port("c_p1", Direction.OUT, run=2)], "c_p10"),
    ])
    def test_repeated_bit_rejected(self, ports, bit):
        for order in (ports, ports[::-1]):
            with pytest.raises(ValueError, match=f"duplicate port '{bit}' on core 'c'"):
                Core("c", ports=order)

    def test_chain_may_name_a_run_bit(self):
        core = Core("c", ports=[Port("si", Direction.IN, SignalKind.SCAN_IN),
                                Port("c_po", Direction.OUT, run=4)],
                    scan_chains=[ScanChain("ch", 5, "si", "c_po3")])
        assert core.counts.po == 4


class TestScanChain:
    def test_chain_fields(self):
        ch = ScanChain("c0", 100, "si", "so")
        assert ch.length == 100

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            ScanChain("c0", 0, "si", "so")

    def test_total_flops(self):
        chains = [ScanChain("a", 10, "si0", "so0"), ScanChain("b", 20, "si1", "so1")]
        assert total_flops(chains) == 30


class TestRebalance:
    def test_even_split(self):
        assert rebalance_lengths(100, 4) == [25, 25, 25, 25]

    def test_uneven_split(self):
        assert rebalance_lengths(10, 4) == [3, 3, 2, 2]

    def test_width_exceeds_total(self):
        assert rebalance_lengths(3, 8) == [1, 1, 1]

    def test_zero_total(self):
        assert rebalance_lengths(0, 4) == []

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            rebalance_lengths(10, 0)

    @given(total=st.integers(0, 10_000), width=st.integers(1, 64))
    def test_property_sum_and_balance(self, total, width):
        lengths = rebalance_lengths(total, width)
        assert sum(lengths) == total
        assert len(lengths) <= width
        if lengths:
            assert max(lengths) - min(lengths) <= 1
            assert all(l > 0 for l in lengths)


class TestClockDomain:
    @pytest.mark.parametrize("freq", [float("nan"), float("inf")])
    def test_non_finite_frequency_refused(self, freq):
        with pytest.raises(ValueError, match="clock frequency must be finite"):
            ClockDomain("clk", freq)


class TestCore:
    def _core(self):
        ports = [
            Port("clk", Direction.IN, SignalKind.CLOCK),
            Port("rst", Direction.IN, SignalKind.RESET),
            Port("se", Direction.IN, SignalKind.SCAN_ENABLE),
            Port("si", Direction.IN, SignalKind.SCAN_IN),
            Port("so", Direction.OUT, SignalKind.SCAN_OUT),
            Port("d", Direction.IN, width=8),
            Port("q", Direction.OUT, width=8),
        ]
        chains = [ScanChain("c0", 50, "si", "so")]
        return Core("demo", ports=ports, scan_chains=chains, tests=[scan_test(10)])

    def test_counts(self):
        c = self._core().counts
        assert (c.ti, c.to, c.pi, c.po) == (4, 1, 8, 8)

    def test_control_needs(self):
        needs = self._core().control_needs
        assert needs == ControlNeeds(clocks=1, resets=1, test_enables=0, scan_enables=1)
        assert needs.total == 3

    def test_control_needs_add(self):
        a = ControlNeeds(1, 1, 0, 1)
        b = ControlNeeds(2, 0, 3, 0)
        assert (a + b).total == 8

    def test_scan_properties(self):
        core = self._core()
        assert core.has_scan
        assert core.scan_flops == 50
        assert core.chain_lengths == [50]

    def test_port_lookup(self):
        core = self._core()
        assert core.port("clk").kind is SignalKind.CLOCK
        with pytest.raises(KeyError):
            core.port("nope")

    def test_duplicate_port_rejected(self):
        with pytest.raises(ValueError, match="duplicate port"):
            Core("x", ports=[Port("a", Direction.IN), Port("a", Direction.IN)])

    def test_chain_with_unknown_port_rejected(self):
        with pytest.raises(ValueError, match="unknown scan-in"):
            Core("x", ports=[Port("so", Direction.OUT, SignalKind.SCAN_OUT)],
                 scan_chains=[ScanChain("c", 5, "missing", "so")])

    def test_pattern_tallies(self):
        core = Core("x", tests=[scan_test(10), functional_test(99)])
        assert core.scan_patterns == 10
        assert core.functional_patterns == 99


class TestMemorySpec:
    def test_geometry(self):
        m = MemorySpec("m0", 1024, 16)
        assert m.capacity_bits == 16_384
        assert m.address_bits == 10

    def test_address_bits_non_power_of_two(self):
        assert MemorySpec("m", 1000, 8).address_bits == 10
        assert MemorySpec("m", 1, 8).address_bits == 1

    def test_describe(self):
        assert MemorySpec("m", 2048, 16).describe() == "2Kx16 SP"
        assert MemorySpec("m", 100, 8, MemoryType.TWO_PORT).describe() == "100x8 TP"

    def test_two_port_flag(self):
        assert MemorySpec("m", 16, 4, MemoryType.TWO_PORT).is_two_port

    @pytest.mark.parametrize("power, message", [
        (float("nan"), "memory power must be finite"),
        (float("inf"), "memory power must be finite"),
        (-1.0, "memory power must be non-negative"),
    ])
    def test_bad_power_refused(self, power, message):
        """A NaN power used to reach the result document as ``"power":
        NaN`` (not JSON), and a negative one gave a negative session power."""
        with pytest.raises(ValueError, match=message):
            MemorySpec("m", 16, 8, power=power)
        assert MemorySpec("m", 16, 8, power=0.0).power == 0.0

    def test_nan_frequency_refused(self):
        with pytest.raises(ValueError, match="frequency must be finite"):
            MemorySpec("m", 16, 8, freq_mhz=float("nan"))


class TestSoc:
    def test_add_and_lookup(self):
        soc = Soc("chip")
        soc.add_core(Core("a"))
        soc.add_memory(MemorySpec("m", 16, 8))
        assert soc.core("a").name == "a"
        assert soc.memory("m").words == 16

    @pytest.mark.parametrize("power, message", [
        (float("nan"), "power budget must be finite, got nan"),
        (float("inf"), "power budget must be finite, got inf"),
        (-3.0, "power budget must be non-negative, got -3.0"),
    ])
    def test_bad_power_budget_refused(self, power, message):
        """NaN used to fail later as an infeasible schedule, inf to print
        ``"power_budget": Infinity`` (not JSON), and -3.0 to integrate."""
        with pytest.raises(ValueError, match=message):
            Soc("chip", power_budget=power)
        assert Soc("chip", power_budget=0.0).power_budget == 0.0

    def test_duplicate_core_rejected(self):
        soc = Soc("chip")
        soc.add_core(Core("a"))
        with pytest.raises(ValueError):
            soc.add_core(Core("a"))

    def test_duplicate_memory_rejected(self):
        soc = Soc("chip")
        soc.add_memory(MemorySpec("m", 16, 8))
        with pytest.raises(ValueError):
            soc.add_memory(MemorySpec("m", 32, 8))

    def test_missing_lookups_raise(self):
        soc = Soc("chip")
        with pytest.raises(KeyError):
            soc.core("a")
        with pytest.raises(KeyError):
            soc.memory("m")

    def test_gate_totals(self):
        soc = Soc("chip", gate_count=100)
        soc.add_core(Core("a", gate_count=50, wrapped=False))
        assert soc.total_gates == 150
        assert soc.wrapped_cores == []
