"""Tests for soft-core scan-chain rebalancing feedback (paper §2: the
scheduler 'will then rebalance scan chains for each assigned TAM width;
the results can be fed back to the SOC integrator')."""

from hypothesis import given, strategies as st

from repro.sched import (
    rebalance_advice,
    rebalance_report,
    schedule_sessions,
    tasks_from_soc,
)
from repro.soc import Core, CoreType, Direction, Port, ScanChain, SignalKind, Soc, scan_test


def soft_core(name="soft", lengths=(100, 50, 30)) -> Core:
    ports = [
        Port(f"{name}_clk", Direction.IN, SignalKind.CLOCK),
        Port(f"{name}_se", Direction.IN, SignalKind.SCAN_ENABLE),
    ]
    chains = []
    for i, length in enumerate(lengths):
        ports.append(Port(f"{name}_si{i}", Direction.IN, SignalKind.SCAN_IN))
        ports.append(Port(f"{name}_so{i}", Direction.OUT, SignalKind.SCAN_OUT))
        chains.append(ScanChain(f"{name}_c{i}", length, f"{name}_si{i}", f"{name}_so{i}"))
    return Core(
        name,
        core_type=CoreType.SOFT,
        ports=ports,
        scan_chains=chains,
        tests=[scan_test(20, name=f"{name}_scan")],
    )


class TestRebalanceAdvice:
    def test_basic(self):
        advice = rebalance_advice(soft_core(), width=4)
        assert advice.assigned_width == 4
        assert sum(advice.new_lengths) == 180
        assert advice.new_max == 45
        assert advice.old_max == 100

    def test_width_one_merges(self):
        advice = rebalance_advice(soft_core(), width=1)
        assert advice.new_lengths == (180,)

    @given(width=st.integers(1, 12))
    def test_property_rebalance_never_worse(self, width):
        """Rebalanced max length never exceeds the old max when width >=
        the original chain count."""
        core = soft_core()
        advice = rebalance_advice(core, width)
        assert sum(advice.new_lengths) == core.scan_flops
        if width >= len(core.scan_chains):
            assert advice.new_max <= advice.old_max


class TestRebalanceReport:
    def test_report_lists_soft_scanned_cores(self):
        soc = Soc("s", test_pins=24)
        soc.add_core(soft_core("alpha"))
        result = schedule_sessions(soc, tasks_from_soc(soc))
        text = rebalance_report(soc, result).render()
        assert "alpha" in text

    def test_hard_cores_excluded(self):
        soc = Soc("s", test_pins=24)
        core = soft_core("hardy")
        core.core_type = CoreType.HARD
        soc.add_core(core)
        result = schedule_sessions(soc, tasks_from_soc(soc))
        text = rebalance_report(soc, result).render()
        assert "hardy" not in text

    def test_rebalance_improves_test_time(self):
        """The point of the feedback: a soft core at width 4 tests faster
        after re-stitching than the same chains treated as fixed."""
        from repro.sched import ScanTimeModel

        soft = soft_core("x", lengths=(150, 20, 10))
        hard = soft_core("y", lengths=(150, 20, 10))
        hard.core_type = CoreType.HARD
        assert ScanTimeModel.for_core(soft, 10)(4) < ScanTimeModel.for_core(hard, 10)(4)
