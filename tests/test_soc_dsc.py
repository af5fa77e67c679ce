"""The DSC chip model must reproduce every published number in Table 1
and the Section 3 control-IO accounting."""

import pytest

from repro.soc import SignalKind, TestKind
from repro.soc.dsc import build_dsc_chip, table1


@pytest.fixture(scope="module")
def dsc():
    return build_dsc_chip()


class TestTable1:
    """Paper Table 1, reproduced exactly."""

    def test_usb_io_counts(self, dsc):
        c = dsc.core("USB").counts
        assert (c.ti, c.to, c.pi, c.po) == (18, 4, 221, 104)

    def test_tv_io_counts(self, dsc):
        c = dsc.core("TV").counts
        assert (c.ti, c.to, c.pi, c.po) == (6, 1, 25, 40)

    def test_jpeg_io_counts(self, dsc):
        c = dsc.core("JPEG").counts
        assert (c.ti, c.to, c.pi, c.po) == (1, 0, 165, 104)

    def test_usb_scan_chains(self, dsc):
        assert dsc.core("USB").chain_lengths == [1629, 78, 293, 45]

    def test_tv_scan_chains(self, dsc):
        assert dsc.core("TV").chain_lengths == [577, 576]

    def test_jpeg_no_scan(self, dsc):
        assert not dsc.core("JPEG").has_scan

    def test_pattern_counts(self, dsc):
        assert dsc.core("USB").scan_patterns == 716
        assert dsc.core("TV").scan_patterns == 229
        assert dsc.core("TV").functional_patterns == 202_673
        assert dsc.core("JPEG").functional_patterns == 235_696

    def test_table_renders_all_three_cores(self, dsc):
        text = table1(dsc).render()
        for token in ("USB", "TV", "JPEG", "1629", "577", "202,673", "235,696"):
            assert token in text


class TestControlIos:
    """Section 3: 'total test IOs of the three large cores are 19,
    including 6 clock signals, 4 reset signals, 7 test enable signals,
    and 2 SE signals'."""

    def test_total_is_19(self, dsc):
        assert sum(c.control_needs.total for c in dsc.wrapped_cores) == 19

    def test_class_breakdown(self, dsc):
        needs = [dsc.core(n).control_needs for n in ("USB", "TV", "JPEG")]
        total = needs[0] + needs[1] + needs[2]
        assert total.clocks == 6
        assert total.resets == 4
        assert total.test_enables == 7
        assert total.scan_enables == 2

    def test_usb_clock_domains(self, dsc):
        usb = dsc.core("USB")
        assert len(usb.clock_domains) == 4
        assert len(usb.ports_of_kind(SignalKind.CLOCK)) == 4

    def test_tv_shared_scan_output(self, dsc):
        tv = dsc.core("TV")
        shared = [c for c in tv.scan_chains if c.shares_functional_output]
        assert len(shared) == 1
        # the shared chain's scan-out is a functional port
        assert tv.port(shared[0].scan_out).kind is SignalKind.FUNCTIONAL


class TestChipLevel:
    def test_tens_of_memories(self, dsc):
        assert 20 <= len(dsc.memories) <= 30

    def test_memory_mix(self, dsc):
        types = {m.mem_type.value for m in dsc.memories}
        assert types == {"SP", "TP"}

    def test_wrapped_cores(self, dsc):
        assert sorted(c.name for c in dsc.wrapped_cores) == ["JPEG", "TV", "USB"]

    def test_unwrapped_cores_present(self, dsc):
        assert not dsc.core("CPU").wrapped
        assert not dsc.core("EMI").wrapped

    def test_gate_count_scale(self, dsc):
        # the 0.3% overhead figure implies a chip of roughly 170k gates
        assert 120_000 <= dsc.total_gates <= 250_000

    def test_bist_memories_have_power(self, dsc):
        assert all(m.power > 0 for m in dsc.memories)

    def test_test_kinds_present(self, dsc):
        kinds = {t.kind for c in dsc.cores for t in c.tests}
        assert TestKind.SCAN in kinds and TestKind.FUNCTIONAL in kinds
