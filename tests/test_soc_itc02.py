"""Tests for the ITC'02 benchmark parser and the embedded d695 instance."""

import pytest

from repro.soc import TestKind
from repro.soc.itc02 import (
    Itc02Module,
    d695_modules,
    d695_soc,
    d695_soc_text,
    module_to_core,
    parse_soc,
)


class TestParser:
    def test_parse_simple_module(self):
        mods = parse_soc("Module m1 Inputs 3 Outputs 2 Bidirs 0 Patterns 7\n")[1]
        assert mods == [Itc02Module("m1", 3, 2, 0, (), 7)]

    def test_parse_scan_chains(self):
        mods = parse_soc("Module m Inputs 1 Outputs 1 Bidirs 0 ScanChains 2 10 20 Patterns 5")[1]
        assert mods[0].scan_chain_lengths == (10, 20)
        assert mods[0].scan_flops == 30

    def test_comments_and_blank_lines(self):
        text = "# comment\nSocName x\n\nModule m Inputs 1 Outputs 1 Bidirs 0 Patterns 1\n"
        assert len(parse_soc(text)[1]) == 1

    def test_bad_directive_raises(self):
        with pytest.raises(ValueError):
            parse_soc("Banana m1\n")

    def test_truncated_scanchains_raises(self):
        with pytest.raises(ValueError):
            parse_soc("Module m Inputs 1 Outputs 1 Bidirs 0 ScanChains 3 10 20 Patterns 5")

    @pytest.mark.parametrize("text", ["Module", "Module m Inputs", "Module m Inputs 1 Patterns"])
    def test_truncated_line_raises_value_error(self, text):
        """A truncated line used to raise IndexError, which serve did not
        expect from ``.soc`` text: the request got no answer."""
        with pytest.raises(ValueError):
            parse_soc(text)

    @pytest.mark.parametrize("text, message", [
        ("Module m Inputs -1 Outputs 1 Bidirs 0 Patterns 3",
         "module 'm': Inputs must be non-negative, got -1"),
        ("Module m Inputs 1 Outputs -2 Patterns 3", "module 'm': Outputs must be non-negative"),
        ("Module m Inputs 1 Bidirs -3 Patterns 3", "module 'm': Bidirs must be non-negative"),
        ("Module m Inputs 1 Outputs 1 Bidirs 0 Patterns 3 Bogus 7", "module 'm': unknown key 'Bogus'"),
        ("Module m Inputs 2 Inputs 5 Patterns 3", "module 'm': Inputs given twice"),
    ])
    def test_malformed_module_raises_value_error(self, text, message):
        """These used to parse: a negative count made no ports, an
        unknown key was ignored and a repeated key's last value won."""
        with pytest.raises(ValueError, match=message):
            parse_soc(text)

    def test_omitted_key_means_zero(self):
        assert parse_soc("Module m Patterns 4")[1] == [Itc02Module("m", 0, 0, 0, (), 4)]

    def test_round_trip_d695(self):
        text = d695_soc_text()
        assert parse_soc(text)[1] == d695_modules()


class TestD695:
    def test_ten_cores(self):
        assert len(d695_modules()) == 10

    def test_combinational_cores_have_no_scan(self):
        byname = {m.name: m for m in d695_modules()}
        assert byname["c6288"].scan_chain_lengths == ()
        assert byname["c7552"].scan_chain_lengths == ()

    def test_flop_totals(self):
        byname = {m.name: m for m in d695_modules()}
        assert byname["s38417"].scan_flops == 1636
        assert byname["s35932"].scan_flops == 1728
        assert byname["s13207"].scan_flops == 638

    def test_chain_lengths_balanced(self):
        for m in d695_modules():
            if m.scan_chain_lengths:
                assert max(m.scan_chain_lengths) - min(m.scan_chain_lengths) <= 1

    def test_soc_build(self):
        soc = d695_soc(test_pins=64)
        assert len(soc.cores) == 10
        assert soc.test_pins == 64
        assert all(c.wrapped for c in soc.cores)


class TestModuleToCore:
    def test_scan_module_gets_control_ports(self):
        m = Itc02Module("m", 2, 2, 0, (10, 10), 5)
        core = module_to_core(m)
        needs = core.control_needs
        assert needs.clocks == 1 and needs.resets == 1 and needs.scan_enables == 1
        assert core.scan_flops == 20

    def test_combinational_module_minimal_controls(self):
        m = Itc02Module("m", 2, 2, 0, (), 5)
        core = module_to_core(m)
        assert core.control_needs.total == 1  # clock only
        assert not core.has_scan

    def test_io_counts_preserved(self):
        m = Itc02Module("m", 7, 3, 2, (), 5)
        c = module_to_core(m).counts
        assert c.pi == 7 + 2 and c.po == 3 + 2

    def test_tests_kind(self):
        scan_core = module_to_core(Itc02Module("a", 1, 1, 0, (5,), 3))
        func_core = module_to_core(Itc02Module("b", 1, 1, 0, (), 3))
        assert scan_core.tests[0].is_scan
        assert func_core.tests[0].kind is TestKind.FUNCTIONAL
