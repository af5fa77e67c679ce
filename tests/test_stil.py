"""Tests for the STIL tokenizer, parser, writer and semantic extraction."""

import pytest
from hypothesis import given, strategies as st

from repro.patterns.core_patterns import CorePatternSet, FunctionalVector, ScanVector
from repro.soc import (
    Core,
    CoreTest,
    CoreType,
    Direction,
    Port,
    ScanChain,
    SignalKind,
    TestKind,
    functional_test,
    scan_test,
)
from repro.soc.dsc import build_jpeg_core, build_tv_core, build_usb_core
from repro.soc.bits import expand_port_bits, functional_signal_order
from repro.stil import (
    StilError,
    core_from_stil,
    core_to_stil,
    parse,
    parse_ann,
    tokenize,
)


class TestTokenizer:
    def test_words_and_punct(self):
        tokens = tokenize("STIL 1.0;")
        assert [(t.kind, t.value) for t in tokens[:3]] == [
            ("WORD", "STIL"),
            ("WORD", "1.0"),
            ("PUNCT", ";"),
        ]

    def test_strings(self):
        tokens = tokenize('"usb_clk0" In;')
        assert tokens[0].kind == "STRING"
        assert tokens[0].value == "usb_clk0"

    def test_ticked(self):
        tokens = tokenize("Period '100ns';")
        assert tokens[1].kind == "TICKED"
        assert tokens[1].value == "100ns"

    def test_annotation(self):
        tokens = tokenize("Ann {* kind=clock domain=c0 *}")
        assert tokens[1].kind == "ANN"
        assert tokens[1].value == "kind=clock domain=c0"

    def test_comments_skipped(self):
        tokens = tokenize("// nothing\nA; /* block\ncomment */ B;")
        words = [t.value for t in tokens if t.kind == "WORD"]
        assert words == ["A", "B"]

    def test_line_numbers(self):
        tokens = tokenize("A;\nB;\n\nC;")
        lines = {t.value: t.line for t in tokens if t.kind == "WORD"}
        assert lines == {"A": 1, "B": 2, "C": 4}

    def test_unterminated_string_raises(self):
        with pytest.raises(StilError):
            tokenize('"abc')

    def test_unterminated_comment_raises(self):
        with pytest.raises(StilError):
            tokenize("/* abc")

    def test_vector_data_is_word(self):
        tokens = tokenize("0101XHLZ;")
        assert tokens[0].kind == "WORD"
        assert tokens[0].value == "0101XHLZ"


class TestParser:
    def test_version(self):
        assert parse("STIL 1.0;").version == "1.0"

    def test_missing_magic_raises(self):
        with pytest.raises(StilError):
            parse("Signals { }")

    def test_simple_block(self):
        stil = parse('STIL 1.0; Signals { "a" In; "b" Out; }')
        block = stil.find("Signals")
        assert [c.keyword for c in block.children] == ["a", "b"]
        assert [c.arg for c in block.children] == ["In", "Out"]

    def test_nested_blocks(self):
        stil = parse('STIL 1.0; ScanStructures { ScanChain "c0" { ScanLength 5; } }')
        chain = stil.find("ScanStructures").find("ScanChain")
        assert chain.arg == "c0"
        assert chain.find("ScanLength").arg == "5"

    def test_assignment(self):
        stil = parse('STIL 1.0; V { "si" = 0101; }')
        v = stil.find("V")
        assert v.assignments() == {"si": "0101"}

    def test_multiline_data_rejoined(self):
        stil = parse('STIL 1.0; V { "si" = 0101\n1100; }')
        assert stil.find("V").assignments() == {"si": "01011100"}

    def test_group_expression(self):
        stil = parse("STIL 1.0; SignalGroups { \"_pi\" = '\"a\" + \"b\"'; }")
        groups = stil.find("SignalGroups")
        assign = groups.children[0]
        assert assign.is_assign
        assert assign.keyword == "_pi"

    def test_annotation_statement(self):
        stil = parse("STIL 1.0; Header { Ann {* core=USB *} }")
        ann = stil.find("Header").find("Ann")
        assert ann.arg == "core=USB"

    def test_annotation_after_keyword(self):
        stil = parse("STIL 1.0; Pattern \"p\" { Ann {* test=scan *} V { } }")
        pattern = stil.find("Pattern")
        assert pattern.find("Ann").args[-1] == "test=scan"

    def test_unclosed_block_raises(self):
        with pytest.raises(StilError):
            parse("STIL 1.0; Signals {")

    def test_stray_punct_raises(self):
        with pytest.raises(StilError):
            parse("STIL 1.0; }")

    def test_find_with_name(self):
        stil = parse('STIL 1.0; Pattern "a" { } Pattern "b" { }')
        assert stil.find("Pattern", "b").arg == "b"
        assert len(list(stil.find_all("Pattern"))) == 2


class TestParseAnn:
    def test_pairs(self):
        assert parse_ann("kind=clock domain=c0") == {"kind": "clock", "domain": "c0"}

    def test_ignores_bare_words(self):
        assert parse_ann("hello kind=reset") == {"kind": "reset"}

    def test_empty(self):
        assert parse_ann("") == {}


def _tiny_core() -> Core:
    ports = [
        Port("clk", Direction.IN, SignalKind.CLOCK, clock_domain="main"),
        Port("rst", Direction.IN, SignalKind.RESET),
        Port("se", Direction.IN, SignalKind.SCAN_ENABLE),
        Port("si0", Direction.IN, SignalKind.SCAN_IN),
        Port("so0", Direction.OUT, SignalKind.SCAN_OUT),
        Port("d", Direction.IN, width=4),
        Port("q", Direction.OUT, width=2),
    ]
    chains = [ScanChain("c0", 3, "si0", "so0")]
    return Core(
        "tiny",
        core_type=CoreType.SOFT,
        ports=ports,
        scan_chains=chains,
        tests=[scan_test(2, name="t_scan", power=1.5), functional_test(2, name="t_func")],
        gate_count=123,
    )


def _tiny_patterns() -> CorePatternSet:
    return CorePatternSet(
        core_name="tiny",
        pi_order=["d[3]", "d[2]", "d[1]", "d[0]"],
        po_order=["q[1]", "q[0]"],
        chain_order=["c0"],
        scan_vectors=[
            ScanVector(loads={"c0": "010"}, pi="1100", expected_po="HL", unloads={"c0": "LHL"}),
            ScanVector(loads={"c0": "111"}, pi="0011", expected_po="LH", unloads={"c0": "HHH"}),
        ],
        functional_vectors=[
            FunctionalVector(pi="0000", expected_po="LL"),
            FunctionalVector(pi="1111", expected_po="HH"),
        ],
    )


class TestWriter:
    def test_expand_port_bits(self):
        assert expand_port_bits(Port("d", Direction.IN, width=3)) == ["d[2]", "d[1]", "d[0]"]
        assert expand_port_bits(Port("x", Direction.IN)) == ["x"]

    def test_functional_signal_order(self):
        pi, po = functional_signal_order(_tiny_core())
        assert pi == ["d[3]", "d[2]", "d[1]", "d[0]"]
        assert po == ["q[1]", "q[0]"]

    def test_writer_emits_sections(self):
        text = core_to_stil(_tiny_core())
        for section in ("Signals", "SignalGroups", "ScanStructures", "Timing",
                        "Procedures", "PatternBurst", "PatternExec", "Pattern"):
            assert section in text

    def test_writer_parses_back(self):
        parse(core_to_stil(_tiny_core()))  # must not raise


class TestRoundTrip:
    def test_core_metadata(self):
        ex = core_from_stil(core_to_stil(_tiny_core()))
        assert ex.core.name == "tiny"
        assert ex.core.core_type is CoreType.SOFT
        assert ex.core.gate_count == 123

    def test_counts_and_chains(self):
        orig = _tiny_core()
        ex = core_from_stil(core_to_stil(orig))
        assert ex.core.counts == orig.counts
        assert ex.core.chain_lengths == orig.chain_lengths
        assert ex.core.control_needs == orig.control_needs

    def test_tests_preserved(self):
        ex = core_from_stil(core_to_stil(_tiny_core()))
        assert [(t.name, t.kind.value, t.patterns, t.power) for t in ex.core.tests] == [
            ("t_scan", "scan", 2, 1.5),
            ("t_func", "functional", 2, 0.0),
        ]

    def test_vectors_preserved(self):
        orig_patterns = _tiny_patterns()
        ex = core_from_stil(core_to_stil(_tiny_core(), orig_patterns))
        assert ex.patterns.scan_vectors == orig_patterns.scan_vectors
        assert ex.patterns.functional_vectors == orig_patterns.functional_vectors
        assert ex.patterns.pi_order == orig_patterns.pi_order
        assert ex.patterns.chain_order == orig_patterns.chain_order

    @pytest.mark.parametrize("builder", [build_usb_core, build_tv_core, build_jpeg_core])
    def test_dsc_cores_round_trip(self, builder):
        orig = builder()
        ex = core_from_stil(core_to_stil(orig))
        assert ex.core.counts == orig.counts
        assert ex.core.chain_lengths == orig.chain_lengths
        assert ex.core.control_needs == orig.control_needs
        assert [(t.kind, t.patterns) for t in ex.core.tests] == [
            (t.kind, t.patterns) for t in orig.tests
        ]

    @given(
        loads=st.lists(
            st.text(alphabet="01X", min_size=3, max_size=3), min_size=1, max_size=5
        )
    )
    def test_property_scan_loads_survive(self, loads):
        core = _tiny_core()
        patterns = CorePatternSet(
            core_name="tiny",
            chain_order=["c0"],
            scan_vectors=[ScanVector(loads={"c0": bits}) for bits in loads],
        )
        ex = core_from_stil(core_to_stil(core, patterns))
        assert [v.loads["c0"] for v in ex.patterns.scan_vectors] == loads


class TestSemanticErrors:
    def test_no_signals_block(self):
        with pytest.raises(StilError, match="no Signals"):
            core_from_stil("STIL 1.0; Header { }")

    def test_bad_direction(self):
        with pytest.raises(StilError, match="bad direction"):
            core_from_stil('STIL 1.0; Signals { "a" Sideways; }')

    def test_bad_kind_tag(self):
        with pytest.raises(StilError, match="unknown signal kind"):
            core_from_stil('STIL 1.0; Signals { "a" In { Ann {* kind=banana *} } }')

    def test_incomplete_chain(self):
        text = 'STIL 1.0; Signals { "a" In; } ScanStructures { ScanChain "c" { ScanLength 5; } }'
        with pytest.raises(StilError, match="missing fields"):
            core_from_stil(text)

    def test_count_only_pattern_block(self):
        text = (
            'STIL 1.0; Signals { "a" In; } '
            'Pattern "p" { Ann {* test=functional patterns=1234 power=2.0 *} }'
        )
        ex = core_from_stil(text)
        assert ex.core.tests[0].patterns == 1234
        assert ex.core.tests[0].power == 2.0
        assert ex.patterns.functional_vectors == []

    @pytest.mark.parametrize("power", ["nan", "NaN", "inf", "Infinity", "-inf"])
    def test_non_finite_power_refused(self, power):
        """``float()`` reads these, and ``nan < 0`` is false: without the
        finiteness check a NaN power reached the schedule document as
        ``"power": NaN``, which is not JSON."""
        text = (
            'STIL 1.0; Signals { "a" In; } '
            f'Pattern "p" {{ Ann {{* test=functional patterns=1 power={power} *}} }}'
        )
        with pytest.raises(ValueError, match="test power must be"):
            core_from_stil(text)

    @pytest.mark.parametrize("power", [float("nan"), float("inf")])
    def test_core_test_refuses_non_finite_power(self, power):
        with pytest.raises(ValueError, match="test power must be finite"):
            CoreTest(name="t", kind=TestKind.SCAN, patterns=1, power=power)
        assert CoreTest(name="t", kind=TestKind.SCAN, patterns=1, power=1e300).power == 1e300
