"""Tests for repro.util helpers."""

import pytest

from repro.util import Table, check_name, check_non_negative, check_positive, format_cycles, format_gates


class TestTable:
    def test_render_basic(self):
        t = Table(["A", "B"])
        t.add_row(["x", 1])
        out = t.render()
        assert "A" in out and "B" in out
        assert "x" in out and "1" in out

    def test_render_alignment(self):
        t = Table(["Name", "N"])
        t.add_row(["longer-name", 5])
        t.add_row(["s", 10])
        lines = t.render().splitlines()
        # header, separator, two rows
        assert len(lines) == 4
        assert lines[1].count("+") == 1

    def test_title_line(self):
        t = Table(["A"], title="My Title")
        t.add_row([1])
        assert t.render().splitlines()[0] == "My Title"

    def test_wrong_cell_count_raises(self):
        t = Table(["A", "B"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_str_matches_render(self):
        t = Table(["A"])
        t.add_row([1])
        assert str(t) == t.render()

    def test_non_string_cells_stringified(self):
        t = Table(["A"])
        t.add_row([3.5])
        assert "3.5" in t.render()


class TestFormatters:
    def test_format_gates_small(self):
        assert format_gates(371) == "371 gates"

    def test_format_gates_large(self):
        assert format_gates(25_000) == "25.0k gates"

    def test_format_cycles(self):
        assert format_cycles(4_371_194) == "4,371,194"


class TestValidators:
    def test_check_positive_accepts(self):
        check_positive(1, "x")
        check_positive(0.5, "x")

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive(0, "x")

    def test_check_non_negative_accepts_zero(self):
        check_non_negative(0, "x")

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative(-1, "x")

    @pytest.mark.parametrize("check", [check_positive, check_non_negative])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, check, value):
        """``nan <= 0`` is false: a bare comparison let NaN (and inf) through."""
        with pytest.raises(ValueError, match=f"x must be finite, got {value!r}"):
            check(value, "x")

    def test_huge_int_is_finite(self):
        check_positive(10**400, "x")
        check_non_negative(10**400, "x")

    def test_check_name_accepts_identifiers(self):
        assert check_name("usb_clk0") == "usb_clk0"
        assert check_name("data[3]") == "data[3]"
        assert check_name("u_top.u_core") == "u_top.u_core"

    def test_check_name_rejects_bad(self):
        with pytest.raises(ValueError):
            check_name("3abc")
        with pytest.raises(ValueError):
            check_name("")
        with pytest.raises(ValueError):
            check_name("a b")
