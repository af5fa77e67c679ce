"""Tests for repro.util helpers."""

import errno
import os
import stat
import sys
import threading

import pytest

from repro.util import (
    Table,
    check_name,
    check_non_negative,
    check_positive,
    format_cycles,
    format_gates,
    publish,
)


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


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDiskHandle:
    """``os.fdopen`` over a disk with no space left: the write raises."""

    def __init__(self, fd, mode, real=os.fdopen):
        self.handle = real(fd, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        _no_space()


class TestPublish:
    @pytest.mark.parametrize("old", [b"old bytes\n", None], ids=["replacing", "creating"])
    @pytest.mark.parametrize("step, fault", [
        ("open", _no_space),
        ("fdopen", _FullDiskHandle),
        ("fsync", _no_space),
        ("replace", _no_space),
    ], ids=["create", "write", "fsync", "replace"])
    def test_a_fault_leaves_the_old_file_and_no_temp(self, tmp_path, monkeypatch,
                                                     step, fault, old):
        path = tmp_path / "doc.json"
        if old is not None:
            path.write_bytes(old)
        monkeypatch.setattr(os, step, fault)
        with pytest.raises(OSError) as raised:
            publish(path, "new text\n")
        monkeypatch.undo()
        assert raised.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == ([path] if old is not None else [])
        if old is not None:
            assert path.read_bytes() == old

    def test_writes_text_as_utf8_and_bytes_verbatim(self, tmp_path):
        path = tmp_path / "doc"
        publish(path, "d\u00e9 x\n")
        assert path.read_bytes() == "d\u00e9 x\n".encode("utf-8")
        publish(str(path), b"\x00raw")
        assert path.read_bytes() == b"\x00raw"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_what_open_for_writing_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            publish(tmp_path / "published", "x")
            with open(tmp_path / "opened", "w") as handle:
                handle.write("x")
        finally:
            os.umask(previous)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("published", "opened")]
        assert modes[0] == modes[1] == 0o666 & ~umask

    def test_concurrent_publishers_leave_one_complete_body(self, tmp_path):
        """More writer threads than cores, switching often: a shared
        temp name would interleave two bodies or lose a rename."""
        path = tmp_path / "shared.json"
        writers = min((os.cpu_count() or 1) + 2, 16)
        bodies = [bytes([ord("a") + i]) * 200_000 for i in range(writers)]
        start = threading.Barrier(len(bodies))
        errors = []

        def writer(body):
            start.wait()
            try:
                for _ in range(10):
                    publish(path, body)
                    assert path.read_bytes() in bodies
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(body,)) for body in bodies]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_bytes() in bodies
        assert list(tmp_path.iterdir()) == [path]
