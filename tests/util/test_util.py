"""Utility helpers: table formatting."""

import pytest

from repro.util.tables import format_table


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456789e-9], [123456.789], [0.0]])
        assert "e-09" in out
        assert "e+05" in out or "123456" in out
        assert "0" in out
