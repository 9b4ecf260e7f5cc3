"""Utility helpers: timing and table formatting."""

import time

import pytest

from repro.util.tables import format_table
from repro.util.timing import best_of, time_callable


class TestTiming:
    def test_time_callable_counts(self):
        calls = []
        times = time_callable(lambda: calls.append(1), warmup=2, repeats=3)
        assert len(times) == 3
        assert len(calls) == 5

    def test_best_of_is_min(self):
        ts = iter([0.0, 0.3, 0.0, 0.1, 0.0, 0.2])

        def fn():
            time.sleep(0.001)

        assert best_of(fn, warmup=0, repeats=3) > 0


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
