"""The profiler is the tracer: ``self_times`` rendered by ``repro top``."""

import json
import time

import numpy as np

from repro import Component, RectDomain, Stencil, WeightArray, telemetry
from repro.__main__ import main
from repro.telemetry import tracing
from repro.telemetry.report import render_top


def _busy(seconds):
    """Spin inside a span nest for a known wall time."""
    with tracing.span("outer", cat="jit"):
        with tracing.span("hotspot", cat="kernel"):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < seconds:
                sum(range(500))


class TestSurfaces:
    def test_render_top_lists_hot_span(self):
        with tracing.session():
            _busy(0.02)
        out = render_top(limit=5)
        assert "hot paths (span self time)" in out
        lines = out.splitlines()
        # hottest self time first: the spin, not the span around it
        assert lines[3].split()[:3] == ["hotspot", "kernel", "1"]
        assert lines[4].split()[:3] == ["outer", "jit", "1"]
        assert "%" in lines[3]
        assert "2 spans over" in out
        assert "0 event(s) dropped" in out

    def test_render_top_limit_and_explicit_rows(self):
        rows = [
            {"name": f"s{i}", "cat": "kernel", "count": 1,
             "total_s": 1.0, "self_s": 1.0}
            for i in range(4)
        ]
        out = render_top(rows, limit=2)
        assert "s1" in out and "s2" not in out
        assert "25.0%" in out  # share is of all rows, not the shown ones
        assert "4 spans over 4 s" in out

    def test_render_top_reports_dropped_events(self, monkeypatch):
        monkeypatch.setattr(tracing, "SPAN_CAPACITY", 1)
        with tracing.session():
            _busy(0.001)
        assert "1 event(s) dropped" in render_top()

    def test_render_top_empty(self):
        tracing.clear()
        assert "no spans recorded" in render_top()

    def test_chrome_trace_export_is_valid(self, tmp_path, capsys):
        # `repro top --out` writes the tracer's own export: the spans
        # behind the table, not a second format
        path = tmp_path / "top.json"
        assert main(["top", "--backend", "numpy", "--size", "16",
                     "--calls", "3", "--out", str(path)]) == 0
        assert "kernel:" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert tracing.validate_chrome_trace(doc) == []
        assert tracing.self_times(doc["traceEvents"]) == tracing.self_times()
        calls = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["name"].startswith("kernel:")]
        assert len(calls) == 3


class TestNoHiddenState:
    def test_top_inside_a_session_leaves_the_call_path_unguarded(
        self, monkeypatch, capsys
    ):
        # regression: the sampler's stop() latched a module flag while
        # an outer session was open, and every later bound call took
        # the guards-and-span branch for the rest of the process
        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        kernel = Stencil(lap, "out", RectDomain((1, 1), (-1, -1))).compile(
            backend="numpy"
        )
        bound = kernel.bind(u=np.ones((8, 8)), out=np.zeros((8, 8)))
        assert not kernel.guards.enabled()

        with tracing.session():
            assert main(["top", "--backend", "numpy", "--size", "16",
                         "--calls", "2"]) == 0
        capsys.readouterr()
        assert not tracing.active()

        snapshots = []
        monkeypatch.setattr(
            type(kernel.guards), "snapshot_invariants",
            lambda self, arrays: snapshots.append(arrays),
        )
        before = telemetry.snapshot()["kernels"]["numpy"]["calls"]
        bound()
        assert snapshots == []
        assert telemetry.snapshot()["kernels"]["numpy"]["calls"] == before + 1
        with tracing.session():  # and the spy does see the guarded branch
            bound()
        assert len(snapshots) == 1
