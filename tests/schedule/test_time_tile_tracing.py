"""Tracing coverage for the temporally-blocked execution paths.

A time-tiled run must be observable: the bound call opens one
``time_tile`` span carrying ``k``, the backend and whether the
applications were lagged, on every backend; each stencil application of
the interpreters nests under it, and the resulting document exports as
a valid Chrome trace.  Instrumentation must also be inert — a traced
tiled run returns bitwise the same arrays as an untraced one.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import tracing
from tests.schedule.test_time_tile import (
    gsrb_case,
    smooth_case,
)


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    monkeypatch.delenv("SNOWFLAKE_TELEMETRY", raising=False)
    telemetry.set_mode(None)
    telemetry.reset()
    tracing.clear()
    yield
    telemetry.set_mode(None)
    telemetry.reset()
    tracing.clear()


#: the backends whose traced tiles are checked: the interpreters, whose
#: per-stencil spans nest under the tile's, and the C walker
BACKENDS = ("python", "numpy", "c")
INTERPRETERS = ("python", "numpy")


def _run_tiled(group, shapes, arrays, k, backend="numpy"):
    work = {g: a.copy() for g, a in arrays.items()}
    kernel = group.compile(
        backend=backend, shapes=shapes, dtype=np.float64, time_tile=k
    )
    kernel(**work)
    return work


class TestTimeTileSpans:
    def test_run_opens_one_time_tile_span(self):
        # single-step and multi-step programs take the same path, on
        # every backend: the span is the bound call's, not the backend's
        for backend in BACKENDS:
            for case in (gsrb_case, smooth_case):
                group, shapes, arrays = case()
                with tracing.session(fresh=True):
                    _run_tiled(group, shapes, arrays, k=3, backend=backend)
                (span,) = [
                    e for e in tracing.events() if e["name"] == "time_tile"
                ]
                assert span["args"]["k"] == 3
                assert span["args"]["backend"] == backend
                assert span["args"]["lagged"] is False
                assert span["args"]["parent"] == f"kernel:{group.name}"
                assert "kind" not in span["args"]

    def test_lagged_tile_says_so(self, always_lag):
        # c runs the lagged applications in one FFI call: the span is
        # still opened once, and says the applications were lagged
        group, shapes, arrays = smooth_case()
        with tracing.session(fresh=True):
            _run_tiled(group, shapes, arrays, k=3, backend="c")
        (span,) = [e for e in tracing.events() if e["name"] == "time_tile"]
        assert span["args"]["k"] == 3 and span["args"]["lagged"] is True

    def test_untiled_call_opens_no_time_tile_span(self):
        group, shapes, arrays = gsrb_case()
        with tracing.session(fresh=True):
            _run_tiled(group, shapes, arrays, k=1, backend="c")
        names = {e["name"] for e in tracing.events()}
        assert f"kernel:{group.name}" in names and "time_tile" not in names

    def test_stencil_spans_nest_under_time_tile(self):
        for backend in INTERPRETERS:
            group, shapes, arrays = gsrb_case()
            with tracing.session(fresh=True):
                _run_tiled(group, shapes, arrays, k=3, backend=backend)
            stencil_spans = [
                e for e in tracing.events()
                if e["name"].startswith("stencil:")
            ]
            assert stencil_spans, "expected per-stencil spans inside the tile"
            for ev in stencil_spans:
                assert ev["cat"] == "kernel"
                assert ev["args"]["backend"] == backend
                assert ev["args"]["parent"] == "time_tile"


class TestFusedSpans:
    def test_fused_records_every_application(self):
        group, shapes, arrays = smooth_case()
        k = 2
        for backend in INTERPRETERS:
            with tracing.session(fresh=True):
                _run_tiled(group, shapes, arrays, k=k, backend=backend)
            stencil_spans = [
                e for e in tracing.events()
                if e["name"].startswith("stencil:")
            ]
            # k applications of every stencil in the group, all parented
            assert len(stencil_spans) == k * len(group)
            assert all(
                e["args"]["parent"] == "time_tile" for e in stencil_spans
            )


class TestTraceExport:
    def test_tiled_trace_exports_valid_chrome_document(self, tmp_path):
        group, shapes, arrays = gsrb_case()
        path = tmp_path / "tiled.json"
        with tracing.session(fresh=True):
            _run_tiled(group, shapes, arrays, k=3)
            doc = tracing.export_chrome_trace(path)
        assert tracing.validate_chrome_trace(doc) == []
        on_disk = json.loads(path.read_text())
        assert tracing.validate_chrome_trace(on_disk) == []
        names = {e["name"] for e in on_disk["traceEvents"]}
        assert "time_tile" in names


class TestInertInstrumentation:
    @pytest.mark.parametrize("case", [gsrb_case, smooth_case])
    def test_traced_run_is_bitwise_identical(self, case):
        group, shapes, arrays = case()
        for backend in BACKENDS:
            plain = _run_tiled(group, shapes, arrays, k=3, backend=backend)
            with tracing.session(fresh=True):
                traced = _run_tiled(group, shapes, arrays, k=3, backend=backend)
            for g in sorted(shapes):
                np.testing.assert_array_equal(traced[g], plain[g])

    def test_untraced_run_records_nothing(self):
        group, shapes, arrays = gsrb_case()
        for backend in BACKENDS:
            _run_tiled(group, shapes, arrays, k=3, backend=backend)
        assert tracing.events() == []
