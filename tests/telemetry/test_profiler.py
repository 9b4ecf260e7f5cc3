"""The sampling self-profiler: attribution, budget, exports."""

import time

import pytest

from repro.telemetry import profiler, tracing


@pytest.fixture(autouse=True)
def stopped_profiler():
    profiler.stop()
    profiler.reset()
    yield
    profiler.stop()
    profiler.reset()


def _busy(seconds):
    """Spin inside a span long enough for the sampler to land."""
    with tracing.span("hotspot", cat="kernel"):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            sum(range(500))


class TestAttribution:
    def test_samples_attribute_to_open_span(self):
        with profiler.profile(interval=0.002):
            _busy(0.25)
        snap = profiler.snapshot()
        assert snap["samples_total"] > 0
        assert "hotspot" in snap["spans"]
        rec = snap["spans"]["hotspot"]
        assert rec["cat"] == "kernel"
        assert 0.0 < rec["fraction"] <= 1.0

    def test_spans_maintained_without_trace_recording(self):
        # the sampler must see stacks even when span *recording* is off
        assert not tracing.active()
        with profiler.profile(interval=0.002):
            _busy(0.25)
        assert "hotspot" in profiler.snapshot()["spans"]

    def test_idle_time_counted_separately(self):
        with profiler.profile(interval=0.002):
            time.sleep(0.1)  # no span open anywhere
        snap = profiler.snapshot()
        assert snap["idle_samples"] > 0

    def test_stop_is_idempotent_and_start_restarts(self):
        profiler.start(interval=0.01)
        assert profiler.active()
        profiler.stop()
        profiler.stop()
        assert not profiler.active()
        profiler.start(interval=0.01)
        assert profiler.active()


class TestOverheadBudget:
    def test_duty_cycle_measured_and_within_budget(self):
        with profiler.profile(interval=0.002, budget=0.5):
            _busy(0.3)
        snap = profiler.snapshot()
        assert snap["ticks"] > 0
        assert 0.0 <= snap["duty_cycle"] < 0.5
        assert snap["within_budget"]
        assert snap["budget"] == 0.5

    def test_governor_backs_off_when_over_budget(self):
        # an absurdly tight budget forces the interval to grow
        # the governor evaluates every 16 sampler ticks; on a loaded host
        # 16 ticks may not fit a fixed spin, so spin until they happened
        with profiler.profile(interval=0.001, budget=1e-9):
            deadline = time.perf_counter() + 10.0
            while (profiler.snapshot()["ticks"] < 32
                   and time.perf_counter() < deadline):
                _busy(0.05)
        snap = profiler.snapshot()
        assert snap["backoffs"] >= 1
        assert snap["interval_s"] > 0.001

    def test_overhead_helper_matches_snapshot(self):
        with profiler.profile(interval=0.002):
            _busy(0.1)
            assert profiler.overhead() == pytest.approx(
                profiler.snapshot()["duty_cycle"], abs=0.05
            )


class TestSurfaces:
    def test_render_top_lists_hot_span(self):
        with profiler.profile(interval=0.002):
            _busy(0.25)
        out = profiler.render_top(limit=5)
        assert "hotspot" in out
        assert "overhead" in out
        assert "%" in out

    def test_render_top_empty(self):
        out = profiler.render_top()
        assert "no samples" in out

    def test_chrome_trace_export_is_valid(self, tmp_path):
        import json

        with profiler.profile(interval=0.002):
            _busy(0.25)
        path = tmp_path / "profile.json"
        doc = profiler.export_chrome_trace(path)
        assert doc["traceEvents"], "expected at least one sample instant"
        assert all(e["ph"] == "i" for e in doc["traceEvents"])
        assert tracing.validate_chrome_trace(doc) == []
        on_disk = json.loads(path.read_text())
        assert tracing.validate_chrome_trace(on_disk) == []
        assert on_disk["otherData"]["profile"]["samples_total"] > 0

    def test_openmetrics_exports_profile_families(self):
        from repro.telemetry.metrics import (
            render_openmetrics,
            validate_openmetrics,
        )

        with profiler.profile(interval=0.002):
            _busy(0.25)
        text = render_openmetrics()
        assert validate_openmetrics(text) == []
        assert 'snowflake_profile_samples_total{cat="kernel",span="hotspot"}' \
            in text
        assert "snowflake_profile_overhead_ratio" in text


class TestEnvActivation:
    def test_env_starts_with_interval_ms(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_PROFILE", "2.5")
        assert profiler.maybe_start_from_env()
        assert profiler.active()
        assert profiler.snapshot()["interval_s"] == pytest.approx(0.0025)

    def test_env_off_values_do_not_start(self, monkeypatch):
        for off in ("", "0", "off", "false"):
            monkeypatch.setenv("SNOWFLAKE_PROFILE", off)
            assert not profiler.maybe_start_from_env()
            assert not profiler.active()
