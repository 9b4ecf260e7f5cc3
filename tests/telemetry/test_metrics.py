"""Latency histograms and the OpenMetrics exporter."""

import threading

import pytest

from repro import telemetry
from repro.telemetry import metrics
from repro.telemetry.metrics import (
    BUCKETS,
    observe,
    percentile_from_buckets,
    render_openmetrics,
    snapshot_histograms,
    validate_openmetrics,
)


class TestBuckets:
    def test_ladder_is_strictly_increasing(self):
        assert list(BUCKETS) == sorted(BUCKETS)
        assert len(set(BUCKETS)) == len(BUCKETS)

    def test_bounds_are_exact_decimals(self):
        # merged histograms are a cross-process contract: the bounds
        # must render identically everywhere (2.5e-06, not 2.4999...e-06)
        for b in BUCKETS:
            assert float(f"{b:.6g}") == b

    def test_spans_microseconds_to_minutes(self):
        assert BUCKETS[0] == 1e-6
        assert BUCKETS[-1] == 100.0


class TestObserve:
    def test_count_sum_min_max(self):
        for v in (0.002, 0.004, 0.006):
            observe("t", v)
        (rec,) = snapshot_histograms()["t"]
        assert rec["count"] == 3
        assert rec["sum"] == pytest.approx(0.012)
        assert rec["min"] == pytest.approx(0.002)
        assert rec["max"] == pytest.approx(0.006)

    def test_labels_split_series(self):
        observe("kernel.call", 0.001, backend="c")
        observe("kernel.call", 0.002, backend="numpy")
        recs = snapshot_histograms()["kernel.call"]
        assert sorted(r["labels"]["backend"] for r in recs) == ["c", "numpy"]
        assert all(r["count"] == 1 for r in recs)

    def test_percentiles_land_in_the_right_bucket(self):
        # 100 observations at ~3ms: every quantile must report inside
        # the (2.5ms, 5ms] bucket
        for _ in range(100):
            observe("t", 0.003)
        (rec,) = snapshot_histograms()["t"]
        for q in ("p50", "p95", "p99"):
            assert 0.0025 < rec[q] <= 0.005

    def test_buckets_are_cumulative_and_json_safe(self):
        observe("t", 0.003)
        (rec,) = snapshot_histograms()["t"]
        counts = [c for _, c in rec["buckets"]]
        assert counts == sorted(counts)  # cumulative
        assert rec["buckets"][-1][0] == "+Inf"  # str, not float inf
        assert rec["buckets"][-1][1] == rec["count"]
        import json

        json.loads(json.dumps(rec))  # strict JSON round-trip

    def test_off_mode_is_a_noop(self):
        telemetry.set_mode("off")
        observe("t", 1.0)
        telemetry.set_mode("counters")
        assert "t" not in snapshot_histograms()

    def test_overflow_bucket_catches_outliers(self):
        observe("t", 1e6)
        (rec,) = snapshot_histograms()["t"]
        finite = [c for b, c in rec["buckets"] if b != "+Inf"]
        assert finite[-1] == 0
        assert rec["buckets"][-1][1] == 1


class TestPercentileEstimate:
    def test_empty_returns_none(self):
        assert percentile_from_buckets([0] * (len(BUCKETS) + 1), 0.5) is None

    def test_interpolates_within_bucket(self):
        counts = [0] * (len(BUCKETS) + 1)
        counts[3] = 10  # all mass in bucket (BUCKETS[2], BUCKETS[3]]
        lo, hi = BUCKETS[2], BUCKETS[3]
        p50 = percentile_from_buckets(counts, 0.5)
        assert lo < p50 < hi


class TestTimersFeedHistograms:
    def test_record_time_lands_in_histogram(self):
        telemetry.observe("jit.cc", 0.1)
        assert snapshot_histograms()["jit.cc"][0]["count"] == 1

    def test_kernel_call_lands_labelled(self):
        telemetry.kernel_call("numpy", 0.01, 1000)
        (rec,) = snapshot_histograms()["kernel.call"]
        assert rec["labels"] == {"backend": "numpy"}

    def test_snapshot_carries_histograms(self):
        telemetry.observe("t", 0.5)
        snap = telemetry.snapshot()
        assert snap["histograms"]["t"][0]["count"] == 1


class TestConcurrency:
    def test_shards_merge_exactly(self):
        def worker(tag):
            for i in range(2000):
                observe("hot", 0.001, worker=tag)
                observe(f"key.{tag}.{i % 7}", 0.002)

        threads = [
            threading.Thread(target=worker, args=(str(t),)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hists = snapshot_histograms()
        assert sum(r["count"] for r in hists["hot"]) == 16000
        per_key = [
            r["count"] for name, recs in hists.items()
            if name.startswith("key.") for r in recs
        ]
        assert sum(per_key) == 16000

    def test_snapshot_during_registration_never_raises_or_drops(self):
        # regression: reading while writers register brand-new series
        started = threading.Barrier(5)

        def churn(tag):
            started.wait()
            for i in range(400):
                observe(f"churn.{tag}.{i}", 0.001)

        threads = [
            threading.Thread(target=churn, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        started.wait()
        for _ in range(25):
            snapshot_histograms()
        for t in threads:
            t.join()
        hists = snapshot_histograms()
        churned = sum(
            r["count"] for name, recs in hists.items()
            if name.startswith("churn.") for r in recs
        )
        assert churned == 4 * 400

    def test_reset_race_cannot_orphan_a_shard(self):
        # regression: a reset between a thread's generation check and
        # its locked publish used to leave the shard cached thread-
        # locally but unpublished — every later observation silently
        # vanished.  Interleave observes and resets, then confirm the
        # post-reset observations all surface.
        barrier = threading.Barrier(2)

        def observer():
            barrier.wait()
            for _ in range(5000):
                observe("contested", 0.001)

        t = threading.Thread(target=observer)
        t.start()
        barrier.wait()
        for _ in range(20):
            metrics.reset_histograms()
        t.join()
        metrics.reset_histograms()
        observe("contested", 0.001)  # same thread-local cache path
        t2 = threading.Thread(target=lambda: observe("contested", 0.002))
        t2.start()
        t2.join()
        (rec,) = snapshot_histograms()["contested"]
        assert rec["count"] == 2


class TestRenderOpenMetrics:
    def _populate(self):
        telemetry.count("jit.cache.miss", 2)
        telemetry.observe("jit.cc", 0.2)
        telemetry.kernel_call("numpy", 0.01, 1000)
        telemetry.count("codegen.numpy.sources")
        observe("dmem.halo.rtt", 0.003, rank="0")

    def test_output_validates(self):
        self._populate()
        text = render_openmetrics()
        assert validate_openmetrics(text) == []
        assert text.endswith("# EOF\n")

    def test_families_present_and_typed(self):
        self._populate()
        text = render_openmetrics()
        assert "# TYPE snowflake_jit_cache_miss counter" in text
        assert 'snowflake_kernel_calls_total{backend="numpy"} 1' in text
        assert "# TYPE snowflake_kernel_call_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert ('snowflake_dmem_halo_rtt_seconds_bucket'
                '{le="1e-06",rank="0"}' in text)
        assert "snowflake_build_info" in text

    def test_backend_label_extracted_from_counter_names(self):
        telemetry.count("codegen.numpy.sources", 3)
        text = render_openmetrics()
        assert ('snowflake_codegen_sources_total{backend="numpy"} 3'
                in text)

    def test_event_counts_exported(self):
        telemetry.set_mode("events")
        telemetry.event("guards.trip", guard="nonfinite")
        telemetry.set_mode("counters")
        text = render_openmetrics()
        assert 'snowflake_events_total{event="guards.trip"} 1' in text

    def test_validator_rejects_garbage(self):
        assert validate_openmetrics("snowflake_x_total 1\n") != []
        assert validate_openmetrics("") != []
        # bucket le must be monotonically increasing
        bad = (
            "# TYPE snowflake_t_seconds histogram\n"
            "# HELP snowflake_t_seconds h\n"
            'snowflake_t_seconds_bucket{le="0.5"} 1\n'
            'snowflake_t_seconds_bucket{le="0.1"} 2\n'
            "# EOF\n"
        )
        assert any("not increasing" in p for p in validate_openmetrics(bad))

    def test_label_values_escaped(self):
        observe("t", 0.001, detail='quo"te\nnewline\\slash')
        text = render_openmetrics()
        assert validate_openmetrics(text) == []
        assert '\\"' in text and "\\n" in text


class TestReset:
    def test_reset_clears_series(self):
        observe("t", 0.1)
        telemetry.reset()
        assert snapshot_histograms() == {}

    def test_observations_resume_after_reset(self):
        observe("t", 0.1)
        telemetry.reset()
        observe("t", 0.2)
        assert snapshot_histograms()["t"][0]["count"] == 1
