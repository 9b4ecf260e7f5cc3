"""The telemetry registry itself: modes, hooks, snapshot and its views."""

import json
import sys
import threading
import warnings

import pytest

from repro import telemetry


class TestModes:
    def test_default_is_counters(self):
        assert telemetry.mode() == "counters"
        assert telemetry.enabled()

    def test_env_controls_mode(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        assert telemetry.mode() == "off"
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "trace")
        assert telemetry.mode() == "trace"

    def test_env_reread_lazily_without_reimport(self, monkeypatch):
        assert telemetry.mode() == "counters"
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        assert telemetry.mode() == "off"

    def test_invalid_env_falls_back_to_counters(self, monkeypatch):
        for raw in ("verbose", "events"):
            monkeypatch.setenv("SNOWFLAKE_TELEMETRY", raw)
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                assert telemetry.mode() == "counters"

    def test_set_mode_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        telemetry.set_mode("trace")
        assert telemetry.mode() == "trace"
        telemetry.set_mode(None)
        assert telemetry.mode() == "off"

    def test_set_mode_rejects_unknown(self):
        assert telemetry.MODES == ("off", "counters", "trace")
        for bad in ("loud", "events"):
            with pytest.raises(ValueError):
                telemetry.set_mode(bad)


class TestCounters:
    def test_count_accumulates(self):
        telemetry.count("x")
        telemetry.count("x", 4)
        assert telemetry.snapshot()["counters"]["x"] == 5

    def test_off_mode_records_nothing(self):
        telemetry.set_mode("off")
        telemetry.count("x")
        telemetry.observe("t", 1.0)
        with telemetry.timed("block"):
            pass
        telemetry.kernel_call("c", 1.0, 100)
        telemetry.event("e")
        telemetry.set_mode("counters")
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert snap["kernels"] == {}
        assert snap["histograms"] == {}

    def test_thread_safety(self):
        # 8 threads hammer a counter, a timer and a kernel series at
        # once; the snapshot's counters and its timers/kernels views
        # must match a tally kept independently by each thread
        tallies = []

        def worker(tag):
            durs = [(tag * 1000 + i + 1) * 1e-6 for i in range(1000)]
            for d in durs:
                telemetry.count("races")
                telemetry.observe("t.shared", d)
                telemetry.kernel_call("c", d, 7)
            tallies.append(durs)

        threads = [
            threading.Thread(target=worker, args=(tag,)) for tag in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving mid-update
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(tallies) == 8, "a worker did not finish"
        every = [d for durs in tallies for d in durs]
        snap = telemetry.snapshot()
        assert snap["counters"]["races"] == 8000
        timer = snap["timers"]["t.shared"]
        assert timer["count"] == 8000
        assert timer["total_s"] == pytest.approx(sum(every))
        assert timer["min_s"] == min(every)
        assert timer["max_s"] == max(every)
        kern = snap["kernels"]["c"]
        assert kern["calls"] == 8000
        assert kern["points"] == 8000 * 7
        assert kern["seconds"] == pytest.approx(sum(every))


class TestTimers:
    def test_record_time_aggregates(self):
        telemetry.observe("t", 2.0)
        telemetry.observe("t", 4.0)
        agg = telemetry.snapshot()["timers"]["t"]
        assert agg["count"] == 2
        assert agg["total_s"] == pytest.approx(6.0)
        assert agg["mean_s"] == pytest.approx(3.0)
        assert agg["min_s"] == pytest.approx(2.0)
        assert agg["max_s"] == pytest.approx(4.0)

    def test_timed_records_on_clean_exit(self):
        with telemetry.timed("block"):
            pass
        assert telemetry.snapshot()["timers"]["block"]["count"] == 1

    def test_timed_skips_raised_body(self):
        with pytest.raises(RuntimeError):
            with telemetry.timed("block"):
                raise RuntimeError("boom")
        assert "block" not in telemetry.snapshot()["timers"]

    def test_timers_view_is_the_unlabelled_series(self):
        telemetry.observe("a", 0.25)
        telemetry.observe("a", 0.75)
        telemetry.observe("b", 0.5, rank="0")  # labelled: no timer row
        with telemetry.timed("block"):
            pass
        snap = telemetry.snapshot()
        assert sorted(snap["timers"]) == ["a", "block"]
        for name, timer in snap["timers"].items():
            (rec,) = snap["histograms"][name]
            assert rec["labels"] == {}
            assert (timer["count"], timer["total_s"],
                    timer["min_s"], timer["max_s"]) == (
                rec["count"], rec["sum"], rec["min"], rec["max"])


class TestKernels:
    def test_kernel_call_rates(self):
        telemetry.kernel_call("c", 0.5, 1000)
        telemetry.kernel_call("c", 0.5, 1000)
        k = telemetry.snapshot()["kernels"]["c"]
        assert k["calls"] == 2
        assert k["points"] == 2000
        assert k["points_per_s"] == pytest.approx(2000.0)

        # one shard per (thread, backend): the view sums them, and is
        # the same series the kernel.call histogram shows
        telemetry.reset()

        def worker(tag):
            for _ in range(500):
                telemetry.kernel_call("c" if tag % 2 else "numpy", 0.001, 10)

        threads = [
            threading.Thread(target=worker, args=(tag,)) for tag in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = telemetry.snapshot()
        for backend in ("c", "numpy"):
            k = snap["kernels"][backend]
            assert (k["calls"], k["points"]) == (2000, 20000)
            assert k["seconds"] == pytest.approx(2.0)
            assert k["points_per_s"] == pytest.approx(10000.0)
            (rec,) = [r for r in snap["histograms"]["kernel.call"]
                      if r["labels"] == {"backend": backend}]
            assert (rec["count"], rec["sum"]) == (k["calls"], k["seconds"])

    def test_zero_time_yields_none_not_inf(self):
        telemetry.kernel_call("c", 0.0, 1000)
        assert telemetry.snapshot()["kernels"]["c"]["points_per_s"] is None

    def test_kernel_call_takes_no_lock(self, monkeypatch):
        from repro.telemetry import metrics, registry

        telemetry.kernel_call("c", 0.001, 10)  # publish this thread's shard

        class Forbidden:
            def __enter__(self):
                raise AssertionError("kernel_call acquired a lock")

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr(metrics, "_lock", Forbidden())
        monkeypatch.setattr(registry, "_lock", Forbidden())
        telemetry.kernel_call("c", 0.001, 10)
        monkeypatch.undo()
        assert telemetry.snapshot()["kernels"]["c"]["calls"] == 2


class TestSnapshotSchema:
    def test_snapshot_is_tagged(self):
        snap = telemetry.snapshot()
        assert snap["schema"] == telemetry.STATS_SCHEMA == "snowflake-stats/1"

    def test_snapshot_carries_histogram_section(self):
        telemetry.observe("t", 0.1)
        snap = telemetry.snapshot()
        assert snap["histograms"]["t"][0]["count"] == 1

    def test_snapshot_sections(self):
        telemetry.set_mode("trace")
        telemetry.event("e", a=1)
        assert sorted(telemetry.snapshot()) == [
            "counters", "histograms", "kernels", "mode", "schema", "timers",
        ]

    def test_snapshot_under_concurrent_key_registration(self):
        # regression companion to the shard-registration race: threads
        # minting brand-new counter/timer/kernel keys while the main
        # thread snapshots must never raise or lose an entry
        stop = threading.Event()
        started = threading.Barrier(4)

        def churn(tag):
            started.wait()
            for i in range(300):
                telemetry.count(f"c.{tag}.{i}")
                telemetry.observe(f"t.{tag}.{i}", 0.001)
                telemetry.kernel_call(f"b{tag}", 0.001, 10)
            stop.set()

        threads = [
            threading.Thread(target=churn, args=(t,)) for t in range(3)
        ]
        for t in threads:
            t.start()
        started.wait()
        while not stop.is_set():
            snap = telemetry.snapshot()
            json.dumps(snap)  # a torn snapshot would not serialize
        for t in threads:
            t.join()
        snap = telemetry.snapshot()
        assert sum(
            1 for k in snap["counters"] if k.startswith("c.")
        ) == 3 * 300
        assert sum(
            1 for k in snap["timers"] if k.startswith("t.")
        ) == 3 * 300


class TestReset:
    def test_reset_zeroes_everything(self):
        telemetry.set_mode("trace")
        telemetry.count("x")
        telemetry.observe("t", 1.0)
        telemetry.kernel_call("c", 1.0, 10)
        telemetry.event("e")
        telemetry.reset()
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert snap["kernels"] == {}
        assert snap["histograms"] == {}


class TestReport:
    def test_format_stats_renders_tables(self):
        telemetry.count("jit.cache.miss")
        telemetry.observe("jit.cc", 0.25)
        telemetry.kernel_call("c", 0.5, 500)
        out = telemetry.render_stats()
        assert "kernel invocations" in out
        assert "jit.cc" in out
        assert "jit.cache.miss" in out

    def test_format_stats_empty_registry(self):
        out = telemetry.format_stats(telemetry.snapshot())
        assert "telemetry mode" in out

    def test_dmem_counters_get_their_own_table(self):
        telemetry.count("dmem.transport.retransmits", 3)
        telemetry.count("dmem.restores")
        telemetry.count("jit.cache.miss")
        out = telemetry.render_stats()
        assert "distributed fabric" in out
        # dmem counters appear prefix-stripped in the fabric table and
        # stay out of the generic counter list
        assert "transport.retransmits" in out
        assert "restores" in out
        counters_block = out.split("counters")[-1]
        assert "dmem." not in counters_block
