"""Span tracer: recording, lanes, export, and the pipeline regression.

The last class is the satellite-2 regression test: a workload whose
fallback transition and simulated dmem ranks must land as parseable
Chrome trace events with per-(pid, tid) monotonic timestamps.
"""

import json
import threading
import warnings

import numpy as np
import pytest

from repro import (
    Component,
    RectDomain,
    Stencil,
    StencilGroup,
    WeightArray,
    telemetry,
)
from repro.telemetry import tracing

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


@pytest.fixture(autouse=True)
def clean_tracer():
    tracing.clear()
    yield
    tracing.clear()


class TestActivation:
    def test_inactive_by_default(self):
        assert not tracing.active()
        with tracing.span("work", cat="kernel"):
            pass
        assert tracing.events() == []

    def test_session_records(self):
        with tracing.session():
            with tracing.span("work", cat="kernel", n=3):
                pass
        evs = tracing.events()
        assert len(evs) == 1
        assert evs[0]["name"] == "work"
        assert evs[0]["cat"] == "kernel"
        assert evs[0]["ph"] == "X"
        assert evs[0]["args"]["n"] == 3

    def test_session_fresh_clears_stale_events(self):
        with tracing.session():
            tracing.instant("old")
        with tracing.session(fresh=True):
            tracing.instant("new")
        assert [e["name"] for e in tracing.events()] == ["new"]

    def test_trace_mode_activates_without_session(self):
        telemetry.set_mode("trace")
        assert tracing.active()
        with tracing.span("work"):
            pass
        assert len(tracing.events()) == 1

    def test_sessions_nest(self):
        tracing.start()
        tracing.start()
        tracing.stop()
        assert tracing.active()
        tracing.stop()
        assert not tracing.active()


class TestSpans:
    def test_nested_span_records_parent(self):
        with tracing.session():
            with tracing.span("outer"):
                with tracing.span("inner"):
                    pass
        by_name = {e["name"]: e for e in tracing.events()}
        assert by_name["inner"]["args"]["parent"] == "outer"
        assert (by_name["inner"]["args"]["parent_id"]
                == by_name["outer"]["args"]["span_id"])
        assert "parent" not in by_name["outer"]["args"]
        assert "parent_id" not in by_name["outer"]["args"]

    def test_raising_body_is_recorded_with_error(self):
        with tracing.session():
            with pytest.raises(ValueError):
                with tracing.span("doomed"):
                    raise ValueError("boom")
        (ev,) = tracing.events()
        assert ev["args"]["error"] == "ValueError"

    def test_timestamps_nonnegative_and_ordered(self):
        with tracing.session():
            with tracing.span("a"):
                pass
            with tracing.span("b"):
                pass
        a, b = tracing.events()
        assert a["ts"] >= 0 and a["dur"] >= 0
        assert b["ts"] + b["dur"] >= a["ts"] + a["dur"]

    def test_instant_marker(self):
        with tracing.session():
            tracing.instant("tick", cat="dmem", grid="u")
        (ev,) = tracing.events()
        assert ev["ph"] == "i"
        assert ev["s"] == "t"
        assert ev["args"]["grid"] == "u"

    def test_capacity_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracing, "SPAN_CAPACITY", 2)
        with tracing.session():
            for _ in range(5):
                tracing.instant("tick")
        assert len(tracing.events()) == 2
        assert tracing.dropped() == 3


def _x(name, sid, dur_us, parent_id=None, cat="kernel", tid=1, **args):
    """A hand-built complete span, as ``tracing.events()`` returns them."""
    if parent_id is not None:
        args["parent_id"] = parent_id
    return {"name": name, "cat": cat, "ph": "X", "ts": 0.0, "dur": dur_us,
            "pid": 1, "tid": tid, "args": {"span_id": sid, **args}}


class TestSelfTimes:
    def test_hand_built_nest(self):
        rows = tracing.self_times([
            _x("leaf", 3, 100.0, parent_id=2),
            _x("leaf", 4, 150.0, parent_id=2),
            _x("mid", 2, 400.0, parent_id=1),
            {"name": "marker", "cat": "kernel", "ph": "i", "ts": 0.0,
             "pid": 1, "tid": 1, "args": {}},
            _x("root", 1, 1000.0, cat="jit"),
            _x("root", 5, 500.0, cat="jit"),
        ])
        by = {(r["name"], r["cat"]): r for r in rows}
        assert by["root", "jit"] == {
            "name": "root", "cat": "jit", "count": 2,
            "total_s": pytest.approx(1.5e-3), "self_s": pytest.approx(1.1e-3),
        }
        assert by["mid", "kernel"]["self_s"] == pytest.approx(150e-6)
        leaf = by["leaf", "kernel"]
        assert (leaf["count"], leaf["total_s"], leaf["self_s"]) == (
            2, pytest.approx(250e-6), pytest.approx(250e-6))
        # hottest self time first, and the column sums to the roots
        assert [r["name"] for r in rows] == ["root", "leaf", "mid"]
        assert sum(r["self_s"] for r in rows) == pytest.approx(1.5e-3)

    def test_rank_lane_child_comes_out_of_its_stack_parent(self):
        # the export tid says "another track"; the recording thread's
        # stack says "inside halo" -- the stack wins
        rows = tracing.self_times([
            _x("halo.send", 2, 300.0, parent_id=1, cat="dmem",
               tid=900_000_000),
            _x("halo:x", 1, 1000.0, cat="dmem", tid=77),
        ])
        by = {r["name"]: r for r in rows}
        assert by["halo:x"]["self_s"] == pytest.approx(700e-6)
        assert by["halo.send"]["self_s"] == pytest.approx(300e-6)

    def test_unbuffered_parent_makes_a_root(self):
        (row,) = tracing.self_times([_x("orphan", 9, 200.0, parent_id=8)])
        assert row["self_s"] == row["total_s"] == pytest.approx(200e-6)

    def test_live_buffer_self_times_sum_to_root_total(self):
        with tracing.session():
            with tracing.span("root", cat="jit"):
                with tracing.span("child", cat="kernel", lane="rank 0"):
                    sum(range(2000))
                with pytest.raises(ValueError):
                    with tracing.span("doomed", cat="kernel"):
                        raise ValueError("boom")
        rows = tracing.self_times()
        by = {r["name"]: r for r in rows}
        # an erroring span is still counted, and still a child
        assert by["doomed"]["count"] == 1
        root = by["root"]
        assert root["self_s"] == pytest.approx(
            root["total_s"] - by["child"]["total_s"] - by["doomed"]["total_s"]
        )
        assert sum(r["self_s"] for r in rows) == pytest.approx(root["total_s"])

    def test_empty_buffer(self):
        assert tracing.self_times() == []


class TestLanes:
    def test_lane_maps_to_synthetic_tid(self):
        with tracing.session():
            tracing.instant("a", lane="rank 0")
            tracing.instant("b", lane="rank 1")
            tracing.instant("c", lane="rank 0")
        a, b, c = tracing.events()
        assert a["tid"] >= 900_000_000
        assert a["tid"] != b["tid"]
        assert a["tid"] == c["tid"]

    def test_real_threads_get_distinct_tids(self):
        def work():
            with tracing.span("thread-work"):
                pass

        with tracing.session():
            with tracing.span("main-work"):
                pass
            t = threading.Thread(target=work)
            t.start()
            t.join()
        tids = {e["tid"] for e in tracing.events()}
        assert len(tids) == 2

    def test_lane_named_in_export_metadata(self):
        with tracing.session():
            tracing.instant("a", lane="rank 0")
            doc = tracing.export_chrome_trace()
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "rank 0" in names


class TestExportAndValidate:
    def test_export_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        with tracing.session():
            with tracing.span("work", cat="kernel"):
                tracing.instant("mark", cat="kernel")
            tracing.export_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["schema"] == tracing.TRACE_SCHEMA
        assert doc["otherData"]["dropped_events"] == 0
        assert tracing.validate_chrome_trace(doc) == []

    def test_validate_rejects_empty(self):
        assert tracing.validate_chrome_trace({}) == [
            "traceEvents missing or empty"
        ]

    def test_validate_flags_bad_phase_and_fields(self):
        doc = {
            "otherData": {"schema": tracing.TRACE_SCHEMA},
            "traceEvents": [
                {"ph": "Q", "name": "x", "pid": 1, "tid": 1},
                {"ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1},
            ],
        }
        problems = tracing.validate_chrome_trace(doc)
        assert any("unknown ph" in p for p in problems)
        assert any("bad ts" in p for p in problems)

    def test_validate_flags_nonmonotonic_tid(self):
        ev = {"ph": "i", "name": "t", "pid": 1, "tid": 7, "s": "t"}
        doc = {
            "otherData": {"schema": tracing.TRACE_SCHEMA},
            "traceEvents": [
                dict(ev, ts=100.0),
                dict(ev, ts=50.0),
            ],
        }
        problems = tracing.validate_chrome_trace(doc)
        assert any("not monotonic" in p for p in problems)


class TestPipelineTraceRegression:
    """Satellite 2: fallback + dmem rank events interleave correctly."""

    def make_group(self):
        return StencilGroup([Stencil(LAP, "out", INTERIOR)])

    def test_fallback_and_rank_lanes_in_one_trace(
        self, tmp_path, rng, monkeypatch
    ):
        from repro.dmem.executor import DistributedKernel

        monkeypatch.setenv("SNOWFLAKE_CC", "/nonexistent/snowflake-cc")
        path = tmp_path / "trace.json"
        u = rng.random((20, 20))
        with tracing.session():
            kernel = self.make_group().compile(
                backend="c", fallback=("numpy",)
            )
            out = np.zeros_like(u)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                kernel(u=u, out=out)
            dk = DistributedKernel(self.make_group(), (20, 20), 2,
                                   backend="numpy")
            dk(u=u.copy(), out=np.zeros_like(u))
            tracing.export_chrome_trace(path)

        doc = json.loads(path.read_text())
        assert tracing.validate_chrome_trace(doc) == []
        evs = doc["traceEvents"]
        cats = {e.get("cat") for e in evs}
        assert {"resilience", "dmem", "kernel", "jit"} <= cats

        # the c -> numpy transition is recorded as a fallback instant
        fb = [e for e in evs if e["name"] == "fallback"]
        assert fb and fb[0]["args"]["failed"] == "c"
        assert fb[0]["args"]["next"] == "numpy"

        # each simulated rank owns a named virtual lane
        lane_names = {
            e["args"]["name"]: e["tid"]
            for e in evs
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"rank 0", "rank 1"} <= set(lane_names)
        for r in ("rank 0", "rank 1"):
            rank_evs = [e for e in evs if e.get("tid") == lane_names[r]]
            assert any(e["name"].startswith("apply:") for e in rank_evs)

        # nesting follows the driver thread's span stack across lanes:
        # a rank's apply span (virtual track) owns the kernel span it
        # ran (real thread), so its self time excludes the kernel
        by_id = {e["args"]["span_id"]: e for e in evs if e["ph"] == "X"}
        nested = [
            e for e in by_id.values()
            if e["name"].startswith("kernel:")
            and by_id.get(e["args"].get("parent_id"), {}).get(
                "name", "").startswith("apply:")
        ]
        assert len(nested) == 2
        assert all(
            by_id[e["args"]["parent_id"]]["tid"] in lane_names.values()
            and e["tid"] not in lane_names.values()
            for e in nested
        )

        # rank-lane timestamps are monotonic within each lane even
        # though both ranks run on the one driver thread
        for tid in lane_names.values():
            ends = [
                e["ts"] + e.get("dur", 0.0)
                for e in evs
                if e.get("tid") == tid and e["ph"] != "M"
            ]
            assert ends == sorted(ends)
