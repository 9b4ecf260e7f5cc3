"""The structured JSON event log: modes, schema, ring, sinks, spans."""

import io
import json

import pytest

from repro import telemetry
from repro.telemetry import events, tracing
from repro.telemetry.events import (
    EVENT_CAPACITY,
    EVENTS_SCHEMA,
    KNOWN_EVENTS,
    emit,
    validate_events,
)


class TestModes:
    def test_counters_mode_records_nothing(self):
        emit("guards.trip", guard="nonfinite")
        assert events.records() == []
        assert not events.structured_enabled()

    def test_events_mode_records(self):
        telemetry.set_mode("events")
        emit("guards.trip", guard="nonfinite")
        (rec,) = events.records()
        assert rec["event"] == "guards.trip"
        assert rec["guard"] == "nonfinite"

    def test_trace_mode_also_records(self):
        telemetry.set_mode("trace")
        emit("jit.quarantine")
        assert events.structured_enabled()
        assert len(events.records()) == 1


class TestRecordShape:
    def test_envelope_fields(self):
        telemetry.set_mode("events")
        emit("resilience.fallback", failed="c", error="CompileError")
        (rec,) = events.records()
        assert rec["schema"] == EVENTS_SCHEMA
        assert isinstance(rec["t"], float)
        assert isinstance(rec["thread"], int)
        assert rec["span"] is None  # no open span
        assert validate_events([rec]) == []

    def test_payload_cannot_clobber_envelope(self):
        telemetry.set_mode("events")
        emit("x", schema="evil", t="evil", event="evil")
        (rec,) = events.records()
        assert rec["schema"] == EVENTS_SCHEMA
        assert rec["field_schema"] == "evil"
        assert rec["field_event"] == "evil"

    def test_non_json_payload_stringified_not_raised(self):
        telemetry.set_mode("events")
        emit("x", arr=object())
        (rec,) = events.records()
        json.dumps(rec)  # now serializable
        assert validate_events([rec]) == []

    def test_nonfinite_floats_recorded_as_strings(self):
        # a trial with no prediction carries inf
        telemetry.set_mode("events")
        buf = io.StringIO()
        events.set_sink(buf)
        try:
            telemetry.event(
                "tuning.trial", predicted_s=float("inf"),
                lo=float("-inf"), ratio=float("nan"), measured_s=0.5,
            )
        finally:
            events.set_sink(None)

        def refuse(token):
            raise AssertionError(f"bare {token} in the event log")

        line = json.loads(buf.getvalue(), parse_constant=refuse)
        (rec,) = events.records()
        for doc in (line, rec):
            assert doc["predicted_s"] == "inf"
            assert doc["lo"] == "-inf"
            assert doc["ratio"] == "nan"
            assert doc["measured_s"] == 0.5
        assert validate_events([rec]) == []

    def test_validate_rejects_nonfinite(self):
        rec = {"schema": EVENTS_SCHEMA, "t": 0.0, "event": "x",
               "predicted_s": float("inf")}
        (problem,) = validate_events([rec])
        assert "strict JSON" in problem

    def test_span_correlation_inside_open_span(self):
        telemetry.set_mode("trace")
        with tracing.session(fresh=True):
            with tracing.span("kernel:test", cat="kernel"):
                emit("guards.trip", guard="halo")
                sid = tracing.current_span_id()
        (rec,) = [r for r in events.records() if r["event"] == "guards.trip"]
        assert rec["span"] == sid
        assert sid is not None


class TestRegistryFunnel:
    def test_registry_event_forwards_in_events_mode(self):
        telemetry.set_mode("events")
        telemetry.event("resilience.retry", backend="c")
        (rec,) = events.records()
        assert rec["event"] == "resilience.retry"
        # the structured log is the only event store: the snapshot
        # carries no event section of its own
        assert "trace" not in telemetry.snapshot()

    def test_registry_event_inert_in_counters_mode(self):
        telemetry.event("resilience.retry", backend="c")
        assert events.records() == []

    def test_counts_survive_ring_eviction(self):
        telemetry.set_mode("events")
        for i in range(EVENT_CAPACITY + 10):
            emit("spam", i=i)
        assert len(events.records()) == EVENT_CAPACITY
        assert events.dropped() == 10
        assert events.counts_by_name()["spam"] == EVENT_CAPACITY + 10


class TestSinks:
    def test_file_sink_writes_one_json_line_per_event(self, tmp_path):
        telemetry.set_mode("events")
        sink = tmp_path / "events.jsonl"
        events.set_sink(sink)
        try:
            emit("dmem.rank.crash", rank=1)
            emit("dmem.restore", sweep=4)
        finally:
            events.set_sink(None)
        lines = sink.read_text().strip().splitlines()
        assert len(lines) == 2
        recs = [json.loads(ln) for ln in lines]
        assert [r["event"] for r in recs] == ["dmem.rank.crash",
                                              "dmem.restore"]
        assert validate_events(recs) == []

    def test_stream_sink(self):
        telemetry.set_mode("events")
        buf = io.StringIO()
        events.set_sink(buf)
        try:
            emit("guards.trip")
        finally:
            events.set_sink(None)
        assert json.loads(buf.getvalue())["event"] == "guards.trip"

    def test_env_sink(self, tmp_path, monkeypatch):
        telemetry.set_mode("events")
        sink = tmp_path / "env.jsonl"
        monkeypatch.setenv("SNOWFLAKE_EVENTS_SINK", str(sink))
        emit("faults.fired", site="comm.send.drop")
        assert json.loads(sink.read_text())["site"] == "comm.send.drop"

    def test_dead_sink_never_raises(self):
        telemetry.set_mode("events")

        class Dead:
            def write(self, s):
                raise OSError("gone")

            def flush(self):
                raise OSError("gone")

        events.set_sink(Dead())
        try:
            emit("x")  # must not raise
        finally:
            events.set_sink(None)
        assert len(events.records()) == 1


class TestPipelineEvents:
    """The instrumented call-sites actually feed the log."""

    def test_fallback_chain_emits_degraded_event(self, monkeypatch, tmp_path):
        import numpy as np

        from repro import Component, RectDomain, Stencil, WeightArray

        telemetry.set_mode("events")
        # a broken compiler and a cold cache force the c -> numpy fallback
        monkeypatch.setenv("SNOWFLAKE_CC", "definitely-not-a-compiler")
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "cache"))
        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        stencil = Stencil(lap, "out", RectDomain((1, 1), (-1, -1)))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kernel = stencil.compile(
                backend="c", shapes={"u": (8, 8), "out": (8, 8)},
                fallback=("c", "numpy"),
            )
            kernel(u=np.zeros((8, 8)), out=np.zeros((8, 8)))
        names = {r["event"] for r in events.records()}
        assert "resilience.fallback" in names
        assert "resilience.degraded" in names
        (deg,) = [r for r in events.records()
                  if r["event"] == "resilience.degraded"]
        assert deg["primary"] == "c" and deg["serving"] == "numpy"

    def test_time_tile_refusal_emits_event(self):
        from repro.core.stencil import StencilGroup
        from repro.hpgmg.operators import periodic_boundary_stencils
        from repro.schedule import ScheduleOptions, schedule_for

        telemetry.set_mode("events")
        group = StencilGroup(
            periodic_boundary_stencils(2, 8, grid="x"), name="periodic"
        )
        shapes = {g: (10, 10) for g in group.grids()}
        with pytest.raises(ValueError):
            schedule_for(group, shapes, ScheduleOptions(time_tile=2))
        (rec,) = [r for r in events.records()
                  if r["event"] == "schedule.time_tile.refused"]
        assert rec["group"] == "periodic" and rec["k"] == 2
        assert rec["detail"]

    @pytest.mark.faults
    def test_transport_retransmit_emits_event(self):
        import numpy as np

        from repro.dmem.transport import ReliableComm
        from repro.resilience import faults

        telemetry.set_mode("events")
        world = ReliableComm.world(2)
        with faults.inject("comm.send.drop", times=1):
            world[0].rsend(np.arange(4.0), 1, tag=7)
        world[1].rrecv(0, tag=7)
        names = [r["event"] for r in events.records()]
        assert "dmem.retransmit" in names

    @pytest.mark.faults
    def test_rank_crash_and_recovery_emit_events(self):
        import numpy as np

        from repro import Component, RectDomain, Stencil
        from repro.core.stencil import StencilGroup
        from repro.core.weights import WeightArray
        from repro.dmem.executor import DistributedKernel
        from repro.dmem.recovery import RecoveryPolicy
        from repro.resilience.faults import inject

        telemetry.set_mode("events")
        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        group = StencilGroup(
            [Stencil(lap, "u", RectDomain((1, 1), (-1, -1)), name="smooth")]
        )
        dk = DistributedKernel(group, (16, 16), 2, backend="numpy")
        dk.scatter(u=np.random.default_rng(0).random((16, 16)))
        with inject("comm.rank.crash", times=1):
            dk.run(3, recovery=RecoveryPolicy())
        names = {r["event"] for r in events.records()}
        assert "dmem.rank.crash" in names
        assert "dmem.checkpoint" in names
        assert "dmem.restore" in names
        assert "dmem.rank.failure" in names


class TestContract:
    def test_known_events_are_dotted_and_sorted_uniquely(self):
        assert len(set(KNOWN_EVENTS)) == len(KNOWN_EVENTS)
        for name in KNOWN_EVENTS:
            assert name == name.lower() and " " not in name
            assert "." in name

    def test_reset_clears_ring_counts_and_drops(self):
        telemetry.set_mode("events")
        emit("x")
        telemetry.reset()
        assert events.records() == []
        assert events.counts_by_name() == {}
        assert events.dropped() == 0
