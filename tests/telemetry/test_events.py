"""Pipeline events: one trace instant each, span-linked, strict JSON."""

import json
import re
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry import KNOWN_EVENTS, tracing


def instants(name=None):
    return [
        e for e in tracing.events()
        if e["ph"] == "i" and (name is None or e["name"] == name)
    ]


class TestModes:
    def test_counters_mode_records_nothing(self):
        telemetry.event("guards.trip", check="nonfinite")
        assert tracing.events() == []
        assert not tracing.active()

    def test_session_records_in_counters_mode(self):
        with tracing.session():
            telemetry.event("guards.trip", check="nonfinite")
        (ev,) = instants()
        assert ev["name"] == "guards.trip"
        assert ev["args"]["check"] == "nonfinite"

    def test_trace_mode_also_records(self):
        telemetry.set_mode("trace")
        telemetry.event("jit.quarantine")
        assert len(instants("jit.quarantine")) == 1


class TestRecordShape:
    def test_envelope_fields(self):
        with tracing.session():
            telemetry.event(
                "resilience.fallback", failed="c", error="CompileError"
            )
        (ev,) = tracing.events()
        assert (ev["name"], ev["cat"], ev["ph"], ev["s"]) == (
            "resilience.fallback", "resilience", "i", "t")
        assert isinstance(ev["ts"], float) and ev["ts"] >= 0
        assert isinstance(ev["tid"], int)
        assert ev["args"] == {"failed": "c", "error": "CompileError"}

    def test_payload_cannot_clobber_envelope(self):
        with tracing.session():
            telemetry.event("x.y", cat="evil", ph="evil", ts="evil")
        (ev,) = tracing.events()
        assert (ev["cat"], ev["ph"]) == ("x", "i")
        assert isinstance(ev["ts"], float)
        assert ev["args"] == {"cat": "evil", "ph": "evil", "ts": "evil"}

    def test_non_json_payload_stringified_not_raised(self):
        with tracing.session():
            telemetry.event("x", arr=object(), shape=(2, 3))
            doc = tracing.export_chrome_trace()
        (ev,) = instants()
        assert isinstance(ev["args"]["arr"], str)
        assert ev["args"]["shape"] == "(2, 3)"
        assert tracing.validate_chrome_trace(doc) == []

    def test_nonfinite_floats_recorded_as_strings(self, tmp_path):
        # a trial with no prediction carries inf
        path = tmp_path / "trace.json"
        with tracing.session():
            telemetry.event(
                "tuning.trial", predicted_s=float("inf"),
                lo=float("-inf"), ratio=float("nan"), measured_s=0.5,
            )
            # a span arg is stringified at export instead
            with tracing.span("tuning.search", cat="analysis",
                              best_s=float("inf")):
                pass
            doc = tracing.export_chrome_trace(path)

        def refuse(token):
            raise AssertionError(f"bare {token} in the trace")

        written = json.loads(path.read_text(), parse_constant=refuse)
        for d in (doc, written):
            by = {e["name"]: e for e in d["traceEvents"]}
            args = by["tuning.trial"]["args"]
            assert args["predicted_s"] == "inf"
            assert args["lo"] == "-inf"
            assert args["ratio"] == "nan"
            assert args["measured_s"] == 0.5
            assert by["tuning.search"]["args"]["best_s"] == "inf"
            assert tracing.validate_chrome_trace(d) == []

    def test_validate_rejects_nonfinite(self):
        doc = {
            "otherData": {"schema": tracing.TRACE_SCHEMA},
            "traceEvents": [
                {"name": "x", "ph": "i", "s": "t", "ts": 0.0, "pid": 1,
                 "tid": 1, "args": {"predicted_s": float("inf")}},
            ],
        }
        (problem,) = tracing.validate_chrome_trace(doc)
        assert "strict JSON" in problem

    def test_span_correlation_inside_open_span(self):
        with tracing.session():
            telemetry.event("guards.trip", check="halo")  # outside: no parent
            with tracing.span("kernel:test", cat="kernel"):
                with tracing.span("inner", cat="kernel"):
                    pass
                telemetry.event("guards.trip", check="halo")
        outside, inside = instants("guards.trip")
        (span,) = [e for e in tracing.events() if e["name"] == "kernel:test"]
        assert "parent_id" not in outside["args"]
        assert inside["args"]["parent_id"] == span["args"]["span_id"]


class TestRegistryFunnel:
    def test_registry_event_is_one_trace_instant(self):
        with tracing.session():
            telemetry.event("resilience.retry", backend="c")
        (ev,) = tracing.events()
        assert ev["name"] == "resilience.retry"
        # the trace buffer is the only event store: the snapshot
        # carries no event section of its own
        assert "trace" not in telemetry.snapshot()

    def test_registry_event_inert_in_counters_mode(self):
        telemetry.event("resilience.retry", backend="c")
        assert tracing.events() == []


class TestPipelineEvents:
    """The instrumented call-sites land as instants inside a session."""

    def test_fallback_chain_emits_degraded_event(self, monkeypatch, tmp_path):
        import warnings

        import numpy as np

        from repro import Component, RectDomain, Stencil, WeightArray

        # a broken compiler and a cold cache force the c -> numpy fallback
        monkeypatch.setenv("SNOWFLAKE_CC", "definitely-not-a-compiler")
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "cache"))
        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        stencil = Stencil(lap, "out", RectDomain((1, 1), (-1, -1)))
        with tracing.session(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kernel = stencil.compile(
                backend="c", shapes={"u": (8, 8), "out": (8, 8)},
                fallback=("c", "numpy"),
            )
            kernel(u=np.zeros((8, 8)), out=np.zeros((8, 8)))
        (fb,) = instants("resilience.fallback")
        assert fb["args"]["failed"] == "c" and fb["args"]["next"] == "numpy"
        assert fb["args"]["error"]
        (deg,) = instants("resilience.degraded")
        assert deg["args"] == {"primary": "c", "serving": "numpy"}

    @pytest.mark.faults
    def test_transport_retransmit_emits_event(self):
        import numpy as np

        from repro.dmem.transport import ReliableComm
        from repro.resilience import faults

        world = ReliableComm.world(2)
        with tracing.session():
            with faults.inject("comm.send.drop", times=1):
                world[0].rsend(np.arange(4.0), 1, tag=7)
            world[1].rrecv(0, tag=7)
        (ev,) = instants("dmem.retransmit")
        assert ev["args"] == {
            "source": 0, "dest": 1, "tag": 7, "want": 0, "window": 1,
        }
        assert instants("faults.fired")[0]["args"]["site"] == "comm.send.drop"

    @pytest.mark.faults
    def test_rank_crash_and_recovery_emit_events(self):
        import numpy as np

        from repro import Component, RectDomain, Stencil
        from repro.core.stencil import StencilGroup
        from repro.core.weights import WeightArray
        from repro.dmem.executor import DistributedKernel
        from repro.dmem.recovery import RecoveryPolicy
        from repro.resilience.faults import inject

        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        group = StencilGroup(
            [Stencil(lap, "u", RectDomain((1, 1), (-1, -1)), name="smooth")]
        )
        dk = DistributedKernel(group, (16, 16), 2, backend="numpy")
        dk.scatter(u=np.random.default_rng(0).random((16, 16)))
        with tracing.session(), inject("comm.rank.crash", times=1):
            dk.run(3, recovery=RecoveryPolicy())
        (crash,) = instants("dmem.rank.crash")
        assert set(crash["args"]) == {"rank"}
        assert instants("dmem.checkpoint")[0]["args"] == {
            "sweep": 0, "ranks": 2,
        }
        (failure,) = instants("dmem.rank.failure")
        assert failure["args"]["rank"] == crash["args"]["rank"]
        assert {"sweep", "restored_to", "restart"} <= set(failure["args"])
        (restore,) = instants("dmem.restore")
        assert {"sweep", "restart", "purged_messages"} == (
            set(restore["args"]) - {"parent_id"})
        # the restore fires inside its recovery.restore span
        (span,) = [e for e in tracing.events()
                   if e["name"] == "recovery.restore"]
        assert restore["args"]["parent_id"] == span["args"]["span_id"]


class TestContract:
    def test_known_events_are_dotted_and_sorted_uniquely(self):
        assert len(set(KNOWN_EVENTS)) == len(KNOWN_EVENTS)
        for name in KNOWN_EVENTS:
            assert name == name.lower() and " " not in name
            assert "." in name

    def test_emitted_event_names_are_the_known_events(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        emitted = {
            m.group(1)
            for path in src.rglob("*.py")
            for m in re.finditer(
                r'telemetry\.event\(\s*"([^"]+)"', path.read_text()
            )
        }
        assert emitted == set(KNOWN_EVENTS)

    def test_clear_drops_buffered_instants(self):
        with tracing.session():
            telemetry.event("x.y")
        tracing.clear()
        assert tracing.events() == []
        assert tracing.dropped() == 0
