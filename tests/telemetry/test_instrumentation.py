"""End-to-end: the instrumented pipeline reports what actually ran."""

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
from repro.resilience.faults import inject
from repro.resilience.guards import Guards, GuardWarning

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


def make_stencil():
    return Stencil(LAP, "out", INTERIOR)


class TestCompileAndCall:
    def test_c_backend_reports_cache_and_kernel_stats(self, rng):
        """The headline acceptance criterion: one compile + call on the
        ``c`` backend must surface at least one JIT cache event and one
        kernel invocation with seconds and a points/s rate."""
        shapes = {"u": (32, 32), "out": (32, 32)}
        kernel = make_stencil().compile(backend="c", shapes=shapes)
        u = rng.random((32, 32))
        out = np.zeros_like(u)
        kernel(u=u, out=out)
        snap = telemetry.snapshot()

        cache_events = [
            k for k in snap["counters"] if k.startswith("jit.cache.")
        ]
        assert cache_events, f"no cache events in {sorted(snap['counters'])}"

        k = snap["kernels"]["c"]
        assert k["calls"] >= 1
        assert k["seconds"] > 0
        assert k["points"] == 30 * 30
        assert k["points_per_s"] is not None and k["points_per_s"] > 0

        assert any(
            name.startswith("backend.c.specialize")
            for name in snap["timers"]
        )

    @pytest.mark.parametrize(
        "backend,lag",
        [("python", False), ("numpy", False), ("c", False), ("c", True)],
    )
    def test_time_tile_counts_every_application(self, rng, l2, backend, lag):
        """A ``time_tile=k`` call records ``k`` applications' points,
        whether the bound call repeats one application or the backend
        lags all ``k`` in one pass."""
        from repro.backends import get_backend
        from repro.schedule import ScheduleOptions, schedule_for

        if lag:
            l2(0)
        shapes = {"u": (12, 12), "out": (12, 12)}
        group = StencilGroup([make_stencil()])
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=4))
        assert get_backend(backend).lags_applications(sched) == lag
        kernel = group.compile(backend=backend, shapes=shapes, time_tile=4)
        kernel(u=rng.random((12, 12)), out=np.zeros((12, 12)))
        k = telemetry.snapshot()["kernels"][backend]
        assert (k["calls"], k["points"]) == (1, 4 * 10 * 10)

    def test_codegen_counters_per_backend(self, rng):
        shapes = {"u": (16, 16), "out": (16, 16)}
        make_stencil().compile(backend="numpy", shapes=shapes)
        counters = telemetry.snapshot()["counters"]
        assert counters.get("codegen.numpy.stencil_execs", 0) >= 1

    def test_off_mode_records_nothing_end_to_end(self, monkeypatch, rng):
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        shapes = {"u": (16, 16), "out": (16, 16)}
        kernel = make_stencil().compile(backend="numpy", shapes=shapes)
        u = rng.random((16, 16))
        kernel(u=u, out=np.zeros_like(u))
        monkeypatch.delenv("SNOWFLAKE_TELEMETRY")
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["kernels"] == {}


@pytest.mark.faults
class TestResilienceCounters:
    def test_fallback_and_fault_counters(self, rng):
        kernel = make_stencil().compile(
            backend="numpy", fallback=("python",)
        )
        u = rng.random((8, 8))
        out = np.zeros_like(u)
        with inject("backend.invoke", times=1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                kernel(u=u, out=out)
        assert kernel.serving_backend == "python"
        counters = telemetry.snapshot()["counters"]
        assert counters.get("faults.fired.backend.invoke", 0) >= 1
        assert counters.get("resilience.fallback.advances", 0) >= 1
        assert counters.get("resilience.fallback.activations", 0) >= 1

    def test_guard_trip_counter(self):
        g = Guards(nonfinite="warn")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GuardWarning)
            g.report("nonfinite", "synthetic violation")
        counters = telemetry.snapshot()["counters"]
        assert counters.get("guards.trip.nonfinite", 0) == 1


class TestDmemCounters:
    def test_exchange_traffic_recorded(self, rng):
        from repro.dmem.executor import DistributedKernel

        dk = DistributedKernel(
            StencilGroup([make_stencil()]), (24, 24), 3, backend="numpy"
        )
        u = rng.random((24, 24))
        out = np.zeros_like(u)
        dk(u=u, out=out)
        counters = telemetry.snapshot()["counters"]
        assert counters.get("dmem.exchanges", 0) >= 1
        assert counters.get("dmem.messages", 0) >= 1
        assert counters.get("dmem.bytes_sent", 0) > 0
        assert counters.get("dmem.sweeps", 0) >= 1


class TestFrontendCounters:
    def test_eliminated_stencils_counted(self):
        from repro.analysis.optimize import eliminate_dead_stencils

        dead = Stencil(
            Component("u", WeightArray([[1]])), "scratch",
            INTERIOR, name="dead",
        )
        group = StencilGroup([dead, make_stencil()])
        shapes = {g: (16, 16) for g in group.grids()}
        eliminate_dead_stencils(group, shapes, live_grids={"out"})
        counters = telemetry.snapshot()["counters"]
        assert counters.get("frontend.stencils_eliminated") == 1
