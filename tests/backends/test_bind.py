"""The bind step of the call seam: ``kernel.bind(**grids)(**params)``.

A bound kernel must be the unbound call with the per-call price paid
once: same bits, same refusals, and everything observable per call
(fault site, telemetry count, guards, span) still observed per call.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from _helpers import ALL_BACKENDS
from repro import telemetry
from repro.backends import BoundKernel
from repro.bench import paper_operators
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import Param
from repro.core.stencil import Stencil, StencilGroup
from repro.core.validate import ValidationError
from repro.core.weights import WeightArray
from repro.resilience import faults
from repro.resilience.faults import InjectedFault, arm, inject
from repro.resilience.guards import Guards, GuardViolation
from repro.resilience.policy import DegradedExecution
from repro.telemetry import tracing

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    monkeypatch.delenv("SNOWFLAKE_TELEMETRY", raising=False)
    monkeypatch.delenv("SNOWFLAKE_FAULTS", raising=False)
    monkeypatch.delenv("SNOWFLAKE_GUARDS", raising=False)
    telemetry.set_mode(None)
    telemetry.reset()
    faults.reset()
    yield
    telemetry.set_mode(None)
    telemetry.reset()
    faults.reset()


def lap_stencil():
    return Stencil(LAP, "out", INTERIOR, name="lap")


def lap_arrays(rng, n=8):
    return {"u": rng.random((n, n)), "out": np.zeros((n, n))}


def scaled_group():
    """One stencil, two runtime params: ``out = wb*v + wa*u``."""
    one = WeightArray([[1]])
    body = Param("wa") * Component("u", one) + Param("wb") * Component("v", one)
    return StencilGroup([Stencil(body, "out", INTERIOR)], name="scaled")


def calls(backend="c"):
    return telemetry.snapshot()["kernels"].get(backend, {}).get("calls", 0)


class TestBitwise:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("op", ("cc_7pt", "cc_jacobi", "vc_gsrb"))
    def test_paper_operators_bound_equals_unbound(self, backend, op, rng):
        st = paper_operators(6)[op]
        arrays = {g: rng.random((8, 8, 8)) for g in sorted(st.grids())}
        bound_arrays = {g: a.copy() for g, a in arrays.items()}
        kernel = st.compile(backend=backend)
        bound = kernel.bind(**bound_arrays)
        assert isinstance(bound, BoundKernel)
        for _ in range(2):  # in-place operators: the second sweep sees the first
            kernel(**arrays)
            bound()
        for g in arrays:
            np.testing.assert_array_equal(bound_arrays[g], arrays[g])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_runtime_param_bound_equals_unbound(self, backend, rng):
        group = scaled_group()
        arrays = {g: rng.random((8, 8)) for g in sorted(group.grids())}
        bound_arrays = {g: a.copy() for g, a in arrays.items()}
        kernel = group.compile(backend=backend)
        bound = kernel.bind(**bound_arrays)
        for wa, wb in ((2.5, -1.0), (0.5, 3)):  # an int param is a float
            kernel(**arrays, wa=wa, wb=wb)
            bound(wa=wa, wb=wb)
            np.testing.assert_array_equal(bound_arrays["out"], arrays["out"])

    def test_in_place_writes_are_seen_after_bind(self, rng):
        arrays = lap_arrays(rng)
        bound = lap_stencil().compile(backend="c").bind(**arrays)
        arrays["u"].fill(1.0)
        arrays["out"][:] = -7.0
        bound()
        assert (arrays["out"][1:-1, 1:-1] == 0.0).all()
        assert (arrays["out"][0] == -7.0).all()


def _refusals(rng):
    """``name -> (compile kwargs, call kwargs)``, one per way the seam
    refuses a call."""
    a = rng.random((8, 8))
    ro = np.zeros((8, 8))
    ro.setflags(write=False)
    wide = rng.random((8, 16))
    return {
        "missing grid": ({}, {"u": a}),
        "unexpected name": ({}, {"u": a, "out": np.zeros((8, 8)), "bogus": a}),
        "mixed dtype": ({}, {"u": a, "out": np.zeros((8, 8), np.float32)}),
        "wrong dtype": (
            {"dtype": np.float64},
            {"u": a.astype(np.float32), "out": np.zeros((8, 8), np.float32)},
        ),
        "wrong shape": ({}, {"u": rng.random((4, 4)), "out": np.zeros((8, 8))}),
        "non-contiguous": ({}, {"u": wide[:, ::2], "out": np.zeros((8, 8))}),
        "aliased": ({}, {"u": a, "out": a}),
        "read-only output": ({}, {"u": a, "out": ro}),
        "non-ndarray output": ({}, {"u": a, "out": [[0.0] * 8 for _ in range(8)]}),
    }


class TestRefusals:
    EXPECT = {
        "missing grid": (ValidationError, "missing grids at call time: ['out']"),
        "unexpected name": (TypeError, "unexpected argument 'bogus'"),
        "mixed dtype": (ValidationError, "grids have mixed dtypes"),
        "wrong dtype": (TypeError, "kernel compiled for dtype float64, got float32"),
        "wrong shape": (ValidationError, "outside [0, 4)"),
        "non-contiguous": (ValueError, "grid 'u' must be C-contiguous"),
        "aliased": (ValueError, "output grid 'out' shares memory with grid 'u'"),
        "read-only output": (ValueError, "output grid 'out' is read-only"),
        "non-ndarray output": (TypeError, "output grid 'out' must be a numpy.ndarray"),
    }

    @pytest.mark.parametrize("case", sorted(EXPECT))
    def test_bind_refuses_what_call_refuses(self, case, rng):
        """Refused at bind as at call, with one type and text on all six
        backends."""
        options, kwargs = _refusals(rng)[case]
        kind, text = self.EXPECT[case]
        seen = set()
        for backend in ALL_BACKENDS:
            kernel = lap_stencil().compile(backend=backend, **options)
            with pytest.raises(kind) as at_call:
                kernel(**kwargs)
            with pytest.raises(kind) as at_bind:
                kernel.bind(**kwargs)
            assert type(at_bind.value) is type(at_call.value) is kind
            assert str(at_bind.value) == str(at_call.value)
            assert text in str(at_bind.value)
            seen.add(str(at_bind.value))
        assert len(seen) == 1, seen

    def test_array_like_input_is_converted_once(self, rng):
        arrays = lap_arrays(rng)
        expect = np.zeros((8, 8))
        kernel = lap_stencil().compile(backend="c")
        kernel(u=arrays["u"], out=expect)
        bound = kernel.bind(u=arrays["u"].tolist(), out=arrays["out"])
        bound()
        np.testing.assert_array_equal(arrays["out"], expect)

    def test_params_are_checked_per_call(self, rng):
        group = scaled_group()
        arrays = {g: rng.random((8, 8)) for g in group.grids()}
        kernel = group.compile(backend="c")
        bound = kernel.bind(**arrays)
        for call in (kernel, bound):
            grids = arrays if call is kernel else {}
            with pytest.raises(
                ValidationError, match=r"missing params at call time: \['wb'\]"
            ):
                call(**grids, wa=1.0)
            with pytest.raises(TypeError, match="unexpected argument 'wc'"):
                call(**grids, wa=1.0, wb=1.0, wc=1.0)


class TestPerCallObservables:
    def test_fault_site_reached_once_per_bound_call(self, rng):
        bound = lap_stencil().compile(backend="c").bind(**lap_arrays(rng))
        before = faults.reached("backend.invoke")
        for i in range(1, 4):
            bound()
            assert faults.reached("backend.invoke") == before + i

    def test_injected_fault_raises_from_a_bound_call(self, rng):
        arrays = lap_arrays(rng)
        bound = lap_stencil().compile(backend="c").bind(**arrays)
        with inject("backend.invoke"):
            with pytest.raises(InjectedFault, match="invoke c kernel for 'lap'"):
                bound()
        assert not arrays["out"].any()  # the kernel body did not run
        bound()
        assert arrays["out"].any()

    def test_fault_env_followed_live(self, rng, monkeypatch):
        bound = lap_stencil().compile(backend="c").bind(**lap_arrays(rng))
        bound()
        monkeypatch.setenv("SNOWFLAKE_FAULTS", "backend.invoke")
        with pytest.raises(InjectedFault):
            bound()

    def test_counted_once_per_bound_call_and_not_at_all_when_off(self, rng):
        bound = lap_stencil().compile(backend="c").bind(**lap_arrays(rng))
        telemetry.set_mode("counters")
        for i in range(1, 4):
            bound()
            assert calls() == i
        assert telemetry.snapshot()["kernels"]["c"]["points"] == 3 * 36
        telemetry.set_mode("off")
        bound()
        telemetry.set_mode("counters")
        assert calls() == 3

    def test_telemetry_env_flip_between_two_calls_is_honoured(
        self, rng, monkeypatch
    ):
        bound = lap_stencil().compile(backend="c").bind(**lap_arrays(rng))
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        bound()
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "counters")
        assert calls() == 0
        bound()
        assert calls() == 1
        hist = telemetry.snapshot()["histograms"]["kernel.call"]
        assert [(h["labels"], h["count"]) for h in hist] == [({"backend": "c"}, 1)]

    def test_guard_trips_from_a_bound_call(self, rng):
        arrays = lap_arrays(rng)
        kernel = lap_stencil().compile(
            backend="c", guards=Guards(nonfinite="raise")
        )
        bound = kernel.bind(**arrays)
        bound()
        arrays["u"][3, 3] = np.nan
        with pytest.raises(GuardViolation, match="output grid 'out'"):
            bound()

    def test_one_kernel_span_per_bound_call(self, rng):
        bound = lap_stencil().compile(backend="c").bind(**lap_arrays(rng))
        bound()  # outside the session: not recorded
        with tracing.session():
            bound()
            bound()
        spans = [e for e in tracing.events() if e["name"] == "kernel:lap"]
        assert len(spans) == 2
        assert all(e["args"]["backend"] == "c" for e in spans)
        assert all(e["args"]["points"] == 36 for e in spans)


class TestResilientBind:
    def test_bound_call_degrades_to_the_next_backend(self, rng):
        arrays = lap_arrays(rng)
        expect = np.zeros((8, 8))
        lap_stencil().compile(backend="numpy")(u=arrays["u"], out=expect)
        kernel = lap_stencil().compile(backend="c", fallback=("numpy",))
        bound = kernel.bind(**arrays)
        arm("backend.invoke", times=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bound()
        assert kernel.serving_backend == "numpy"
        assert kernel.degraded
        assert [b for b, _ in kernel.attempts] == ["c"]
        assert any(isinstance(w.message, DegradedExecution) for w in caught)
        np.testing.assert_array_equal(arrays["out"], expect)
        bound()  # stays on numpy, no second walk
        assert [b for b, _ in kernel.attempts] == ["c"]

    def test_second_binding_follows_a_chain_another_moved(self, rng):
        kernel = lap_stencil().compile(backend="c", fallback=("numpy",))
        first, second = kernel.bind(**lap_arrays(rng)), kernel.bind(**lap_arrays(rng))
        arm("backend.invoke", times=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            first()
        before = calls("numpy")
        second()  # bound on c, which the chain has left
        assert calls("numpy") == before + 1
        assert [b for b, _ in kernel.attempts] == ["c"]

    def test_user_errors_propagate_at_bind(self, rng):
        kernel = lap_stencil().compile(backend="c", fallback=("numpy",))
        a = rng.random((8, 8))
        with pytest.raises(ValueError, match="shares memory"):
            kernel.bind(u=a, out=a)
        assert kernel.attempts == []


class TestThreads:
    def test_a_call_made_while_another_marshals_its_params(self, rng):
        """Deterministic interleaving at the C seam: the second param of
        one call converts by running a whole other call on a second
        thread, so a params buffer shared between calls would reach the
        kernel half overwritten."""
        from repro import get_backend

        group = scaled_group()
        u, v = rng.random((8, 8)), rng.random((8, 8))
        arrays = {"u": u, "v": v, "out": np.zeros((8, 8))}
        shapes = {g: (8, 8) for g in arrays}
        run = get_backend("c").specializer(group)(shapes, np.dtype(float)).bind(arrays)
        seen = {}

        def other_call():
            run({"wa": 10.0, "wb": 20.0})
            seen["other"] = arrays["out"].copy()

        class RunsOtherCall:
            def __float__(self):
                t = threading.Thread(target=other_call)
                t.start()
                t.join(timeout=30)
                assert not t.is_alive()
                return 3.0

        run({"wa": 1.0, "wb": RunsOtherCall()})
        inner = (slice(1, -1),) * 2
        np.testing.assert_array_equal(
            seen["other"][inner], (20.0 * v + 10.0 * u)[inner]
        )
        np.testing.assert_array_equal(
            arrays["out"][inner], (3.0 * v + 1.0 * u)[inner]
        )

    def test_threads_sharing_one_bound_kernel(self, rng):
        """Every call passes ``wa + wb == 4`` on ``u == v``, so ``out`` is
        ``4u`` whoever wrote it last — unless a call runs on params that
        are not the ones it was given."""
        u = rng.random((64, 64))
        arrays = {"u": u, "v": u.copy(), "out": np.zeros_like(u)}
        bound = scaled_group().compile(backend="c").bind(**arrays)
        pairs = [(1.0, 3.0), (3.0, 1.0), (0.0, 4.0), (4.0, 0.0)]
        expect = (3.0 * u + 1.0 * u)[1:-1, 1:-1]
        for wa, wb in pairs:  # the same bits whichever pair wrote them
            np.testing.assert_array_equal(
                (wb * u + wa * u)[1:-1, 1:-1], expect
            )
        bad: list[str] = []

        def worker(wa, wb):
            for _ in range(300):
                bound(wa=wa, wb=wb)
                if not np.array_equal(arrays["out"][1:-1, 1:-1], expect):
                    bad.append(f"({wa}, {wb})")
                    return

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=p) for p in pairs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
