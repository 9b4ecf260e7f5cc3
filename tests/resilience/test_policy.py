"""Fallback chains, retry/backoff, degradation reporting."""

import warnings

import numpy as np
import pytest

from repro import Component, ExecutionPolicy, RectDomain, Stencil, WeightArray
from repro.resilience import BackendChainError, DegradedExecution, InjectedFault
from repro.resilience.faults import arm, inject

pytestmark = pytest.mark.faults

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


def make_stencil():
    return Stencil(LAP, "out", INTERIOR)


def reference(u):
    out = np.zeros_like(u)
    make_stencil().compile(backend="python")(u=u, out=out)
    return out


@pytest.fixture
def broken_cc(monkeypatch):
    monkeypatch.setenv("SNOWFLAKE_CC", "/nonexistent/snowflake-cc")


class TestFallbackChain:
    def test_degrades_to_numpy_matching_reference(self, broken_cc, rng):
        u = rng.random((12, 12))
        out = np.zeros_like(u)
        kernel = make_stencil().compile(
            backend="openmp", fallback=("c", "numpy")
        )
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            kernel(u=u, out=out)
        np.testing.assert_allclose(out, reference(u))
        assert kernel.serving_backend == "numpy"
        assert kernel.degraded
        assert [b for b, _ in kernel.attempts] == ["openmp", "c"]
        degraded = [
            x for x in w if isinstance(x.message, DegradedExecution)
        ]
        assert len(degraded) == 1, "exactly one degradation warning"
        assert "openmp" in str(degraded[0].message)

    def test_eager_shapes_degrade_at_compile_time(self, broken_cc, rng):
        shapes = {"u": (10, 10), "out": (10, 10)}
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            kernel = make_stencil().compile(
                backend="c", shapes=shapes, fallback=("numpy",)
            )
        assert kernel.serving_backend == "numpy"
        assert any(isinstance(x.message, DegradedExecution) for x in w)
        u = rng.random((10, 10))
        out = np.zeros_like(u)
        kernel(u=u, out=out)
        np.testing.assert_allclose(out, reference(u))

    def test_healthy_primary_never_warns(self, rng):
        u = rng.random((8, 8))
        out = np.zeros_like(u)
        kernel = make_stencil().compile(
            backend="numpy", fallback=("python",)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedExecution)
            kernel(u=u, out=out)
        assert kernel.serving_backend == "numpy"
        assert not kernel.degraded
        assert kernel.attempts == []

    def test_chain_is_deduplicated(self):
        kernel = make_stencil().compile(
            backend="numpy", fallback=("numpy", "python", "numpy")
        )
        assert kernel.chain == ("numpy", "python")

    def test_chain_exhaustion_carries_attempt_log(self, rng):
        u = rng.random((8, 8))
        kernel = make_stencil().compile(
            backend="numpy", fallback=("python",)
        )
        arm("backend.invoke", times=None)  # every backend's invoke dies
        with pytest.raises(BackendChainError) as ei:
            kernel(u=u, out=np.zeros_like(u))
        assert [b for b, _ in ei.value.attempts] == ["numpy", "python"]
        assert "numpy" in str(ei.value)

    def test_user_errors_propagate_not_degrade(self, rng):
        kernel = make_stencil().compile(
            backend="numpy", fallback=("python",)
        )
        with pytest.raises(TypeError, match="unexpected argument"):
            kernel(u=rng.random((8, 8)), wrong_name=np.zeros((8, 8)))
        assert kernel.attempts == []

    def test_options_carried_across_family_switch(self, broken_cc, rng):
        # `tile` has a lowering on openmp and none on numpy: the chain
        # crosses with the hint carried (numpy ignores it), not dropped.
        u = rng.random((10, 10))
        out = np.zeros_like(u)
        kernel = make_stencil().compile(
            backend="openmp", fallback=("numpy",), tile=4
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            kernel(u=u, out=out)
        assert kernel.serving_backend == "numpy"
        np.testing.assert_allclose(out, reference(u))

    @pytest.mark.parametrize("case", ["fortran-order input", "out is u"])
    def test_refusal_does_not_depend_on_the_toolchain(
        self, case, monkeypatch, rng
    ):
        """The arrays decide a refusal, not the host: with gcc and with
        ``SNOWFLAKE_CC=false``, the same ``ValueError`` and text through
        ``compile(fallback=)`` and ``repro.run``, and the chain does not
        advance (numpy used to serve these when the compiler was gone)."""
        import shutil

        import repro

        u = rng.random((8, 8))
        grids, want = {
            "fortran-order input": (
                {"u": np.asfortranarray(u), "out": np.zeros((8, 8))},
                "grid 'u' must be C-contiguous",
            ),
            "out is u": (
                {"u": u, "out": u},
                "output grid 'out' shares memory with grid 'u': a kernel's "
                "outputs must not overlap its other grids",
            ),
        }[case]
        seen = []
        for cc in ("false", "gcc") if shutil.which("gcc") else ("false",):
            monkeypatch.setenv("SNOWFLAKE_CC", cc)
            kernel = make_stencil().compile(backend="c", fallback=["numpy"])
            with pytest.raises(ValueError) as ei:
                kernel(**grids)
            assert kernel.attempts == []
            seen.append(str(ei.value))
            with warnings.catch_warnings():
                # without a compiler, run's eager compile degrades first
                warnings.simplefilter("ignore", DegradedExecution)
                with pytest.raises(ValueError) as ei:
                    repro.run(
                        make_stencil(), grids, backend="c", fallback=["numpy"]
                    )
            seen.append(str(ei.value))
        assert seen == [want] * len(seen)
        np.testing.assert_array_equal(grids["u"], u)  # nothing was written

    def test_typo_fails_at_the_first_link_as_without_fallback(self):
        shapes = {"u": (10, 10), "out": (10, 10)}
        for chain in (None, ("numpy",)):
            with pytest.raises(TypeError, match="unknown options.*tilesize"):
                make_stencil().compile(
                    backend="numpy", shapes=shapes, fallback=chain, tilesize=4
                )

    @pytest.mark.parametrize("primary", ["c", "openmp"])
    def test_fallback_carries_time_tile(self, broken_cc, primary):
        # time_tile is semantic: k applications per call.  Dropping it
        # with the hint next to it would halve the work, silently.
        halve = Stencil(Component("u", WeightArray([[0.5]])), "u", INTERIOR)
        u = np.ones((10, 10))
        kernel = halve.compile(
            backend=primary, fallback=["numpy"], tile=4, time_tile=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            kernel(u=u)
        assert kernel.serving_backend == "numpy"
        assert (u[1:-1, 1:-1] == 0.25).all() and u[0, 0] == 1.0

        import repro

        v = np.ones((10, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            calls = repro.run(
                halve, {"u": v}, times=2, backend=primary, tile=4,
                fallback=["numpy"],
            )
        assert calls == 1  # the time tile landed, on numpy
        assert (v[1:-1, 1:-1] == 0.25).all()


class TestRetries:
    def test_transient_specialize_failure_retried_in_place(self, rng):
        sleeps = []
        policy = ExecutionPolicy(
            fallback=("python",), max_retries=2, backoff=0.01,
            sleep=sleeps.append,
        )
        kernel = make_stencil().compile(backend="numpy", policy=policy)
        arm("backend.specialize", times=1, exc=OSError)
        u = rng.random((8, 8))
        out = np.zeros_like(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedExecution)
            kernel(u=u, out=out)
        assert kernel.serving_backend == "numpy"  # no degradation
        assert sleeps == [0.01]  # one backoff sleep, then success
        np.testing.assert_allclose(out, reference(u))

    def test_retry_budget_bounded_then_degrades(self, rng):
        sleeps = []
        policy = ExecutionPolicy(
            fallback=("python",), max_retries=2, backoff=0.01,
            sleep=sleeps.append,
        )
        kernel = make_stencil().compile(backend="numpy", policy=policy)
        # exactly numpy's whole budget (1 try + 2 retries); python then
        # specializes cleanly
        arm("backend.specialize", times=3, exc=OSError)
        u = rng.random((8, 8))
        out = np.zeros_like(u)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            kernel(u=u, out=out)
        # 2 retries on numpy (exponential backoff), then the fallback
        assert sleeps == [0.01, 0.02]
        assert kernel.serving_backend == "python"
        assert any(isinstance(x.message, DegradedExecution) for x in w)
        np.testing.assert_allclose(out, reference(u))

    def test_missing_compiler_skips_retry_budget(self, broken_cc, rng):
        sleeps = []
        policy = ExecutionPolicy(
            fallback=("numpy",), max_retries=5, backoff=0.01,
            sleep=sleeps.append,
        )
        kernel = make_stencil().compile(backend="c", policy=policy)
        u = rng.random((8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            kernel(u=u, out=np.zeros_like(u))
        assert sleeps == []  # FileNotFoundError is not transient
        assert kernel.serving_backend == "numpy"


class TestCompileTimeout:
    def test_hung_compiler_hits_hard_timeout_then_degrades(
        self, tmp_path, monkeypatch, rng
    ):
        hung = tmp_path / "hung-cc"
        hung.write_text("#!/bin/sh\nsleep 30\n")
        hung.chmod(0o755)
        monkeypatch.setenv("SNOWFLAKE_CC", str(hung))
        sleeps = []
        policy = ExecutionPolicy(
            fallback=("numpy",), max_retries=1, backoff=0.01,
            compile_timeout=0.2, sleep=sleeps.append,
        )
        u = rng.random((8, 8))
        out = np.zeros_like(u)
        kernel = make_stencil().compile(backend="c", policy=policy)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            kernel(u=u, out=out)
        assert kernel.serving_backend == "numpy"
        assert sleeps == [0.01]  # timeout is transient: one retry
        assert any("CompileTimeout" in e for _, e in kernel.attempts)
        assert any(isinstance(x.message, DegradedExecution) for x in w)
        np.testing.assert_allclose(out, reference(u))


class TestInjectedJitFaults:
    def test_spawn_fault_degrades(self, rng, fresh_jit):
        u = rng.random((8, 8))
        out = np.zeros_like(u)
        kernel = make_stencil().compile(backend="c", fallback=("numpy",))
        with inject("jit.spawn", times=None):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                kernel(u=u, out=out)
        assert kernel.serving_backend == "numpy"
        np.testing.assert_allclose(out, reference(u))

    def test_plain_compile_unaffected_by_policy_machinery(self, rng):
        # no fallback/policy argument -> the classic direct path, which
        # surfaces injected faults raw
        kernel = make_stencil().compile(backend="numpy")
        with inject("backend.invoke"):
            with pytest.raises(InjectedFault):
                kernel(u=rng.random((8, 8)), out=np.zeros((8, 8)))
