"""The ``times``-aware :func:`repro.run` entry point."""

import numpy as np
import pytest

from repro import run
from tests.schedule.test_time_tile import (
    gsrb_case,
    jacobi_case,
    periodic_case,
    smooth_case,
)


def assert_one_invocation(case, backend, times):
    """``run(times=times)`` is one call, bitwise ``times`` plain calls."""
    group, shapes, arrays = case
    work = {g: a.copy() for g, a in arrays.items()}
    assert run(group, work, times=times, backend=backend) == 1
    ref = {g: a.copy() for g, a in arrays.items()}
    kernel = group.compile(backend=backend, shapes=shapes)
    for _ in range(times):
        kernel(**ref)
    for g in sorted(shapes):
        np.testing.assert_array_equal(work[g], ref[g])


class TestRun:
    def test_time_tile_lands_in_one_invocation(self):
        assert_one_invocation(gsrb_case(), "numpy", 4)

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_periodic_group_runs_in_one_invocation(self, backend):
        assert_one_invocation(periodic_case(), backend, 3)

    def test_gpu_sim_runs_in_one_invocation(self):
        assert_one_invocation(jacobi_case(), "cuda-sim", 2)

    @pytest.mark.parametrize(
        "backend",
        ["python", "numpy", "c", "openmp", "opencl-sim", "cuda-sim"],
    )
    @pytest.mark.parametrize("case", [jacobi_case, smooth_case])
    def test_lagged_applications_are_k_calls(self, always_lag, backend, case):
        # c lags the applications in its plane loop; the others keep
        # their loop over the same schedule
        assert_one_invocation(case(), backend, 4)

    def test_strict_is_not_an_option(self):
        group, _, arrays = periodic_case()
        with pytest.raises(TypeError, match="strict"):
            run(group, arrays, times=3, backend="numpy", strict=True)

    def test_times_one_is_a_plain_call(self):
        group, _, arrays = jacobi_case()
        work = {g: a.copy() for g, a in arrays.items()}
        assert run(group, work, times=1, backend="numpy") == 1

    def test_bad_times_rejected(self):
        group, _, arrays = jacobi_case()
        with pytest.raises(ValueError, match="times"):
            run(group, arrays, times=0, backend="numpy")

    def test_accepts_bare_stencil(self):
        group, _, arrays = jacobi_case()
        (stencil,) = tuple(group)
        work = {g: a.copy() for g, a in arrays.items()}
        assert run(stencil, work, times=2, backend="numpy") == 1


class TestRunMemo:
    """``run`` keeps its compiled kernel on the program object."""

    @pytest.fixture(autouse=True)
    def _counters(self, monkeypatch):
        from repro import telemetry

        monkeypatch.delenv("SNOWFLAKE_TELEMETRY", raising=False)
        telemetry.set_mode("counters")
        telemetry.reset()
        yield
        telemetry.set_mode(None)
        telemetry.reset()

    @staticmethod
    def compiles():
        from repro import telemetry

        snap = telemetry.snapshot()
        return (
            snap["counters"].get("codegen.c.sources", 0),
            snap["timers"].get("backend.c.specialize", {}).get("count", 0),
        )

    @pytest.mark.parametrize("times", (1, 4))
    def test_second_run_compiles_nothing(self, times):
        group, _, arrays = jacobi_case()
        work = {g: a.copy() for g, a in arrays.items()}
        first = run(group, work, times=times, backend="c")
        after_first = self.compiles()
        assert after_first[0] >= 1
        assert run(group, work, times=times, backend="c") == first
        assert self.compiles() == after_first

    def test_other_shapes_options_or_program_compile_afresh(self):
        group, _, arrays = jacobi_case()
        run(group, arrays, backend="c")
        n = self.compiles()
        bigger = jacobi_case(12)[2]
        run(group, bigger, backend="c")
        assert self.compiles() == (n[0] + 1, n[1] + 1)
        run(group, arrays, backend="c", tile=4)
        assert self.compiles() == (n[0] + 2, n[1] + 2)
        run(jacobi_case()[0], arrays, backend="c")  # an equal program, another object
        assert self.compiles() == (n[0] + 3, n[1] + 3)
        run(group, arrays, backend="c")
        assert self.compiles() == (n[0] + 3, n[1] + 3)

    @pytest.mark.parametrize("lag", [False, True])
    def test_every_depth_shares_one_artifact(
        self, monkeypatch, tmp_path, l2, lag
    ):
        # a whole-sweep tile renders the times=1 text, so times = 1..5
        # compile one shared object; a lagged tile's depth rides in
        # dims, so times = 2..5 do
        from repro import telemetry
        from repro.backends import jit

        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "jit"))
        monkeypatch.setattr(jit, "_loaded", {})
        monkeypatch.setattr(jit, "_tag_locks", {})
        if lag:
            l2(0)
        group, shapes, arrays = jacobi_case()
        depths = (2, 3, 4, 5) if lag else (1, 2, 3, 4, 5)
        for t in depths:
            work = {g: a.copy() for g, a in arrays.items()}
            assert run(group, work, times=t, backend="c") == 1
            ref = {g: a.copy() for g, a in arrays.items()}
            kernel = group.compile(backend="python", shapes=shapes)
            for _ in range(t):
                kernel(**ref)
            for g in sorted(shapes):
                np.testing.assert_array_equal(work[g], ref[g])
        counters = telemetry.snapshot()["counters"]
        assert counters["jit.cache.miss"] == 1
        assert self.compiles()[0] == len(depths)

    def test_periodic_kernel_is_memoised(self):
        from repro import telemetry

        group, _, arrays = periodic_case()
        assert run(group, arrays, times=3, backend="numpy") == 1
        specialized = telemetry.snapshot()["timers"]["backend.numpy.specialize"]
        assert run(group, arrays, times=3, backend="numpy") == 1
        again = telemetry.snapshot()["timers"]["backend.numpy.specialize"]
        assert again["count"] == specialized["count"]

    def test_memo_is_bounded_and_dies_with_the_program(self):
        import gc
        import weakref

        from repro.run import _MEMO_SIZE

        group, _, arrays = jacobi_case()
        for times in range(1, _MEMO_SIZE + 4):
            run(group, arrays, times=times, backend="numpy")
        assert len(group._run_kernels) == _MEMO_SIZE
        kernel = weakref.ref(next(iter(group._run_kernels.values())))
        del group
        # schedule_for's bounded LRU also holds the group; with that
        # aged out, nothing run() made keeps program or kernel alive
        from repro.schedule import lower

        lower._CACHE.clear()
        gc.collect()
        assert kernel() is None

    @pytest.mark.parametrize(
        "options", ({"fallback": ["numpy"]}, {"block": [32, 4]})
    )
    def test_list_valued_option_compiles_once(self, options):
        group, _, arrays = jacobi_case()
        for _ in range(5):
            run(group, arrays, backend="c", **options)
        assert self.compiles()[0] == 1

    def test_unhashable_option_value_still_runs(self):
        group, _, arrays = jacobi_case()
        work = {g: a.copy() for g, a in arrays.items()}
        assert run(group, work, backend="c", fallback=["numpy"]) == 1
