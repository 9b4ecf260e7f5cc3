"""The ``times``-aware :func:`repro.run` entry point."""

import numpy as np
import pytest

from repro import run
from tests.schedule.test_time_tile import (
    gsrb_case,
    jacobi_case,
    periodic_case,
)


class TestRun:
    def test_time_tile_lands_in_one_invocation(self):
        group, shapes, arrays = gsrb_case()
        tiled = {g: a.copy() for g, a in arrays.items()}
        assert run(group, tiled, times=4, backend="numpy") == 1
        ref = {g: a.copy() for g, a in arrays.items()}
        kernel = group.compile(
            backend="numpy", shapes=shapes, dtype=np.float64
        )
        for _ in range(4):
            kernel(**ref)
        for g in sorted(shapes):
            np.testing.assert_array_equal(tiled[g], ref[g])

    def test_refused_group_falls_back_to_k_calls(self):
        group, shapes = periodic_case()
        rng = np.random.default_rng(0)
        arrays = {g: rng.standard_normal(shapes[g]) for g in shapes}
        assert run(group, arrays, times=3, backend="numpy") == 3

    def test_strict_surfaces_the_refusal(self):
        group, shapes = periodic_case()
        rng = np.random.default_rng(0)
        arrays = {g: rng.standard_normal(shapes[g]) for g in shapes}
        with pytest.raises(ValueError, match="not legal"):
            run(group, arrays, times=3, backend="numpy", strict=True)

    def test_gpu_sim_falls_back(self):
        group, shapes, arrays = jacobi_case()
        work = {g: a.copy() for g, a in arrays.items()}
        assert run(group, work, times=2, backend="cuda-sim") == 2

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

    def test_refusal_fallback_is_memoised_and_strict_still_raises(self):
        from repro import telemetry

        group, shapes = periodic_case()
        rng = np.random.default_rng(0)
        arrays = {g: rng.standard_normal(shapes[g]) for g in shapes}
        assert run(group, arrays, times=3, backend="numpy") == 3
        specialized = telemetry.snapshot()["timers"]["backend.numpy.specialize"]
        assert run(group, arrays, times=3, backend="numpy") == 3
        again = telemetry.snapshot()["timers"]["backend.numpy.specialize"]
        assert again["count"] == specialized["count"]
        for _ in range(2):
            with pytest.raises(ValueError, match="not legal"):
                run(group, arrays, times=3, backend="numpy", strict=True)

    def test_memo_is_bounded_and_dies_with_the_program(self):
        import gc
        import weakref

        from repro.run import _MEMO_SIZE

        group, _, arrays = jacobi_case()
        for times in range(1, _MEMO_SIZE + 4):
            run(group, arrays, times=times, backend="numpy")
        assert len(group._run_kernels) == _MEMO_SIZE
        kernel = weakref.ref(next(iter(group._run_kernels.values()))[0])
        del group
        # schedule_for's bounded LRU also holds the group; with that
        # aged out, nothing run() made keeps program or kernel alive
        from repro.schedule import lower

        lower._CACHE.clear()
        gc.collect()
        assert kernel() is None

    def test_unhashable_option_value_still_runs(self):
        group, _, arrays = jacobi_case()
        work = {g: a.copy() for g, a in arrays.items()}
        assert run(group, work, backend="c", fallback=["numpy"]) == 1
