"""Multigrid solver: convergence, smoother/interp variants, F-cycle."""

import functools

import numpy as np
import pytest

from repro.backends.base import Program
from repro.hpgmg.level import Level
from repro.hpgmg.problem import apply_operator, setup_problem, smooth_u_exact
from repro.hpgmg.solver import MultigridSolver, _chebyshev_weights


def reduction_rate(history):
    """Geometric mean per-cycle reduction, skipping the first cycle."""
    if len(history) < 3:
        raise ValueError("need at least 2 cycles")
    return (history[1] / history[-1]) ** (1.0 / (len(history) - 2))


class TestConvergence:
    @pytest.mark.parametrize("coeff", ["constant", "variable"])
    def test_2d_vcycle_converges(self, coeff):
        level, u = setup_problem(32, ndim=2, coefficients=coeff)
        solver = MultigridSolver(level, backend="numpy")
        hist = solver.solve(cycles=6)
        assert reduction_rate(hist) > 5.0
        err = np.max(np.abs(level.grids["x"][level.interior] - u[level.interior]))
        assert err < 1e-4

    def test_3d_vcycle_converges(self):
        level, u = setup_problem(16, ndim=3, coefficients="variable")
        solver = MultigridSolver(level, backend="c")
        hist = solver.solve(cycles=6)
        assert reduction_rate(hist) > 4.0

    def test_rtol_early_exit(self):
        level, _ = setup_problem(16, ndim=2)
        solver = MultigridSolver(level, backend="numpy")
        hist = solver.solve(cycles=50, rtol=1e-6)
        assert len(hist) < 30
        assert hist[-1] <= 1e-6 * hist[0]

    def test_hierarchy_sizes(self):
        solver = MultigridSolver(Level(32, 2), backend="numpy")
        assert [l.n for l in solver.levels] == [32, 16, 8, 4, 2]

    def test_min_coarse_respected(self):
        solver = MultigridSolver(Level(32, 2), backend="numpy", min_coarse=8)
        assert [l.n for l in solver.levels] == [32, 16, 8]

    def test_odd_size_stops_coarsening(self):
        solver = MultigridSolver(Level(24, 2), backend="numpy")
        assert [l.n for l in solver.levels] == [24, 12, 6, 3]


class TestSmootherVariants:
    def test_jacobi_smoother_converges(self):
        level, _ = setup_problem(16, ndim=2)
        solver = MultigridSolver(level, backend="numpy", smoother="jacobi",
                                 n_pre=3, n_post=3)
        hist = solver.solve(cycles=6)
        assert reduction_rate(hist) > 2.0

    def test_chebyshev_smoother_converges(self):
        level, _ = setup_problem(16, ndim=2)
        solver = MultigridSolver(level, backend="numpy", smoother="chebyshev")
        hist = solver.solve(cycles=6)
        assert reduction_rate(hist) > 2.0

    def test_unknown_smoother(self):
        with pytest.raises(ValueError):
            MultigridSolver(Level(8, 2), smoother="sor")

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_chebyshev_history_unchanged_by_binding_the_weights(
        self, backend
    ):
        """The weights are params fixed at bind: the same solve with
        every smoother call passing them, as it did before, is bitwise
        the same history."""

        class PerCallWeights(MultigridSolver):
            def _params(self, level):
                params = super()._params(level)
                del params["cheb_w0"], params["cheb_w1"]
                return params

            def _bind(self, units, name):
                ws = dict(zip(("cheb_w0", "cheb_w1"), _chebyshev_weights()))
                _, bound = super()._bind(units, name)
                # the weights are passed on every call, so the cycle
                # runs its steps one call at a time
                return Program(name, ()), [
                    functools.partial(b, **ws) if "cheb_w0" in g.params() else b
                    for b, (g, _) in zip(bound, units)
                ]

        hist = []
        for cls in (MultigridSolver, PerCallWeights):
            level, _ = setup_problem(16, ndim=2, coefficients="variable")
            hist.append(
                cls(level, backend=backend, smoother="chebyshev").solve(cycles=4)
            )
        assert hist[0] == hist[1]

    def test_chebyshev_weights(self):
        ws = _chebyshev_weights(degree=2, lo=0.5, hi=2.0)
        assert len(ws) == 2
        assert all(w > 0 for w in ws)
        assert ws[0] != ws[1]


class TestInterpolationVariants:
    def test_linear_interpolation_converges(self):
        level, _ = setup_problem(16, ndim=2, coefficients="variable")
        solver = MultigridSolver(level, backend="numpy", interpolation="linear")
        hist = solver.solve(cycles=6)
        assert reduction_rate(hist) > 4.0

    def test_unknown_interpolation(self):
        with pytest.raises(ValueError):
            MultigridSolver(Level(8, 2), interpolation="spectral")


class TestFCycle:
    def test_fmg_first_cycle_beats_vcycle(self):
        lv, _ = setup_problem(32, ndim=2, coefficients="constant")
        sv = MultigridSolver(lv, backend="numpy", interpolation="linear")
        hv = sv.solve(cycles=1)

        lf, _ = setup_problem(32, ndim=2, coefficients="constant")
        sf = MultigridSolver(lf, backend="numpy", interpolation="linear")
        hf = sf.solve(cycles=1, cycle="f")
        assert hf[-1] < hv[-1]

    def test_f_then_v_converges(self):
        level, u = setup_problem(16, ndim=2)
        solver = MultigridSolver(level, backend="numpy", interpolation="linear")
        hist = solver.solve(cycles=5, cycle="f")
        assert hist[-1] < 1e-4 * hist[0]

    def test_unknown_cycle(self):
        level, _ = setup_problem(8, ndim=2)
        solver = MultigridSolver(level, backend="numpy")
        with pytest.raises(ValueError):
            solver.solve(cycles=1, cycle="w")


class TestProblemSetup:
    def test_u_exact_zero_on_ghosts(self):
        level = Level(8, 2)
        u = smooth_u_exact(level)
        assert not u[0, :].any() and not u[:, 0].any()

    def test_rhs_consistency(self):
        # rhs was built as A u*, so the residual at x = u* is ~0
        level, u = setup_problem(8, ndim=2)
        level.grids["x"][...] = u
        solver = MultigridSolver(level, backend="numpy")
        assert solver.residual_norm() < 1e-10

    def test_apply_operator_restores_state(self):
        level = Level(8, 2)
        level.grids["x"][level.interior] = 3.0
        level.grids["rhs"][level.interior] = 4.0
        x0 = level.grids["x"].copy()
        rhs0 = level.grids["rhs"].copy()
        apply_operator(level, smooth_u_exact(level))
        np.testing.assert_array_equal(level.grids["x"], x0)
        np.testing.assert_array_equal(level.grids["rhs"], rhs0)


class TestBackendOptions:
    def test_backend_options_forwarded(self):
        # compile every solver kernel with fusion + tiling enabled; the
        # solve must behave identically to the plain configuration.
        level_a, _ = setup_problem(8, ndim=2)
        plain = MultigridSolver(level_a, backend="c")
        ha = plain.solve(cycles=3)

        level_b, _ = setup_problem(8, ndim=2)
        tuned = MultigridSolver(
            level_b, backend="c",
            backend_options={"fuse": True, "tile": 4},
        )
        hb = tuned.solve(cycles=3)
        np.testing.assert_allclose(ha, hb, rtol=1e-12)

    def test_bad_backend_option_rejected_eagerly(self):
        with pytest.raises(TypeError):
            MultigridSolver(
                Level(8, 2), backend="c", backend_options={"gpu": True}
            )


class TestBoundKernels:
    """The solver binds its level grids at construction."""

    def test_vcycle_call_count_and_bits(self):
        """A 32^3 V-cycle is one program call on ``c`` and 60 kernel
        calls on ``numpy``, which runs the same steps one by one."""
        from repro import telemetry

        calls = {}
        telemetry.set_mode("counters")
        try:
            for backend in ("c", "numpy"):
                level, _ = setup_problem(32, ndim=3, coefficients="variable")
                solver = MultigridSolver(level, backend=backend)
                kernels = telemetry.snapshot()["kernels"]
                before = kernels.get(backend, {}).get("calls", 0)
                solver.v_cycle(0)
                after = telemetry.snapshot()["kernels"][backend]["calls"]
                calls[backend] = after - before
        finally:
            telemetry.set_mode(None)
        assert calls == {"c": 1, "numpy": 60}

        grids = []
        for backend in ("python", "c"):
            level, _ = setup_problem(8, ndim=3, coefficients="variable")
            s = MultigridSolver(level, backend=backend)
            s.v_cycle(0)
            s.v_cycle(0)
            grids.append([lv.grids[g] for lv in s.levels for g in ("x", "res")])
        for ref, got in zip(*grids):
            np.testing.assert_array_equal(got, ref)

    def test_backend_whose_compile_returns_a_bare_function(self):
        from repro.backends import Backend, get_backend, register_backend
        from repro.backends.base import _REGISTRY

        class Bare(Backend):
            name = "bare-function-test-backend"

            def specializer(self, group, **options):  # pragma: no cover
                raise NotImplementedError

            def compile(self, group, shapes=None, dtype=None, guards=None,
                        **options):
                kernel = get_backend("numpy").compile(group, shapes, dtype)
                return lambda **kwargs: kernel(**kwargs)

        register_backend(Bare())
        try:
            level, _ = setup_problem(8, ndim=2)
            hist = MultigridSolver(level, backend=Bare.name).solve(cycles=3)
        finally:
            _REGISTRY.pop(Bare.name, None)
        ref_level, _ = setup_problem(8, ndim=2)
        ref = MultigridSolver(ref_level, backend="numpy").solve(cycles=3)
        assert hist == ref
