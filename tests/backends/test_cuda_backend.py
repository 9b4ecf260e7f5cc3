"""CUDA micro-compiler: kernel source, launch plan, simulator execution."""

import numpy as np
import pytest

from repro.backends.gpu_backend import CUDA, CopyBuffer, generate_gpu_program
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.operators import cc_laplacian, red_black_domains
from repro.schedule import ScheduleOptions

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


def program_for(group, shapes, schedule=ScheduleOptions(multicolor=False)):
    """The program the backend builds by default (its ``multicolor=False``)."""
    return generate_gpu_program(
        group, shapes, np.float64, CUDA, schedule=schedule
    )


class TestKernelSource:
    def test_global_kernel_declared(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (16, 16), "out": (16, 16)})
        assert "__global__ void sf_cuda_k0_0" in prog.source
        assert "blockIdx.x * blockDim.x + threadIdx.x" in prog.source
        assert "__restrict__" in prog.source

    def test_guard_present(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (10, 10), "out": (10, 10)})
        assert "return;" in prog.source

    def test_one_kernel_per_box(self):
        red, _ = red_black_domains(2)
        g = StencilGroup([Stencil(LAP, "u", red)])
        prog = program_for(g, {"u": (16, 16)})
        assert set(prog.kernel_ranges) == {"sf_cuda_k0_0", "sf_cuda_k0_1"}

    def test_3d_rolls_leading_dim(self):
        s = Stencil(cc_laplacian(3, 0.2, grid="u"), "out",
                    RectDomain((1, 1, 1), (-1, -1, -1)))
        prog = program_for(StencilGroup([s]),
                           {"u": (8, 8, 8), "out": (8, 8, 8)})
        assert prog.kernel_ranges["sf_cuda_k0_0"] == (6, 6)
        assert "for (long i0" in prog.source

    def test_block_shape_recorded(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (16, 16), "out": (16, 16)},
                           schedule=ScheduleOptions(block=(16, 2)))
        assert prog.block == (16, 2)


class TestHostPlan:
    def test_barrier_per_phase(self):
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("a", WeightArray([[1]])), "b", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        prog = program_for(g, {k: (12, 12) for k in g.grids()})
        kinds = [type(op).__name__ for op in prog.ops]
        assert kinds == ["KernelLaunch", "Barrier", "KernelLaunch", "Barrier"]

    def test_hazard_gets_device_copy(self):
        hazard = Stencil(
            Component("u", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
            "u", INTERIOR,
        )
        prog = program_for(StencilGroup([hazard]), {"u": (12, 12)})
        assert isinstance(prog.ops[0], CopyBuffer)


class TestSimulatorExecution:
    def test_matches_manual(self, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        k = g.compile(backend="cuda-sim")
        u = rng.random((20, 20))
        out = np.zeros((20, 20))
        k(u=u, out=out)
        manual = (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
            - 4 * u[1:-1, 1:-1]
        )
        np.testing.assert_allclose(out[1:-1, 1:-1], manual)

    @pytest.mark.parametrize("block", [(1, 1), (8, 8), (32, 4), (5, 3)])
    def test_any_block_shape_same_answer(self, rng, block):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        u = rng.random((13, 17))
        ref = np.zeros((13, 17))
        g.compile(backend="python")(u=u, out=ref)
        out = np.zeros((13, 17))
        g.compile(backend="cuda-sim", block=block)(u=u, out=out)
        np.testing.assert_allclose(out, ref)

    def test_verbatim_source_included(self):
        from repro.gpusim import translation_unit

        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (10, 10), "out": (10, 10)})
        tu = translation_unit(prog, "double")
        assert prog.source in tu
        assert "drive_sf_cuda_k0_0" in tu

    def test_1d_stencil(self, rng):
        s = Stencil(Component("u", WeightArray([1.0, -2.0, 1.0])), "out",
                    RectDomain((1,), (-1,)))
        k = StencilGroup([s]).compile(backend="cuda-sim")
        u = rng.random(40)
        out = np.zeros(40)
        k(u=u, out=out)
        np.testing.assert_allclose(out[1:-1], u[:-2] - 2 * u[1:-1] + u[2:])

    def test_unknown_option(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        with pytest.raises(TypeError):
            g.compile(backend="cuda-sim", warps=4)

    def test_gsrb_smoother_end_to_end(self, rng):
        from repro.hpgmg.operators import smooth_group, vc_laplacian

        group = smooth_group(3, vc_laplacian(3, 1 / 6), lam="lam")
        shape = (8, 8, 8)
        base = {g: rng.random(shape) for g in group.grids()}
        base["lam"] = 0.05 + 0.01 * rng.random(shape)
        ref = {g: a.copy() for g, a in base.items()}
        group.compile(backend="python")(**ref)
        got = {g: a.copy() for g, a in base.items()}
        group.compile(backend="cuda-sim")(**got)
        np.testing.assert_allclose(got["x"], ref["x"], rtol=1e-12)
