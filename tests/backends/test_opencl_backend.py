"""OpenCL micro-compiler: kernel source, host plan, simulator execution."""

import numpy as np
import pytest

from repro.backends.gpu_backend import OPENCL, CopyBuffer, generate_gpu_program
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.operators import cc_laplacian, red_black_domains, smooth_group
from repro.schedule import ScheduleOptions

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


def program_for(group, shapes, schedule=ScheduleOptions(multicolor=False)):
    """The program the backend builds by default (its ``multicolor=False``)."""
    return generate_gpu_program(
        group, shapes, np.float64, OPENCL, schedule=schedule
    )


class TestKernelSource:
    def test_kernel_declared(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (16, 16), "out": (16, 16)})
        assert "__kernel void sf_k0_0" in prog.source
        assert "__global double*" in prog.source
        assert "get_global_id(0)" in prog.source

    def test_fp64_pragma_present(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (16, 16), "out": (16, 16)})
        assert "cl_khr_fp64" in prog.source

    def test_one_kernel_per_domain_box(self):
        red, _ = red_black_domains(2)
        g = StencilGroup([Stencil(LAP, "u", red)])
        prog = program_for(g, {"u": (16, 16)})
        assert "sf_k0_0" in prog.kernel_ranges
        assert "sf_k0_1" in prog.kernel_ranges

    def test_tall_skinny_ndrange_2d(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (10, 18), "out": (10, 18)})
        # NDRange dim 0 = innermost array dim (16 pts), dim 1 = next (8)
        assert prog.kernel_ranges["sf_k0_0"] == (16, 8)

    def test_3d_rolls_leading_dim(self):
        s = Stencil(cc_laplacian(3, 0.2, grid="u"), "out",
                    RectDomain((1, 1, 1), (-1, -1, -1)))
        prog = program_for(StencilGroup([s]),
                           {"u": (8, 8, 8), "out": (8, 8, 8)})
        # 2-D NDRange + in-kernel loop over i0
        assert prog.kernel_ranges["sf_k0_0"] == (6, 6)
        assert "for (long i0" in prog.source

    def test_guard_against_overshoot(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (10, 10), "out": (10, 10)})
        assert "return;" in prog.source

    def test_params_become_kernel_args(self):
        from repro.core.expr import Param

        s = Stencil(Param("w") * LAP, "out", INTERIOR)
        prog = program_for(StencilGroup([s]), {"u": (10, 10), "out": (10, 10)})
        assert "const double p_w" in prog.source


class TestHostPlan:
    def test_barriers_between_phases(self):
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("a", WeightArray([[1]])), "b", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        prog = program_for(g, {k: (12, 12) for k in g.grids()})
        kinds = [type(op).__name__ for op in prog.ops]
        assert kinds == ["KernelLaunch", "Barrier", "KernelLaunch", "Barrier"]

    def test_independent_share_phase(self):
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("v", WeightArray([[1]])), "b", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        prog = program_for(g, {k: (12, 12) for k in g.grids()})
        kinds = [type(op).__name__ for op in prog.ops]
        assert kinds == ["KernelLaunch", "KernelLaunch", "Barrier"]

    def test_hazardous_inplace_gets_copy_op(self):
        hazard = Stencil(
            Component("u", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
            "u", INTERIOR,
        )
        prog = program_for(StencilGroup([hazard]), {"u": (12, 12)})
        copies = [op for op in prog.ops if isinstance(op, CopyBuffer)]
        assert len(copies) == 1
        assert copies[0].grid == "u"
        assert prog.snap_of[copies[0].snap] == "u"
        # copy precedes the launch
        assert isinstance(prog.ops[0], CopyBuffer)

    def test_gsrb_needs_no_copies(self):
        group = smooth_group(2, cc_laplacian(2, 0.1), lam=0.1)
        prog = program_for(group, {g: (12, 12) for g in group.grids()})
        assert not any(isinstance(op, CopyBuffer) for op in prog.ops)

    def test_buffer_order_grids_then_snaps(self):
        hazard = Stencil(
            Component("u", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
            "u", INTERIOR,
        )
        prog = program_for(StencilGroup([hazard]), {"u": (12, 12)})
        assert prog.buffer_order == ["u", "snap_0"]


class TestSimulatorExecution:
    def test_verbatim_source_is_what_runs(self, rng):
        from repro.gpusim import translation_unit

        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        prog = program_for(g, {"u": (10, 10), "out": (10, 10)})
        tu = translation_unit(prog, "double")
        assert prog.source in tu  # not a lookalike: literally included
        assert "drive_sf_k0_0" in tu

    def test_executes_correctly(self, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        k = g.compile(backend="opencl-sim")
        u = rng.random((10, 10))
        out = np.zeros((10, 10))
        k(u=u, out=out)
        manual = (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
            - 4 * u[1:-1, 1:-1]
        )
        np.testing.assert_allclose(out[1:-1, 1:-1], manual)

    def test_shape_guard(self, rng):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        k = g.compile(backend="opencl-sim", shapes={"u": (10, 10), "out": (10, 10)})
        ok_u, ok_out = rng.random((10, 10)), np.zeros((10, 10))
        k(u=ok_u, out=ok_out)

    def test_unknown_option(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        with pytest.raises(TypeError):
            g.compile(backend="opencl-sim", warp=32)

    def test_1d_ndrange(self, rng):
        s = Stencil(Component("u", WeightArray([1.0, -2.0, 1.0])), "out",
                    RectDomain((1,), (-1,)))
        prog = program_for(StencilGroup([s]), {"u": (20,), "out": (20,)})
        assert prog.kernel_ranges["sf_k0_0"] == (18,)
        k = StencilGroup([s]).compile(backend="opencl-sim")
        u = rng.random(20)
        out = np.zeros(20)
        k(u=u, out=out)
        np.testing.assert_allclose(out[1:-1], u[:-2] - 2 * u[1:-1] + u[2:])
