"""CUDA dialect on the device simulator: shim header, launch-grid drivers."""

import numpy as np
import pytest

from repro.backends.gpu_backend import CUDA, generate_gpu_program
from repro.backends.jit import compile_and_load
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.gpusim import translation_unit

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


def make_prog(shapes=None, **kw):
    g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
    shapes = shapes or {"u": (10, 10), "out": (10, 10)}
    return generate_gpu_program(g, shapes, np.float64, CUDA, **kw)


class TestShim:
    def test_cuda_keywords_neutralized(self):
        h = CUDA.shim
        for macro in ("__global__", "__device__", "__restrict__", "__shared__"):
            assert f"#define {macro}" in h

    def test_builtin_index_variables(self):
        h = CUDA.shim
        for var in ("gridDim", "blockDim", "blockIdx", "threadIdx"):
            assert var in h

    def test_shim_compiles_standalone(self):
        compile_and_load(CUDA.shim + "\nint sf_cuda_dummy(void){return 1;}\n")


class TestTranslationUnit:
    def test_kernel_source_verbatim(self):
        prog = make_prog()
        tu = translation_unit(prog, "double")
        assert prog.source in tu

    def test_driver_derives_grid_by_ceil_division(self):
        prog = make_prog()
        tu = translation_unit(prog, "double")
        assert "(gsize[0] + block[0] - 1) / block[0]" in tu

    def test_driver_sweeps_blocks_and_threads(self):
        prog = make_prog()
        tu = translation_unit(prog, "double")
        for loop in ("by < gridDim.y", "bx < gridDim.x",
                     "ty < blockDim.y", "tx < blockDim.x"):
            assert loop in tu

    def test_whole_unit_compiles(self):
        compile_and_load(translation_unit(make_prog(), "double"))

    def test_partial_blocks_guarded_in_kernel(self, rng):
        # 13x9 interior with 32x4 blocks: most threads are out of range;
        # the kernel guard must make them no-ops.
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        u = rng.random((15, 11))
        ref = np.zeros((15, 11))
        g.compile(backend="python")(u=u, out=ref)
        out = np.zeros((15, 11))
        g.compile(backend="cuda-sim", block=(32, 4))(u=u, out=out)
        np.testing.assert_allclose(out, ref)
