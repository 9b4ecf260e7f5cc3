"""OpenCL dialect on the device simulator: shim header, driver generation."""

import numpy as np
import pytest

from repro.backends.jit import compile_and_load
from repro.backends.gpu_backend import OPENCL, generate_gpu_program
from repro.gpusim import translation_unit
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


def make_prog(shapes=None):
    g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
    shapes = shapes or {"u": (10, 10), "out": (10, 10)}
    return generate_gpu_program(g, shapes, np.float64, OPENCL)


class TestShim:
    def test_defines_address_space_qualifiers(self):
        h = OPENCL.shim
        for macro in ("__kernel", "__global", "__local", "__constant"):
            assert f"#define {macro}" in h

    def test_get_global_id_defined(self):
        assert "get_global_id" in OPENCL.shim

    def test_shim_compiles_standalone(self):
        compile_and_load(OPENCL.shim + "\nint sf_dummy(void){return 1;}\n")


class TestTranslationUnit:
    def test_kernel_source_included_verbatim(self):
        prog = make_prog()
        tu = translation_unit(prog, "double")
        assert prog.source in tu

    def test_driver_per_kernel(self):
        prog = make_prog()
        tu = translation_unit(prog, "double")
        for k in prog.kernel_ranges:
            assert f"void drive_{k}(" in tu

    def test_driver_sets_global_size(self):
        prog = make_prog()
        tu = translation_unit(prog, "double")
        assert "__sf_gsz[0] = gsize[0];" in tu

    def test_whole_unit_compiles(self):
        prog = make_prog()
        compile_and_load(translation_unit(prog, "double"))
