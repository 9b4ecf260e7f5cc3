"""float32 support across every backend.

The compiled micro-compilers specialize on dtype (``float`` vs
``double`` codegen); numpy/python follow the arrays.  Single precision
matters for GPU-flavoured targets, so the simulators are covered too.
"""

import numpy as np
import pytest

from _helpers import ALL_BACKENDS, run_group
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.operators import smooth_group, vc_laplacian

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_laplacian_float32(backend, rng):
    u64 = rng.random((14, 14))
    u32 = u64.astype(np.float32)
    s = Stencil(LAP, "out", INTERIOR)
    got = run_group(
        s, {"u": u32, "out": np.zeros((14, 14), np.float32)}, backend=backend
    )["out"]
    ref = run_group(
        s, {"u": u64, "out": np.zeros((14, 14))}, backend="python"
    )["out"]
    np.testing.assert_allclose(got, ref, rtol=2e-5, atol=1e-6)
    assert got.dtype == np.float32


@pytest.mark.parametrize("backend", ["c", "openmp", "opencl-sim", "cuda-sim"])
def test_gsrb_smoother_float32(backend, rng):
    group = smooth_group(2, vc_laplacian(2, 1 / 12), lam="lam")
    shape = (14, 14)
    base64 = {g: rng.random(shape) for g in group.grids()}
    base64["lam"] = 0.01 + 0.001 * rng.random(shape)
    base32 = {g: a.astype(np.float32) for g, a in base64.items()}

    got = run_group(group, base32, backend=backend)["x"]
    ref = run_group(group, base64, backend="python")["x"]
    np.testing.assert_allclose(got, ref, rtol=5e-4, atol=1e-4)


def test_float32_kernel_source_uses_float(rng):
    from repro.backends import get_backend

    g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
    src = get_backend("c").generate(g, {"u": (8, 8), "out": (8, 8)}, np.float32)
    assert "float* restrict" in src
    assert "double* restrict" not in src


def test_float32_and_float64_specializations_coexist(rng):
    s = Stencil(LAP, "out", INTERIOR)
    k = s.compile(backend="c")
    u64, o64 = rng.random((8, 8)), np.zeros((8, 8))
    u32 = u64.astype(np.float32)
    o32 = np.zeros((8, 8), np.float32)
    k(u=u64, out=o64)
    k(u=u32, out=o32)
    assert k.specializations == 2
    np.testing.assert_allclose(o32, o64, rtol=2e-5, atol=1e-6)
