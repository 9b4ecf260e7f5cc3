"""Six-backend parity on the shared optimized kernel body.

Every backend consumes the same :class:`~repro.kernel.ir.KernelBody`.
The compiled targets (C, OpenMP, and the OpenCL/CUDA simulators, which
execute real generated kernel text) must agree *bit for bit* with the
python reference — the pass pipeline is IEEE-preserving and the C
toolchain runs with contraction off.  numpy evaluates per-rect in a
different association order, so it gets allclose.
"""

import numpy as np
import pytest

from _helpers import eval_terms, run_group
from repro.bench import paper_operators
from repro.kernel import no_optimization

BITWISE_BACKENDS = ("c", "openmp", "opencl-sim", "cuda-sim")


def _arrays(stencil, rng, n=8):
    shape = (n + 2,) * stencil.ndim
    arrays = {g: rng.standard_normal(shape) for g in stencil.grids()}
    if "lam" in arrays:
        arrays["lam"] = np.abs(arrays["lam"]) * 0.01 + 0.01
    return arrays


@pytest.fixture(scope="module")
def operators():
    return paper_operators(8)


@pytest.mark.parametrize("op_name", ["cc_7pt", "cc_jacobi", "vc_gsrb"])
def test_compiled_backends_bitwise_equal_python(operators, rng, op_name):
    stencil = operators[op_name]
    arrays = _arrays(stencil, rng)
    ref = run_group(stencil, arrays, backend="python")
    for backend in BITWISE_BACKENDS:
        got = run_group(stencil, arrays, backend=backend)
        for g in ref:
            np.testing.assert_array_equal(
                got[g], ref[g],
                err_msg=f"{backend} not bitwise-equal on {op_name}/{g}",
            )


@pytest.mark.parametrize("op_name", ["cc_7pt", "cc_jacobi", "vc_gsrb"])
def test_numpy_allclose_python(operators, rng, op_name):
    stencil = operators[op_name]
    arrays = _arrays(stencil, rng)
    ref = run_group(stencil, arrays, backend="python")
    got = run_group(stencil, arrays, backend="numpy")
    for g in ref:
        np.testing.assert_allclose(got[g], ref[g], rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("op_name", ["cc_jacobi", "vc_gsrb"])
def test_optimization_is_bitwise_neutral_on_c(operators, rng, op_name):
    """CSE/folding/hoisting/FMA-grouping must not change a single bit
    of the C backend's output."""
    stencil = operators[op_name]
    arrays = _arrays(stencil, rng)
    opt = run_group(stencil, arrays, backend="c")
    with no_optimization():
        raw = run_group(stencil, arrays, backend="c")
    for g in opt:
        np.testing.assert_array_equal(
            opt[g], raw[g],
            err_msg=f"optimization changed bits on {op_name}/{g}",
        )


def test_all_backends_agree_with_optimization_off(operators, rng):
    stencil = operators["vc_gsrb"]
    arrays = _arrays(stencil, rng)
    with no_optimization():
        ref = run_group(stencil, arrays, backend="python")
        for backend in BITWISE_BACKENDS:
            got = run_group(stencil, arrays, backend=backend)
            for g in ref:
                np.testing.assert_array_equal(
                    got[g], ref[g],
                    err_msg=f"{backend} diverges from raw lowering on {g}",
                )
        got = run_group(stencil, arrays, backend="numpy")
        for g in ref:
            np.testing.assert_allclose(
                got[g], ref[g], rtol=1e-12, atol=1e-13
            )


# -- the term-by-term sum, the value oracle of the factored lowering -----------


def _matches_term_by_term(stencil, rng, backend):
    arrays = _arrays(stencil, rng)
    via_ir = run_group(stencil, arrays, backend=backend)
    via_terms = {g: a.copy() for g, a in arrays.items()}
    eval_terms(stencil, via_terms)
    for g in arrays:
        np.testing.assert_allclose(
            via_ir[g], via_terms[g], rtol=1e-12, atol=1e-13
        )


def test_python_legacy_term_path_matches_ir_path(operators, rng):
    _matches_term_by_term(operators["cc_jacobi"], rng, "python")


def test_numpy_legacy_term_path_matches_ir_path(operators, rng):
    _matches_term_by_term(operators["vc_gsrb"], rng, "numpy")
