"""Cross-backend equivalence: every micro-compiler computes the same
function as the Python reference interpreter.

This is the suite that makes the GPU device-simulator substitution
trustworthy: the same stencils run through python, numpy, C, OpenMP, and
the generated OpenCL / CUDA kernels, and must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import ALL_BACKENDS, assert_backends_agree
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import GridRead, Param
from repro.core.stencil import OutputMap, Stencil, StencilGroup
from repro.core.weights import SparseArray, WeightArray
from repro.hpgmg.operators import (
    boundary_stencils,
    cc_laplacian,
    interpolation_linear_group,
    interpolation_pc_group,
    restriction_stencil,
    smooth_group,
    vc_laplacian,
)

INTERIOR2 = RectDomain((1, 1), (-1, -1))


def arrays_for(group, shape, rng, extra=()):
    out = {}
    for g in group.grids() if hasattr(group, "grids") else group:
        out[g] = rng.random(shape)
    for g in extra:
        out[g] = rng.random(shape)
    return out


class TestSimpleStencils:
    def test_laplacian_2d(self, rng):
        s = Stencil(Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]])),
                    "out", INTERIOR2)
        assert_backends_agree(s, arrays_for(s.grids(), (20, 20), rng))

    def test_asymmetric_stencil(self, rng):
        s = Stencil(Component("u", SparseArray({(0, 0): 1.0, (2, -1): -0.5})),
                    "out", RectDomain((1, 2), (-3, -1)))
        assert_backends_agree(s, arrays_for(s.grids(), (16, 16), rng))

    def test_high_order_radius_3(self, rng):
        w = {(d, 0): 1.0 / (abs(d) + 1) for d in range(-3, 4)}
        s = Stencil(Component("u", SparseArray(w)), "out",
                    RectDomain((3, 0), (-3, 1)))
        assert_backends_agree(s, arrays_for(s.grids(), (16, 16), rng))

    def test_1d(self, rng):
        s = Stencil(Component("u", WeightArray([1.0, -2.0, 1.0])), "out",
                    RectDomain((1,), (-1,)))
        assert_backends_agree(s, arrays_for(s.grids(), (33,), rng))

    def test_3d(self, rng):
        s = Stencil(cc_laplacian(3, 0.25), "out",
                    RectDomain((1, 1, 1), (-1, -1, -1)))
        assert_backends_agree(s, arrays_for(s.grids(), (10, 10, 10), rng))

    def test_params_and_division(self, rng):
        body = Param("w") * GridRead("u", (0, 0)) / Param("d") + 3.0
        s = Stencil(body, "out", INTERIOR2)
        assert_backends_agree(
            s, arrays_for(s.grids(), (12, 12), rng), params={"w": 1.7, "d": 4.0}
        )

    def test_nonlinear_product_of_grids(self, rng):
        body = GridRead("a", (0, 1)) * GridRead("b", (1, 0)) - GridRead("a", (0, 0))
        s = Stencil(body, "out", INTERIOR2)
        assert_backends_agree(s, arrays_for(s.grids(), (12, 12), rng))

    def test_constant_body(self, rng):
        s = Stencil(GridRead("u", (0, 0)) * 0.0 + 7.5, "out", INTERIOR2)
        got = assert_backends_agree(s, arrays_for(s.grids(), (8, 8), rng))
        assert np.all(got["out"][1:-1, 1:-1] == 7.5)


class TestStridedAndColored:
    def test_red_black_union(self, rng):
        red = RectDomain((1, 1), (-1, -1), (2, 2)) + RectDomain(
            (2, 2), (-1, -1), (2, 2)
        )
        s = Stencil(Component("u", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
                    "u", red)
        assert_backends_agree(s, arrays_for(s.grids(), (17, 17), rng))

    def test_stride_3(self, rng):
        s = Stencil(Component("u", WeightArray([[2.0]])), "out",
                    RectDomain((2, 1), (-1, -2), (3, 2)))
        assert_backends_agree(s, arrays_for(s.grids(), (14, 14), rng))

    def test_pinned_face(self, rng):
        s = Stencil(-1.0 * GridRead("u", (1, 0)), "u",
                    RectDomain((0, 1), (1, -1), (0, 1)))
        assert_backends_agree(s, arrays_for(s.grids(), (9, 9), rng))

    def test_hazardous_inplace_gets_gather_semantics_everywhere(self, rng):
        # full-interior in-place neighbour stencil: every backend must
        # snapshot, so all agree with the buffered reference.
        s = Stencil(Component("u", WeightArray([[0, 0.25, 0], [0.25, 0, 0.25],
                                                [0, 0.25, 0]])), "u", INTERIOR2)
        assert_backends_agree(s, arrays_for(s.grids(), (13, 13), rng))

    def test_inplace_shift_hazard(self, rng):
        # u[i] = u[i+1]: a classic loop-carried shift
        s = Stencil(GridRead("u", (0, 1)), "u", RectDomain((1, 1), (-1, -1)))
        assert_backends_agree(s, arrays_for(s.grids(), (11, 11), rng))


class TestMultiGrid:
    def test_restriction(self, rng):
        s = restriction_stencil(2)
        arrays = {"res": rng.random((18, 18)), "coarse_rhs": np.zeros((10, 10))}
        got = assert_backends_agree(s, arrays)
        manual = 0.25 * (
            arrays["res"][1:-1:2, 1:-1:2] + arrays["res"][2:-1:2, 1:-1:2]
            + arrays["res"][1:-1:2, 2:-1:2] + arrays["res"][2:-1:2, 2:-1:2]
        )
        np.testing.assert_allclose(got["coarse_rhs"][1:-1, 1:-1], manual)

    def test_interpolation_pc(self, rng):
        group = interpolation_pc_group(2)
        arrays = {"coarse_x": rng.random((8, 8)), "x": rng.random((14, 14))}
        got = assert_backends_agree(group, arrays)
        # every interior fine cell got its parent's correction added
        fine = got["x"][1:-1, 1:-1]
        orig = arrays["x"][1:-1, 1:-1]
        parent = np.repeat(np.repeat(arrays["coarse_x"][1:-1, 1:-1], 2, 0), 2, 1)
        np.testing.assert_allclose(fine, orig + parent)

    def test_interpolation_linear(self, rng):
        group = interpolation_linear_group(2)
        arrays = {"coarse_x": rng.random((8, 8)), "x": rng.random((14, 14))}
        assert_backends_agree(group, arrays)


class TestGroupsAndSmoothers:
    def test_full_gsrb_smoother_3d_vc(self, rng):
        group = smooth_group(3, vc_laplacian(3, 1.0 / 6), lam="lam")
        shape = (8, 8, 8)
        arrays = {g: rng.random(shape) for g in group.grids()}
        arrays["lam"] = 0.1 + 0.01 * rng.random(shape)
        assert_backends_agree(group, arrays)

    def test_boundary_group_2d(self, rng):
        group = StencilGroup(boundary_stencils(2, "u"))
        assert_backends_agree(group, {"u": rng.random((9, 9))})

    def test_sequential_chain(self, rng):
        s1 = Stencil(Component("a", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]])),
                     "b", INTERIOR2, name="s1")
        s2 = Stencil(Component("b", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
                     "c", RectDomain((2, 2), (-2, -2)), name="s2")
        g = StencilGroup([s1, s2])
        arrays = {k: rng.random((12, 12)) for k in g.grids()}
        assert_backends_agree(g, arrays)


WEIGHT_VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def random_stencil_case(draw):
    """A random small 2-D stencil + domain, in-place or not."""
    offs = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=1, max_size=4, unique=True,
        )
    )
    weights = {o: draw(WEIGHT_VALUES) for o in offs}
    if all(w == 0.0 for w in weights.values()):
        weights[offs[0]] = 1.0
    inplace = draw(st.booleans())
    sx = draw(st.integers(1, 3))
    sy = draw(st.integers(1, 3))
    dom = RectDomain((3, 3), (-3, -3), (sx, sy))
    body = Component("u", SparseArray(weights))
    return Stencil(body, "u" if inplace else "out", dom)


class TestPropertyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(case=random_stencil_case(), seed=st.integers(0, 2**16))
    def test_all_backends_agree_on_random_stencils(self, case, seed):
        rng = np.random.default_rng(seed)
        arrays = {g: rng.random((12, 12)) for g in case.grids()}
        assert_backends_agree(case, arrays)


class TestCallSeam:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_aliased_grids_refused_identically(self, backend, rng):
        # cuda-sim declares its buffers restrict: running this was UB;
        # python and numpy ran it, so it had no oracle
        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        k = Stencil(lap, "out", INTERIOR2).compile(backend=backend)
        a = rng.random((8, 8))
        with pytest.raises(ValueError) as exc:
            k(u=a, out=a)
        assert str(exc.value) == (
            "output grid 'out' shares memory with grid 'u': a kernel's "
            "outputs must not overlap its other grids"
        )
        buf = rng.random((9, 8))
        with pytest.raises(ValueError, match="shares memory"):
            k(u=buf[:8], out=buf[1:])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_readonly_output_refused_identically(self, backend, rng):
        # the C family writes through a raw pointer: it ran, and wrote
        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        k = Stencil(lap, "out", INTERIOR2).compile(backend=backend)
        ro = np.zeros((8, 8))
        ro.setflags(write=False)
        with pytest.raises(ValueError) as exc:
            k(u=rng.random((8, 8)), out=ro)
        assert str(exc.value) == (
            "output grid 'out' is read-only: a kernel writes its outputs "
            "in place"
        )
        assert not ro.any()
        # a read-only *input* is fine everywhere
        u = rng.random((8, 8))
        u.setflags(write=False)
        out = np.zeros((8, 8))
        k(u=u, out=out)
        assert out[1:-1, 1:-1].any()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_non_ndarray_output_refused_identically(self, backend, rng):
        # np.asarray made a private copy: the call "worked", the result
        # was dropped
        lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
        k = Stencil(lap, "out", INTERIOR2).compile(backend=backend)
        a = rng.random((8, 8))
        with pytest.raises(TypeError) as exc:
            k(u=a, out=[[0.0] * 8 for _ in range(8)])
        assert str(exc.value) == (
            "output grid 'out' must be a numpy.ndarray, got list: a kernel "
            "writes its outputs in place"
        )
        # an array-like *input* stays accepted
        out, ref = np.zeros((8, 8)), np.zeros((8, 8))
        k(u=a.tolist(), out=out)
        k(u=a, out=ref)
        np.testing.assert_array_equal(out, ref)
