"""Stencil fusion in the compiled backends."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.gpu_backend import KernelLaunch, generate_gpu_program
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.operators import (
    interpolation_linear_group,
    interpolation_pc_group,
)
from repro.schedule import ScheduleOptions, fusion_chains
from tests._helpers import ALL_BACKENDS, run_group

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
FUSED = ScheduleOptions(fuse=True)
PLAIN = ScheduleOptions()
BLUR = Component("u", WeightArray([[0, 0.25, 0], [0.25, 0, 0.25], [0, 0.25, 0]]))


def indep_group(n=3):
    return StencilGroup(
        [Stencil(LAP, f"out{i}", INTERIOR, name=f"s{i}") for i in range(n)]
    )


def shapes_of(g, shape=(16, 16)):
    return {k: shape for k in g.grids()}


class TestFusionChains:
    def test_independent_run_fuses(self):
        g = indep_group(3)
        assert fusion_chains(g, shapes_of(g)) == [[0, 1, 2]]

    def test_raw_breaks_chain(self):
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("a", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
                     "b", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        assert fusion_chains(g, shapes_of(g)) == [[0], [1]]

    def test_transitive_conflict_breaks_chain(self):
        # s0 writes a; s1 independent; s2 reads a with an offset: fusing
        # all three would let s2 observe half-updated a.
        s0 = Stencil(LAP, "a", INTERIOR, name="s0")
        s1 = Stencil(BLUR, "b", INTERIOR, name="s1")
        s2 = Stencil(Component("a", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
                     "c", INTERIOR, name="s2")
        g = StencilGroup([s0, s1, s2])
        chains = fusion_chains(g, shapes_of(g))
        assert [0, 1] in chains and [2] in chains

    def test_different_domains_break_chain(self):
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(BLUR, "b", RectDomain((2, 2), (-2, -2)), name="s2")
        g = StencilGroup([s1, s2])
        assert fusion_chains(g, shapes_of(g)) == [[0], [1]]

    def test_snapshot_stencils_never_fuse(self):
        hazard = Stencil(BLUR, "u", INTERIOR, name="hazard")
        other = Stencil(LAP, "b", INTERIOR, name="other")
        g = StencilGroup([hazard, other])
        assert fusion_chains(g, shapes_of(g)) == [[0], [1]]


class TestFusedCodegen:
    def test_one_loop_nest_for_fused_pair(self):
        g = indep_group(2)
        shapes = shapes_of(g)
        fused = get_backend("c").generate(g, shapes, np.float64, schedule=FUSED)
        unfused = get_backend("c").generate(g, shapes, np.float64)
        # one innermost loop per nest (two steps run plane-lagged, a
        # guard on i0 inside one plane loop instead of an i0 loop each)
        assert fused.count("for (int64_t i1") == 1
        assert unfused.count("for (int64_t i1") == 2
        assert fused.count("for (int64_t i0") == 1
        assert unfused.count("for (int64_t sf_t") == 1

    def test_openmp_fused_emits_fewer_nests(self):
        g = indep_group(2)
        shapes = shapes_of(g)
        fused = get_backend("openmp").generate(g, shapes, np.float64, schedule=FUSED)
        unfused = get_backend("openmp").generate(g, shapes, np.float64)
        assert fused.count("/* stencil") < unfused.count("/* stencil")

    @pytest.mark.parametrize("backend", ["c", "openmp"])
    def test_fusion_preserves_results(self, backend, rng):
        body2 = Component("u", WeightArray([[1, 0, 0], [0, 0, 0], [0, 0, 2]]))
        g = StencilGroup(
            [
                Stencil(LAP, "a", INTERIOR, name="s1"),
                Stencil(BLUR, "b", INTERIOR, name="s2"),
                Stencil(body2, "c", INTERIOR, name="s3"),
            ]
        )
        u = rng.random((18, 18))
        ref = {"u": u.copy(), "a": np.zeros((18, 18)),
               "b": np.zeros((18, 18)), "c": np.zeros((18, 18))}
        g.compile(backend="python")(**ref)
        got = {k: (u.copy() if k == "u" else np.zeros((18, 18))) for k in ref}
        g.compile(backend=backend, fuse=True)(**got)
        for k in ref:
            np.testing.assert_allclose(got[k], ref[k], atol=1e-14)

    def test_fusion_with_colored_domains(self, rng):
        # two independent outputs over the same red coloring fuse into
        # one parity nest
        from repro.hpgmg.operators import red_black_domains

        red, _ = red_black_domains(2)
        g = StencilGroup(
            [
                Stencil(LAP, "a", red, name="s1"),
                Stencil(BLUR, "b", red, name="s2"),
            ]
        )
        shapes = shapes_of(g)
        src = get_backend("c").generate(g, shapes, np.float64, schedule=FUSED)
        assert src.count("for (int64_t i0") == 1  # fused AND parity-fused
        u = rng.random((16, 16))
        ref = {"u": u.copy(), "a": np.zeros((16, 16)), "b": np.zeros((16, 16))}
        g.compile(backend="python")(**ref)
        got = {"u": u.copy(), "a": np.zeros((16, 16)), "b": np.zeros((16, 16))}
        g.compile(backend="c", fuse=True)(**got)
        np.testing.assert_allclose(got["a"], ref["a"])
        np.testing.assert_allclose(got["b"], ref["b"])


class TestFusedTransfers:
    """The interpolation's 8 scale-2 members, one per child offset,
    write pairwise disjoint points: fused into one nest (one launch on
    the GPU dialects), bitwise equal to the python reference."""

    SHAPES = {"coarse_x": (6, 6, 6), "x": (10, 10, 10)}

    @pytest.mark.parametrize("add", [True, False])
    @pytest.mark.parametrize(
        "make", [interpolation_pc_group, interpolation_linear_group]
    )
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fused_interpolation_is_bitwise_the_reference(
        self, backend, make, add, rng
    ):
        g = make(3, add=add)
        assert fusion_chains(g, self.SHAPES) == [list(range(8))]
        arrays = {k: rng.random(s) for k, s in self.SHAPES.items()}
        ref = run_group(g, arrays, backend="python", schedule=PLAIN)
        got = run_group(g, arrays, backend=backend, schedule=FUSED)
        for k in ref:
            np.testing.assert_array_equal(got[k], ref[k])

    @pytest.mark.parametrize(
        "make", [interpolation_pc_group, interpolation_linear_group]
    )
    def test_one_nest_per_interpolation(self, make):
        g = make(3)
        for b in ("c", "openmp"):
            src = get_backend(b).generate(g, self.SHAPES, np.float64,
                                          schedule=FUSED)
            assert src.count("for (int64_t i0") == 1
        for b in ("opencl-sim", "cuda-sim"):
            ops = generate_gpu_program(
                g, self.SHAPES, np.float64, get_backend(b).dialect,
                schedule=FUSED,
            ).ops
            assert sum(isinstance(op, KernelLaunch) for op in ops) == 1
