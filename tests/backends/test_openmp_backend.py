"""OpenMP micro-compiler: task structure, barrier placement, options."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.operators import cc_laplacian, smooth_group
from repro.schedule import ScheduleOptions

INTERIOR = RectDomain((1, 1), (-1, -1))
LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))


def src_for(group, shapes, **kw):
    """The source ``compile(backend="openmp", **kw)`` would build."""
    return get_backend("openmp").generate(
        group, shapes, np.float64, schedule=ScheduleOptions(**{"tile": 8, **kw})
    )


class TestStructure:
    def test_parallel_single_tasks(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        src = src_for(g, {"u": (32, 32), "out": (32, 32)})
        assert "#pragma omp parallel" in src
        assert "#pragma omp single" in src
        assert "#pragma omp task" in src
        assert "#pragma omp taskwait" in src

    def test_barrier_count_matches_greedy_plan(self):
        group = smooth_group(2, cc_laplacian(2, 0.1), lam=0.1)
        shapes = {g: (16, 16) for g in group.grids()}
        src = src_for(group, shapes)
        # bc x4 | red | bc x4 | black -> 4 phases -> 4 taskwaits (one per
        # phase, including the trailing one)
        assert src.count("#pragma omp taskwait") == 4

    def test_independent_stencils_share_a_phase(self):
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("v", WeightArray([[1]])), "b", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        src = src_for(g, {k: (16, 16) for k in g.grids()})
        assert src.count("#pragma omp taskwait") == 1

    def test_chain_gets_barrier_between(self):
        s1 = Stencil(LAP, "a", INTERIOR, name="s1")
        s2 = Stencil(Component("a", WeightArray([[1]])), "b", INTERIOR, name="s2")
        g = StencilGroup([s1, s2])
        src = src_for(g, {k: (16, 16) for k in g.grids()})
        assert src.count("#pragma omp taskwait") == 2

    def test_tiling_splits_into_tasks(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        src = src_for(g, {"u": (64, 64), "out": (64, 64)}, tile=8)
        assert "for (int64_t t0" in src
        # the task pragma sits inside the tile loop
        assert src.index("for (int64_t t0") < src.index("#pragma omp task")

    @pytest.mark.parametrize("lead", [0, 1], ids=["alone", "second"])
    @pytest.mark.parametrize("backend", ["c", "openmp"])
    def test_snapshot_alloc_outside_parallel_region(self, backend, lead):
        # one malloc before the first step (and the parallel region),
        # the fill at the start of the snapshot step's phase, one free
        # after the last loop; `lead` puts another phase in front of it
        hazard = Stencil(
            Component("u", WeightArray([[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
            "u", INTERIOR,
        )
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)] * lead + [hazard])
        src = get_backend(backend).generate(
            g, {k: (16, 16) for k in g.grids()}, np.float64,
            schedule=ScheduleOptions(tile=8),
        )
        assert src.count("malloc") == 1
        assert src.index("malloc") < src.index("/* stencil(s)")
        if backend == "openmp":
            assert src.index("malloc") < src.index("#pragma omp parallel")
        assert src.index("memcpy") < src.index(f"/* stencil(s) [{lead}]")
        assert src.index(f"free(snap_{lead});") > src.rindex("for (int64_t")

    def test_schedule_policies(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        shapes = {"u": (16, 16), "out": (16, 16)}
        for policy in ("greedy", "wavefront", "serial"):
            assert "omp" in src_for(g, shapes, policy=policy)


class TestExecution:
    def test_openmp_options_do_not_change_results(self, rng):
        group = smooth_group(2, cc_laplacian(2, 1 / 14), lam=0.1 * (1 / 14) ** 2)
        shape = (16, 16)
        base = None
        for opts in (
            {},
            {"tile": 4},
            {"multicolor": False},
            {"schedule": "wavefront"},
            {"schedule": "serial"},
        ):
            arrays = {g: np.asarray(rng_copy(shape)) for g in group.grids()}
            kernel = group.compile(backend="openmp", **opts)
            kernel(**arrays)
            if base is None:
                base = arrays
            else:
                for g in base:
                    np.testing.assert_allclose(arrays[g], base[g], atol=1e-13)

    def test_unknown_option(self):
        g = StencilGroup([Stencil(LAP, "out", INTERIOR)])
        with pytest.raises(TypeError):
            g.compile(backend="openmp", gpus=4)


_rng_state = {}


def rng_copy(shape):
    """Deterministic per-shape random arrays (same across option runs)."""
    key = shape
    if key not in _rng_state:
        _rng_state[key] = np.random.default_rng(5).random(shape)
    return _rng_state[key].copy()
