"""Temporal blocking: ``time_tile=k`` is ``k`` calls in one invocation.

The acceptance bar for ``ScheduleOptions(time_tile=k)`` is *bitwise*
equality with ``k`` separate kernel invocations on every backend — the
time tile is the untiled program inside one outer time loop, so the
floating-point result is identical, not merely close, on every group:
wrap-around reads, gather snapshots and scaled maps included.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.bench import paper_operators
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import SparseArray
from repro.hpgmg.operators import (
    cc_laplacian,
    gsrb_stencils,
    interpolation_pc_group,
    jacobi_stencil,
    periodic_boundary_stencils,
    restriction_stencil,
    smooth_group,
    vc_laplacian,
)
from repro.schedule import POLICIES, ScheduleOptions, schedule_for

#: the CPU backends, each bitwise against k calls of itself and python
CPU_BACKENDS = ("python", "numpy", "c", "openmp")
#: the GPU simulators, each bitwise against k calls of itself
GPU_BACKENDS = ("opencl-sim", "cuda-sim")


def _arrays(group, shape, seed=3):
    rng = np.random.default_rng(seed)
    arrays = {g: rng.standard_normal(shape) for g in group.grids()}
    if "lam" in arrays:  # keep the 1/diag surrogate well-conditioned
        arrays["lam"] = np.abs(arrays["lam"]) * 0.01 + 0.01
    return arrays


def jacobi_case(n=10):
    st_ = jacobi_stencil(2, cc_laplacian(2, 1.0 / n), lam=0.25)
    group = StencilGroup([st_], name="cc_jacobi2")
    shape = (n + 2, n + 2)
    return group, {g: shape for g in group.grids()}, _arrays(group, shape)


def gsrb_case(n=10):
    vc = vc_laplacian(2, 1.0 / n, a=1.0, alpha_grid="alpha")
    red, _ = gsrb_stencils(2, vc, lam="lam")
    group = StencilGroup([red], name="vc_gsrb2")
    shape = (n + 2, n + 2)
    return group, {g: shape for g in group.grids()}, _arrays(group, shape)


def smooth_case(n=8):
    group = smooth_group(2, cc_laplacian(2, 1.0 / n), lam=0.25)
    shape = (n + 2, n + 2)
    return group, {g: shape for g in group.grids()}, _arrays(group, shape)


def periodic_case(n=8):
    """Ghost cells copied from the far side: axis reads of ``n`` cells,
    a wrap-around footprint."""
    group = StencilGroup(
        periodic_boundary_stencils(2, n, grid="x"), name="periodic"
    )
    shape = (n + 2, n + 2)
    return group, {g: shape for g in group.grids()}, _arrays(group, shape)


def carry_case(n=10):
    """In-place stencil reading its own output one cell ahead: a
    loop-carried hazard, so every application takes a gather snapshot."""
    s = Stencil(
        Component("x", SparseArray({(1, 0): 1.0, (0, 0): 0.5})),
        "x", RectDomain((1, 1), (-1, -1)), name="carry",
    )
    group = StencilGroup([s], name="carrying")
    shape = (n + 2, n + 2)
    return group, {"x": shape}, _arrays(group, shape)


def restrict_case(n=8):
    """Full-weighting restriction: a scale-2 read of the fine grid."""
    group = StencilGroup([restriction_stencil(2)], name="restrict")
    shapes = {"res": (2 * n + 2,) * 2, "coarse_rhs": (n + 2,) * 2}
    rng = np.random.default_rng(3)
    return group, shapes, {g: rng.standard_normal(s) for g, s in shapes.items()}


def interp_case(n=8):
    """Piecewise-constant interpolation: scale-2 writes into ``x``."""
    group = interpolation_pc_group(2)
    shapes = {"coarse_x": (n + 2,) * 2, "x": (2 * n + 2,) * 2}
    rng = np.random.default_rng(3)
    return group, shapes, {g: rng.standard_normal(s) for g, s in shapes.items()}


def apply_untiled(group, shapes, arrays, backend, k, **options):
    work = {g: a.copy() for g, a in arrays.items()}
    kernel = group.compile(
        backend=backend, shapes=shapes, dtype=np.float64, **options
    )
    for _ in range(k):
        kernel(**work)
    return work


def apply_tiled(group, shapes, arrays, backend, k, **options):
    work = {g: a.copy() for g, a in arrays.items()}
    kernel = group.compile(
        backend=backend, shapes=shapes, dtype=np.float64,
        time_tile=k, **options,
    )
    kernel(**work)
    return work


CASES = {"cc_jacobi": jacobi_case, "vc_gsrb": gsrb_case,
         "smooth": smooth_case, "periodic": periodic_case,
         "carry": carry_case, "restrict": restrict_case,
         "interp_pc": interp_case}


class TestBitwiseParity:
    @pytest.mark.parametrize("backend", CPU_BACKENDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("tile", [None, 3])
    def test_tiled_equals_k_sweeps(self, backend, case, tile):
        group, shapes, arrays = CASES[case]()
        # `tile` is a compiled-backend knob; under a time tile it stays
        # the pure per-application hint it is without one.
        opts = (
            {"tile": tile}
            if tile is not None and backend in ("c", "openmp")
            else {}
        )
        k = 3
        ref = apply_untiled(group, shapes, arrays, backend, k, **opts)
        got = apply_tiled(group, shapes, arrays, backend, k, **opts)
        for g in sorted(shapes):
            np.testing.assert_array_equal(
                got[g], ref[g],
                err_msg=f"{case}/{backend} (tile={tile}) diverges on {g!r}",
            )

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gpu_sims_tiled_equals_k_calls(self, backend, case):
        # the simulators run the built executor k times per call: the
        # oracle's definition, against k calls of the same simulator
        group, shapes, arrays = CASES[case]()
        ref = apply_untiled(group, shapes, arrays, backend, 3)
        got = apply_tiled(group, shapes, arrays, backend, 3)
        for g in sorted(shapes):
            np.testing.assert_array_equal(got[g], ref[g], err_msg=g)

    @settings(max_examples=25, deadline=None)
    @given(
        case=st.sampled_from(("vc_gsrb", "smooth")),
        n=st.integers(min_value=5, max_value=12),
        k=st.integers(min_value=1, max_value=4),
        policy=st.sampled_from(POLICIES),
        fuse=st.booleans(),
        multicolor=st.booleans(),
        tile=st.sampled_from([None, 2, 3]),
        unroll=st.sampled_from([None, 2, 4]),
    )
    def test_parity_over_generated_schedules(
        self, case, n, k, policy, fuse, multicolor, tile, unroll
    ):
        # Every ScheduleOptions point computes k plain sweeps, bit for
        # bit.  Interpreters only: property runs stay toolchain-
        # independent.  A prebuilt schedule carries the compiled-backend
        # hints to numpy, which must ignore them with or without a time
        # tile.
        make = gsrb_case if case == "vc_gsrb" else smooth_case
        group, shapes, arrays = make(n)
        sched = schedule_for(group, shapes, ScheduleOptions(
            policy=policy, fuse=fuse, multicolor=multicolor, tile=tile,
            time_tile=k, unroll=unroll,
        ))
        ref = apply_untiled(group, shapes, arrays, "python", k)
        work = {g: a.copy() for g, a in arrays.items()}
        group.compile(
            backend="numpy", shapes=shapes, dtype=np.float64,
            schedule=sched,
        )(**work)
        for g in sorted(shapes):
            np.testing.assert_array_equal(work[g], ref[g])


def _paper_case(name):
    def case():
        stencil = paper_operators(16)[name]
        return StencilGroup([stencil]), {g: (18,) * 3 for g in stencil.grids()}

    return case


#: the groups ``c``/``openmp`` pinned under ``time_tile=4``
PINNED_TILED = {
    **{name: _paper_case(name) for name in ("cc_7pt", "cc_jacobi", "vc_gsrb")},
    "smooth": lambda: smooth_case()[:2],
}

#: sha256 of ``generate(..., ScheduleOptions(time_tile=4))``
PINNED_SOURCES = {
    ("cc_7pt", "c"): "80e43328e1de816a3f77fb9514e7f0eff88081caaa650e0e4f260bd4b4926c40",
    ("cc_7pt", "openmp"): "ba956ac8d27bf4c5a54d367ef6061cc2a6933e9e09d009ecbf099c4568802401",
    ("cc_jacobi", "c"): "3ecf23caf54d1f67e6299856f698803041838c1231fe22fa96bd0a195bf9e4f2",
    ("cc_jacobi", "openmp"): "cf1df702c089e7a77406f8de4610f3e38064f4e60c65f658a9a79a7dd0d6fe5a",
    ("smooth", "c"): "82a47c2d12fc18234adad3a6a29326d898350c962e73921d7549fa55af5c4b9a",
    ("smooth", "openmp"): "48e725034d9030ff8c1f2c84b8b066b1abe519578bf2b4d0e226864bfa7c1764",
    ("vc_gsrb", "c"): "6c6360d2143f5fc23e59e391086589a18842910c3c38f4d33546300877e8b424",
    ("vc_gsrb", "openmp"): "932c37512aa25d55d89e680ceb5bc193832a63071b015c7934d3e0ffa3e870a3",
}


class TestOneLowering:
    """``time_tile=k`` is the ``time_tile=1`` program inside one
    ``sf_tt`` loop — single step or many, spatially tiled or not."""

    @pytest.mark.parametrize(
        "generate",
        [get_backend("c").generate, get_backend("openmp").generate],
        ids=["c", "openmp"],
    )
    @pytest.mark.parametrize(
        "case,tile",
        [("vc_gsrb", None), ("vc_gsrb", 2), ("smooth", None),
         ("periodic", None), ("carry", None)],
    )
    def test_tiled_source_is_untiled_source_in_one_time_loop(
        self, generate, case, tile
    ):
        group, shapes, _ = CASES[case]()
        untiled, tiled = (
            generate(
                group, shapes, np.float64,
                schedule=ScheduleOptions(time_tile=k, tile=tile),
            ).splitlines()
            for k in (1, 4)
        )
        (at,) = [i for i, l in enumerate(tiled) if "int64_t sf_tt" in l]
        pad = tiled[at][: -len(tiled[at].lstrip())]
        assert tiled[at - 1] == pad + "/* fused time tile k=4 */"
        assert tiled[at] == (
            pad + "for (int64_t sf_tt = 0; sf_tt < 4; ++sf_tt) {"
        )
        end = tiled.index(pad + "}", at)
        body = tiled[at + 1:end]
        assert all(l.startswith(pad + "  ") for l in body)
        assert (
            tiled[:at - 1] + [l[2:] for l in body] + tiled[end + 1:]
            == untiled
        )
        if case == "carry":
            # the gather snapshot is re-taken by every application
            (copy,) = [l for l in tiled if "memcpy(" in l]
            assert copy in body

    @pytest.mark.parametrize("backend", ["c", "openmp"])
    @pytest.mark.parametrize("case", sorted(PINNED_TILED))
    def test_source_is_pinned(self, backend, case):
        # the time-tiled sources of these groups do not move
        group, shapes = PINNED_TILED[case]()
        src = get_backend(backend).generate(
            group, shapes, np.float64, schedule=ScheduleOptions(time_tile=4)
        )
        assert hashlib.sha256(src.encode()).hexdigest() == (
            PINNED_SOURCES[case, backend]
        )


class TestLegality:
    """No group is refused: the depth lives in ``options`` alone."""

    def test_multi_step_group_is_fused(self):
        group, shapes, _ = smooth_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=2))
        assert sched.options.time_tile == 2
        assert len(list(sched.steps())) > 1
        # the steps are the time_tile=1 schedule's, lags and all
        plain = schedule_for(group, shapes, ScheduleOptions())
        assert list(sched.steps()) == list(plain.steps())

    def test_no_tile_requested_records_nothing(self):
        group, shapes, _ = jacobi_case()
        sched = schedule_for(group, shapes, ScheduleOptions())
        assert sched.options.time_tile == 1
        assert "time tile" not in sched.describe()

    def test_schedule_describe_prints_the_depth_alone(self):
        group, shapes, _ = gsrb_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=3))
        text = sched.describe()
        assert "\ntime tile: k=3\n" in text
        assert "slope" not in text and "time-tile:" not in text
        doc = sched.to_dict()
        assert "time_tile" not in doc
        assert doc["options"]["time_tile"] == 3
