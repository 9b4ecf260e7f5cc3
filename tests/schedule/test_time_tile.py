"""Temporal blocking: bitwise parity, legality evidence, refusals.

The acceptance bar for ``ScheduleOptions(time_tile=k)`` is *bitwise*
equality with ``k`` separate kernel invocations on every CPU backend —
the time tile is the untiled program inside one outer time loop, so the
floating-point result is identical, not merely close.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import SparseArray
from repro.hpgmg.operators import (
    cc_laplacian,
    gsrb_stencils,
    jacobi_stencil,
    periodic_boundary_stencils,
    smooth_group,
    vc_laplacian,
)
from repro.schedule import POLICIES, ScheduleOptions, schedule_for
from repro.schedule.lower import time_tile_verdict

#: the four backends the parity criterion covers
CPU_BACKENDS = ("python", "numpy", "c", "openmp")


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
    group = StencilGroup(
        periodic_boundary_stencils(2, n, grid="x"), name="periodic"
    )
    shape = (n + 2, n + 2)
    return group, {g: shape for g in group.grids()}


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
         "smooth": smooth_case}


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


class TestOneLowering:
    """``time_tile=k`` is the ``time_tile=1`` program inside one
    ``sf_tt`` loop — single step or many, spatially tiled or not."""

    @pytest.mark.parametrize(
        "generate",
        [get_backend("c").generate, get_backend("openmp").generate],
        ids=["c", "openmp"],
    )
    @pytest.mark.parametrize(
        "case,tile", [("vc_gsrb", None), ("vc_gsrb", 2), ("smooth", None)]
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


class TestLegality:
    def test_multi_step_group_is_fused(self):
        group, shapes, _ = smooth_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=2))
        tt = sched.time_tile
        # red reads what black wrote one application earlier: halo 1
        assert tt.k == 2 and tt.slope == 1
        assert len(list(sched.steps())) > 1
        assert "fused outer time loop" in tt.evidence[-1].basis

    def test_no_tile_requested_records_nothing(self):
        group, shapes, _ = jacobi_case()
        sched = schedule_for(group, shapes, ScheduleOptions())
        assert sched.time_tile is None

    def test_periodic_wraparound_refused_with_evidence(self):
        group, shapes = periodic_case()
        with pytest.raises(ValueError, match="wrap-.?around"):
            schedule_for(group, shapes, ScheduleOptions(time_tile=2))
        sched = schedule_for(group, shapes, ScheduleOptions())
        steps = list(sched.steps())
        _, _, refusals = time_tile_verdict(group, shapes, steps)
        assert refusals
        assert all(e.claim == "time-tile-refused" for e in refusals)

    def test_snapshot_requiring_step_refused(self):
        # In-place stencil with a genuine loop-carried hazard: reads its
        # own output at a forward offset, so each application needs a
        # gather snapshot — untileable by construction.
        s = Stencil(
            Component("x", SparseArray({(1, 0): 1.0, (0, 0): 0.5})),
            "x", RectDomain((1, 1), (-1, -1)), name="carry",
        )
        group = StencilGroup([s], name="carrying")
        shapes = {"x": (12, 12)}
        with pytest.raises(ValueError, match="snapshot"):
            schedule_for(group, shapes, ScheduleOptions(time_tile=2))

    @pytest.mark.parametrize("backend", ["opencl-sim", "cuda-sim"])
    def test_gpu_sims_refuse_time_tiled_schedules(self, backend):
        group, shapes, _ = jacobi_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=2))
        with pytest.raises(NotImplementedError, match="time-tiled"):
            group.compile(
                backend=backend, shapes=shapes, dtype=np.float64,
                schedule=sched,
            )

    def test_schedule_describe_carries_tile_evidence(self):
        group, shapes, _ = gsrb_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=3))
        text = sched.describe()
        assert "time tile: k=3 slope=0" in text
        assert "time-tile:" in text
        assert sched.to_dict()["time_tile"] == {
            "k": 3,
            "slope": 0,
            "evidence": [str(e) for e in sched.time_tile.evidence],
        }
