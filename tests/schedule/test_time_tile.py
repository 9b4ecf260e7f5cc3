"""Temporal blocking: ``time_tile=k`` is ``k`` calls in one invocation.

The acceptance bar for ``ScheduleOptions(time_tile=k)`` is *bitwise*
equality with ``k`` separate kernel invocations on every backend — the
time tile is the untiled lowering run ``k`` times inside the bound
call, or, on ``c`` when its grids exceed ``LAG_KNEE_L2S`` per-core L2s,
its applications lagged in the steps' plane loop; either way the
floating-point result is identical, not merely close, on every group:
wrap-around reads, gather snapshots and scaled maps included.  The suite's L2 is fixed
(``tests/conftest.py``); ``always_lag`` sets it to 0 bytes.
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
from tests.schedule._cases import solver_units

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


#: the groups whose lagged ``time_tile=4`` text ``c`` pins
PINNED_TILED = {
    **{name: _paper_case(name) for name in ("cc_7pt", "cc_jacobi", "vc_gsrb")},
    "smooth": lambda: smooth_case()[:2],
}

#: sha256 of ``generate(..., ScheduleOptions(time_tile=4))`` on ``c``
#: under ``always_lag``: the applications lagged
PINNED_LAGGED = {
    "cc_7pt": "4ea9914ca94ddd7fb23e5116c9561bb088123b28f494eddd537bc9fc45407549",
    "cc_jacobi": "c9d51698f17e16017b84e2211f64daf8687c1c8f8ed7fe4b91682d9c6a3c5c5d",
    "smooth": "906940374e35c235f94db6fbc46747774e0237d7cbc7388d75d249dd44045124",
    "vc_gsrb": "f36fad7e80f7951cba6680e51c2502179101f7ca749932a8f5eb788972fa0203",
}

#: sha256 of the ``time_tile=1`` sources of the groups whose lags are
#: refused, as they were before the application lag existed
PINNED_REFUSED = {
    ("periodic", "c"): "d34250c9d37c4dacfaa665bccadc790c0654c1bc6cdc5e676af6cbec664377b7",
    ("periodic", "openmp"): "2153f6ff648314f67b17bcd25ea7f6a0c4ff3254d42a9f77b2accbeb33063ef8",
    ("carry", "c"): "324243da6b5540934607c4b90ac731aebe859193b4b0f12d907ba16efbe47384",
    ("carry", "openmp"): "2be552ab0ea07d1cd77ffd1230082aedfbde4cea3f0aa425aedb28a370d98e26",
    ("interp_pc", "c"): "c1e8e370df6c1f73b32e311d4d6eda550e3366e7ac2ba3dac34ed9254f1e6355",
    ("interp_pc", "openmp"): "bdfcd60f207a92da03976b32359b5f2e109b5e3ddcf5781a8c716f69598f88bf",
}


def _source(backend, group, shapes, k, **options):
    return get_backend(backend).generate(
        group, shapes, np.float64,
        schedule=ScheduleOptions(time_tile=k, **options),
    )


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestOneLowering:
    """Where the grids fit the L2, and always on ``openmp``, a time tile
    renders the ``time_tile=1`` text, single step or many, spatially
    tiled or not: the bound call runs that one application ``k``
    times, so one artifact serves every depth."""

    @pytest.mark.parametrize("backend", ["c", "openmp"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_text_is_the_same_for_every_depth(self, backend, case):
        group, shapes, _ = CASES[case]()
        for tile in (None, 2):
            texts = {
                _source(backend, group, shapes, k, tile=tile)
                for k in (1, 2, 3, 8)
            }
            assert len(texts) == 1, (case, tile)


class TestProgramUnit:
    """A time-tiled unit of ``compile_program`` is ``k`` calls too, as
    one step of the program's walker: whole sweeps run its
    one-application forwarder ``reps * k`` times, a lagged tile its
    lagged forwarder ``reps`` times."""

    @pytest.mark.parametrize("backend", ["c", "openmp"])
    @pytest.mark.parametrize("lag", [False, True])
    @pytest.mark.parametrize("case", ["cc_jacobi", "smooth", "carry"])
    def test_tiled_unit_equals_k_calls(self, l2, backend, lag, case):
        if lag:
            l2(0)
        group, shapes, arrays = CASES[case]()
        k, reps = 3, 2
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=k))
        be = get_backend(backend)
        assert be.lags_applications(sched) == (
            lag and backend == "c" and case != "carry"
        )
        ref = apply_untiled(group, shapes, arrays, backend, k * reps)
        program = be.compile_program([(group, shapes)], time_tile=k)
        (kernel,) = program.kernels
        work = {g: a.copy() for g, a in arrays.items()}
        program.bind([(kernel.bind(**work), reps)])()
        for g in sorted(shapes):
            np.testing.assert_array_equal(work[g], ref[g], err_msg=g)


class TestLaggedApplications:
    """Where the grids pass the knee, ``c`` runs a time tile's
    applications in the steps' plane loop, each ``app_lag`` planes
    behind the one before: one pass over the grids, ``k`` calls bit for
    bit."""

    @pytest.mark.parametrize("tile", [None, 3])
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lagged_tile_equals_k_calls(self, always_lag, case, k, tile):
        group, shapes, arrays = CASES[case]()
        opts = {} if tile is None else {"tile": tile}
        ref = apply_untiled(group, shapes, arrays, "c", k, **opts)
        got = apply_tiled(group, shapes, arrays, "c", k, **opts)
        for g in sorted(shapes):
            np.testing.assert_array_equal(
                got[g], ref[g],
                err_msg=f"{case} k={k} (tile={tile}) diverges on {g!r}",
            )

    #: the 3-d groups the solver lags, beside the 2-d ``CASES``: its
    #: 32^3 smoother and residual, and two smooths in one group
    UNITS = {
        "solver_smooth": lambda: solver_units()[0],
        "solver_residual": lambda: solver_units()[1],
        "smooth_x2": lambda: (
            smooth_group(3, cc_laplacian(3, 1.0 / 8), lam=0.25, n_smooths=2),
            dict.fromkeys(("x", "rhs"), (10,) * 3),
        ),
    }

    @pytest.mark.parametrize(
        "case,lags,app_lag",
        [("cc_jacobi", [0], 0), ("vc_gsrb", [0], 0), ("restrict", [0], 0),
         ("smooth", [0, 0, 0, 0, 1, 2, 0, 1, 1, 2], 3),
         ("solver_smooth", [0] * 6 + [1, 2, 0] + [1] * 4 + [2], 3),
         ("solver_residual", [0] * 6 + [1], 2),
         ("smooth_x2", [0] * 6 + [1, 2, 0] + [1] * 4 + [2, 3, 1]
          + [2] * 4 + [3, 4, 2] + [3] * 4 + [4], 5)],
    )
    def test_schedule_carries_the_application_lag(
        self, always_lag, case, lags, app_lag
    ):
        if case in self.UNITS:
            group, shapes = self.UNITS[case]()
        else:
            group, shapes, _ = CASES[case]()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=4))
        assert [s.lag for s in sched.steps()] == lags
        assert all(
            [e.claim for e in s.evidence].count("lag") == 1
            for s in sched.steps()
        )
        assert sched.app_lag == app_lag
        assert [e.claim for e in sched.evidence] == [
            "app-lag-select", "app-lag"
        ]
        assert "applications lagged" in sched.evidence[0].basis
        assert sched.evidence[1].basis.startswith(f"{app_lag} = ")
        text = sched.describe()
        assert f"\napplication lag {app_lag}: " in text
        assert f"a lag window of {sched.lag_window()} planes" in text
        doc = sched.to_dict()
        assert doc["app_lag"] == app_lag
        assert doc["lag_window"] == max(lags) + 3 * app_lag + 1 + 2

    def test_smooth_application_lag_names_its_dependence(self, always_lag):
        group, shapes, _ = smooth_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=2))
        assert str(sched.evidence[1]) == (
            "app-lag: 3 = lag 2 of [gsrb_black] + plane distance 1 "
            "(gsrb_black -> bc_x_d0lo RAW on 'x') - lag 0 of [bc_x_d0lo] "
            "of the next application"
        )

    @pytest.mark.parametrize("case", ["periodic", "carry", "interp_pc"])
    @pytest.mark.parametrize("backend", ["c", "openmp"])
    def test_refused_groups_render_as_before(
        self, l2, backend, case
    ):
        # the lags are refused, so the lowering is never taken: the
        # time-tiled text is the one a fitting L2 gives, and the
        # time_tile=1 text is the one from before the application lag
        group, shapes, _ = CASES[case]()
        plain = _source(backend, group, shapes, 4)
        l2(0)
        assert _source(backend, group, shapes, 4) == plain
        assert _sha(_source(backend, group, shapes, 1)) == (
            PINNED_REFUSED[case, backend]
        )
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=4))
        assert sched.app_lag is None
        (ev,) = sched.evidence
        assert ev.claim == "app-lag-select"
        assert ev.basis.startswith("4 whole sweeps: ")

    @pytest.mark.parametrize("case", sorted(PINNED_LAGGED))
    def test_lagged_source_is_pinned(self, always_lag, case):
        group, shapes = PINNED_TILED[case]()
        src = _source("c", group, shapes, 4)
        assert "int64_t sf_a = 0; sf_a < sf_k" in src
        assert "sf_tt" not in src
        assert _sha(src) == PINNED_LAGGED[case]

    def test_openmp_keeps_its_loop(self, always_lag):
        # plane_loop is off on openmp: the schedule's lags are not run,
        # and the bound call repeats the time_tile=1 text
        group, shapes, _ = smooth_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=4))
        assert sched.app_lag == 3
        assert not get_backend("openmp").lags_applications(sched)
        src = _source("openmp", group, shapes, 4)
        assert src == _source("openmp", group, shapes, 1)
        assert "int64_t sf_k" not in src and "sf_a" not in src

    def test_time_tile_one_is_untouched(self, always_lag):
        group, shapes, _ = smooth_case()
        sched = schedule_for(group, shapes, ScheduleOptions())
        assert sched.app_lag is None and sched.evidence == ()

    @pytest.mark.parametrize(
        "nbytes,why",
        [(None, "no per-core L2 size is listed"),
         (2 * 2**20, "the grids touch 3456 B, within 16 per-core L2s of "
          "2097152 B"),
         # the knee is inclusive: 16 L2s of 216 B are the grids' 3456 B
         (216, "the grids touch 3456 B, within 16 per-core L2s of 216 B")],
    )
    def test_fitting_or_unknown_l2_keeps_whole_sweeps(self, l2, nbytes, why):
        l2(nbytes)
        group, shapes, _ = jacobi_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=4))
        assert sched.app_lag is None
        assert [s.lag for s in sched.steps()] == [None]
        assert [str(e) for e in sched.evidence] == [
            f"app-lag-select: 4 whole sweeps: {why}"
        ]

    def test_grids_past_the_knee_lag(self, l2):
        l2(215)
        group, shapes, _ = jacobi_case()
        sched = schedule_for(group, shapes, ScheduleOptions(time_tile=4))
        assert sched.app_lag == 0
        assert str(sched.evidence[0]) == (
            "app-lag-select: applications lagged: the grids touch 3456 B, "
            "more than 16 per-core L2s of 215 B"
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
