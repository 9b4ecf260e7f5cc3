"""Plane lags: a group's steps in one loop over axis-0 planes.

The oracle is a numpy executor of its own that runs a lagged schedule
one ``(step, plane)`` at a time — plane ``t`` of the loop runs every
step, in order, on its plane ``t - lag``, and each later application
of a time tile that lags them ``app_lag`` planes further back — and
must equal the python reference (applied ``k`` times) bitwise.  It
shares nothing with the C emitter, so it checks the lag rule; the
C-family backends are checked against the same reference.  Groups the
rule refuses keep the C source they had before lags existed, pinned by
digest.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.backends.numpy_backend import lattice_slices
from repro.bench import paper_operators
from repro.core.components import Component
from repro.core.domains import RectDomain, ResolvedRect
from repro.core.expr import Param
from repro.core.stencil import Stencil, StencilGroup
from repro.core.validate import iteration_shape
from repro.core.weights import SparseArray
from repro.hpgmg.operators import (
    boundary_stencils,
    cc_laplacian,
    gsrb_stencils,
    interpolation_linear_group,
    interpolation_pc_group,
    periodic_boundary_stencils,
    restriction_stencil,
)
from repro.kernel import body_for, eval_rect, eval_scalar_lets
from repro.schedule import ScheduleOptions, build_schedule, schedule_for
from tests.schedule._cases import (
    fusable_pair_group,
    gsrb_workload,
    raw_pair_group,
    snapshot_pair_group,
    solver_units,
    straddle_group,
)


def _on_plane(rect: ResolvedRect, p: int) -> ResolvedRect | None:
    """The points of ``rect`` on axis-0 plane ``p``, or ``None``."""
    lo, st, ct = rect.lows[0], rect.strides[0], rect.counts[0]
    k = p - lo if st == 0 else (p - lo) // st
    if ct == 0 or k < 0 or k >= ct or lo + st * k != p:
        return None
    return ResolvedRect(
        (p, *rect.lows[1:]), (0, *rect.strides[1:]), (1, *rect.counts[1:])
    )


def run_plane_order(sched, arrays, params=None):
    """Apply a lagged ``sched`` to ``arrays`` in place, one (step,
    plane) at a time; a schedule that lags its applications runs its
    ``k`` applications in the same loop, application ``a`` on plane
    ``t - lag - a*app_lag``, applications in order within one ``t``."""
    params = params or {}
    group, shapes = sched.group, sched.shapes
    steps = list(sched.steps())
    assert sched.lagged and all(s.lag is not None for s in steps)
    apps, delta = (
        (1, 0) if sched.app_lag is None
        else (sched.options.time_tile, sched.app_lag)
    )
    planes = (
        max(s[0] for s in shapes.values()) + max(s.lag for s in steps)
        + (apps - 1) * delta
    )
    bodies = {}
    for s in steps:
        for i in s.stencils:
            stencil = group[i]
            body, _ = body_for(stencil)
            rects = stencil.domain.resolve(iteration_shape(stencil, shapes))
            bodies[i] = (stencil, body, rects)
    for t in range(planes):
        for a in range(apps):
            for s in steps:
                for i in s.stencils:
                    stencil, body, rects = bodies[i]
                    out, om = arrays[stencil.output], stencil.output_map
                    for rect in rects:
                        sub = _on_plane(rect, t - s.lag - a * delta)
                        if sub is None:
                            continue
                        out[lattice_slices(sub, om.scale, om.offset)] = (
                            eval_rect(
                                body,
                                lambda ld: arrays[ld.grid][
                                    lattice_slices(sub, ld.scale, ld.offset)
                                ],
                                params, sub.counts, out.dtype,
                                eval_scalar_lets(body, params),
                            )
                        )


def _arrays(shapes, seed=7):
    rng = np.random.default_rng(seed)
    return {g: rng.standard_normal(s) for g, s in sorted(shapes.items())}


def _reference(group, shapes, arrays, params=None, times=1):
    work = {g: a.copy() for g, a in arrays.items()}
    kernel = group.compile(backend="python", shapes=shapes, dtype=np.float64)
    for _ in range(times):
        kernel(**work, **(params or {}))
    return work


def _assert_oracle(group, shapes, params=None, options=None):
    sched = schedule_for(group, shapes, options)
    assert sched.lagged == (sched.n_steps > 1), sched.describe()
    if not sched.lagged:
        return  # one step (a fused pair): nothing to lag
    arrays = _arrays(shapes)
    ref = _reference(group, shapes, arrays, params)
    work = {g: a.copy() for g, a in arrays.items()}
    run_plane_order(sched, work, params)
    for g in sorted(shapes):
        np.testing.assert_array_equal(work[g], ref[g], err_msg=g)


# -- the oracle on the suite's groups and the solver's units -----------------

CASES = {
    "straddle": straddle_group,
    "fusable": fusable_pair_group,
    "raw": raw_pair_group,
    "gsrb2d": lambda n: gsrb_workload(n, 2)[:2],
    "gsrb3d": lambda n: gsrb_workload(n, 3)[:2],
}


@pytest.mark.parametrize("options", [None, ScheduleOptions(fuse=True)],
                         ids=["default", "fuse"])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 11, 17])
@pytest.mark.parametrize("case", sorted(CASES))
def test_plane_order_is_the_reference(case, n, options):
    group, shapes = CASES[case](n)
    _assert_oracle(group, shapes, options=options)


@pytest.mark.parametrize("extent", [3, 4, 5, 8, 11, 17])
def test_solver_smoother_and_residual_run_in_plane_order(extent):
    # the 3-d variable-coefficient solver's two fine-level groups, on
    # grids of ``extent`` cells per dimension (ghosts included)
    for group, shapes in solver_units(2)[:2]:
        shapes = {g: (extent,) * 3 for g in shapes}
        params = {"inv_h2": float(extent * extent)}
        _assert_oracle(group, shapes, {
            p: v for p, v in params.items() if p in group.params()
        })


@pytest.mark.parametrize("backend", ["c", "openmp"])
@pytest.mark.parametrize("n", [3, 5, 8, 17])
def test_compiled_lagged_groups_match_the_reference(backend, n):
    for case in ("straddle", "raw", "gsrb2d"):
        group, shapes = CASES[case](n)
        arrays = _arrays(shapes)
        ref = _reference(group, shapes, arrays)
        work = {g: a.copy() for g, a in arrays.items()}
        group.compile(backend=backend, shapes=shapes, dtype=np.float64)(**work)
        for g in sorted(shapes):
            np.testing.assert_array_equal(work[g], ref[g], err_msg=(case, g))


# -- random offset sets -------------------------------------------------------

GRIDS = ("a", "b", "c")
offsets = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
stencil_specs = st.tuples(
    st.sampled_from(GRIDS),  # output
    st.lists(st.tuples(st.sampled_from(GRIDS), offsets),
             min_size=1, max_size=4, unique=True),  # reads
    st.integers(2, 3),  # ghost width of the interior domain
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(specs=st.lists(stencil_specs, min_size=2, max_size=5),
       n=st.integers(5, 12))
def test_random_offset_sets_run_in_plane_order(always_lag, specs, n):
    # one application, and time tiles of 2 and 3 whose applications
    # are lagged in the steps' plane loop (every grid past the knee)
    stencils = []
    for k, (out, reads, ghost) in enumerate(specs):
        body = None
        for j, (grid, off) in enumerate(reads):
            term = Component(grid, SparseArray({off: 0.5 + j}))
            body = term if body is None else body + term
        stencils.append(Stencil(
            body, out, RectDomain((ghost, ghost), (-ghost, -ghost)),
            name=f"s{k}",
        ))
    group = StencilGroup(stencils, name="random")
    shapes = {g: (n, n) for g in group.grids()}
    arrays = _arrays(shapes)
    for k in (1, 2, 3):
        sched = build_schedule(group, shapes, ScheduleOptions(time_tile=k))
        if not sched.lagged:
            # only a loop-carried hazard (an in-place read off the
            # centre) may refuse these identity-scale, bounded-halo
            # groups
            assert any(s.snapshot or not s.parallel for s in sched.steps())
            return
        assert (sched.app_lag is not None) == (k > 1)
        ref = _reference(group, shapes, arrays, times=k)
        work = {g: a.copy() for g, a in arrays.items()}
        run_plane_order(sched, work)
        for g in sorted(shapes):
            np.testing.assert_array_equal(
                work[g], ref[g], err_msg=f"k={k} {g}"
            )


# -- what the rule refuses renders as before ----------------------------------

def _refused_cases():
    fine, coarse = (18,) * 3, (10,) * 3
    out = {
        "restrict": (StencilGroup([restriction_stencil(3)], "restrict"),
                     {"res": fine, "coarse_rhs": coarse}),
    }
    for name, build in (("interp_pc", interpolation_pc_group),
                        ("interp_linear", interpolation_linear_group)):
        out[name] = (
            StencilGroup(boundary_stencils(3, "coarse_x") + list(build(3)),
                         "interp"),
            {"coarse_x": coarse, "x": fine},
        )
    red, black = gsrb_stencils(3, cc_laplacian(3, 1 / 16), lam=Param("lam"))
    pbc = periodic_boundary_stencils(3, 16)
    out["periodic_gsrb"] = (
        StencilGroup([*pbc, red, *pbc, black], "pgsrb"),
        {"x": fine, "rhs": fine},
    )
    for name, stencil in paper_operators(16).items():
        out[name] = (StencilGroup([stencil]),
                     {g: fine for g in stencil.grids()})
    out["snapshot_pair"] = snapshot_pair_group()
    return out


#: sha256 of the C and OpenMP sources of groups the rule refuses (or
#: that have one step): the loops as rendered before plane lags existed,
#: each stencil body in the factored lowering
PINNED_REFUSED = {
    ("restrict", "c"): "17b8f646e820997a98633cbbdf6a6db554670f50fcdd120c8e0cb8a3a6b3b900",
    ("restrict", "openmp"): "58839710b5e7f609794d4c49580b9a7f3d12a54a5dfccdbaeae09ec984458988",
    ("interp_pc", "c"): "e1eda5c3ba7ca90b9cab7a24db1a44df11677e0e1f6c9408e2e1a13ffb083292",
    ("interp_pc", "openmp"): "70f3bd64bb148c805b532ec57611633cdb0daf688671059d6754fc470494956d",
    ("interp_linear", "c"): "61a4d2936495cd915512443c503334301ca1b4d9079fe0a7289e21a88c687bf9",
    ("interp_linear", "openmp"): "e2a3b5ff4f846054dc83349666a76d9ee8765da207209af22024d7059e458ad9",
    ("periodic_gsrb", "c"): "d0dd301a38da03f70ab8db4af773b9ba7ecfec24cfd7068560d04b576d98643b",
    ("periodic_gsrb", "openmp"): "eec7ea09630a660a59882d6ca8adf82a766960128a3a3b49d42ea83924c2b6c5",
    ("cc_7pt", "c"): "0de33b290226440c12b3e99c3063af04eb18bfcf950098f6f242a994284528dd",
    ("cc_7pt", "openmp"): "d5f203c0927b8c1a64fad5c37e87da2adb19697bb01c04e560cfde70ea26f31e",
    ("cc_jacobi", "c"): "a5842932d8d01975566fcea7c9fe62589a00b3818089057d4de0929d426c7748",
    ("cc_jacobi", "openmp"): "eec5661ef417065bba85860f8196c94603daa06727b82b5117b4d496fdc35fa4",
    ("vc_gsrb", "c"): "9a98a7db63ecdddfb63c707557bd9a1a9df292888991439321dc3982a79be37d",
    ("vc_gsrb", "openmp"): "95015bfc1f5e52264e8ad3d96d6603b3299b3092ac337390bfbfe1cbdc2b7a30",
}


@pytest.mark.parametrize("backend", ["c", "openmp"])
@pytest.mark.parametrize("case", sorted(_refused_cases()))
def test_refused_groups_render_as_before(case, backend):
    group, shapes = _refused_cases()[case]
    assert not schedule_for(group, shapes).lagged
    src = get_backend(backend).generate(group, shapes, np.float64)
    assert "sf_t " not in src
    if (case, backend) in PINNED_REFUSED:
        digest = hashlib.sha256(src.encode()).hexdigest()
        assert digest == PINNED_REFUSED[case, backend]


def test_refusals_name_their_reason():
    from repro.schedule import plane_lag_verdict

    cases = _refused_cases()
    for case, claim in [("interp_pc", "scaled output map"),
                        ("periodic_gsrb", "wrap-around"),
                        ("snapshot_pair", "loop-carried hazard")]:
        group, shapes = cases[case]
        sched = schedule_for(group, shapes)
        _, _, refusals = plane_lag_verdict(
            group, sched.shapes, list(sched.steps()), sched.plan.dependences
        )
        assert refusals and all(r.claim == "lag-refused" for r in refusals)
        assert any(claim in r.basis for r in refusals), case


def test_one_dimensional_groups_are_not_lagged():
    from repro.core.weights import WeightArray

    w = WeightArray([1, -2, 1])
    interior = RectDomain((1,), (-1,))
    group = StencilGroup([
        Stencil(Component("u", w), "a", interior, name="s0"),
        Stencil(Component("a", w), "b", interior, name="s1"),
    ])
    assert not schedule_for(group, {g: (9,) for g in "uab"}).lagged


# -- what describe() and explain print ----------------------------------------

SMOOTH_LAGS = [0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 1, 1, 1, 2]


def test_describe_prints_every_lag_and_what_fixed_it():
    group, shapes = solver_units(32)[0]
    text = schedule_for(group, shapes).describe()
    assert f"plane lags {SMOOTH_LAGS}: step q on plane t - lag[q]" in text
    assert "gsrb_black (multicolor sweep, parallel, lag 2)" in text
    assert (
        "    - lag: 2 = lag 1 of [gsrb_red] + plane distance 1 "
        "(gsrb_red -> gsrb_black RAW on 'x')"
    ) in text
    assert (
        "    - lag: 1 = lag 0 of [bc_x_d0hi] + plane distance 1 "
        "(bc_x_d0hi -> gsrb_red RAW on 'x')"
    ) in text
    assert text.count("    - lag: ") == len(SMOOTH_LAGS)
    d = schedule_for(group, shapes).to_dict()
    assert [s["lag"] for ph in d["phases"] for s in ph["steps"]] == SMOOTH_LAGS
