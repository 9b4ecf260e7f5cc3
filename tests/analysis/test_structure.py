"""Structure keys: above a group's threshold n0 the analysis is the
shape family's, taken once.

The oracle is the per-extent analysis itself — the pairwise dependence
details and the intra-stencil hazards at each extent — widened from
``test_analysis_is_independent_of_domain_size`` into a property over
extents n0..64, the schedule-suite groups and every solver operator
(smooth, residual, restriction, piecewise-constant and linear
interpolation) in 2-D and 3-D.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import structure
from repro.analysis.dependence import (
    group_dependence_details,
    intra_stencil_hazards,
)
from repro.analysis.structure import Lin, Unbounded, verdict
from repro.backends import get_backend
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.validate import (
    ValidationError,
    check_group,
    iteration_extents,
    iteration_shape,
)
from repro.core.weights import WeightArray
from tests.schedule import _cases


def _solver_units(ndim, smoother, interpolation):
    from tests._helpers import RecordingBackend
    from repro.backends import base
    from repro.hpgmg import Level, MultigridSolver

    rec = RecordingBackend()
    base._REGISTRY[rec.name] = rec
    try:
        MultigridSolver(
            Level(16 if ndim == 3 else 32, ndim, coefficients="variable"),
            backend=rec.name, smoother=smoother, interpolation=interpolation,
        )
    finally:
        del base._REGISTRY[rec.name]
    # one unit per distinct group (the finest level's)
    seen, units = set(), []
    for group, shapes in rec.units:
        if group.signature() not in seen:
            seen.add(group.signature())
            units.append((f"{ndim}d-{smoother}-{interpolation}-{group.name}",
                          group, shapes))
    return units


def _all_units():
    units = [
        (name, *getattr(_cases, name)()[:2])
        for name in (
            "laplacian_pair", "straddle_group", "fusable_pair_group",
            "gsrb_workload", "snapshot_group", "snapshot_pair_group",
            "raw_pair_group",
        )
    ]
    for ndim in (2, 3):
        for smoother, interpolation in (
            ("gsrb", "pc"), ("gsrb", "linear"), ("jacobi", "pc"),
            ("chebyshev", "pc"),
        ):
            units += _solver_units(ndim, smoother, interpolation)
    return units


UNITS = _all_units()


def _family_of(shapes):
    return structure._family({g: tuple(s) for g, s in shapes.items()})[1]


def _member(shapes, m):
    """The member of ``shapes``' family whose smallest extent is ``m``."""
    return {
        g: tuple(a * m + b for a, b in ab) for g, ab in _family_of(shapes)
    }


def test_units_cover_every_solver_operator():
    names = {name.rsplit("-", 1)[-1] for name, _, _ in UNITS}
    for op in ("gsrb_smooth_x1", "jacobi_smooth", "cheby_smooth",
               "residual", "restrict", "interp"):
        assert op in names
    kinds = {name.split("-")[2] for name, _, _ in UNITS if "-" in name}
    assert kinds == {"pc", "linear"}


@settings(max_examples=150, deadline=None)
@given(unit=st.sampled_from(UNITS), m=st.integers(2, 64))
def test_keyed_analysis_is_the_per_extent_analysis(unit, m):
    _, group, shapes = unit
    shapes = _member(shapes, m)
    if min(x for s in shapes.values() for x in s) < 1:
        return
    v = verdict(group, shapes)
    if v is None:
        return  # below n0 (or no threshold): analysed per extent
    assert m >= v.n0
    assert v.details == group_dependence_details(group, shapes)
    assert v.hazards == tuple(
        tuple(intra_stencil_hazards(s, shapes)) for s in group
    )


@pytest.mark.parametrize("unit", UNITS, ids=[u[0] for u in UNITS])
def test_every_extent_from_n0_to_64_agrees(unit):
    """The exhaustive form of the property, one residue class at a time:
    every member from n0 to 64 is keyed, with the per-extent verdicts,
    and the bounds check passes everywhere it passed once."""
    _, group, shapes = unit
    family = _family_of(shapes)
    M = structure._modulus(group)
    for r in range(M):
        top = 64 - (64 - r) % M
        v = verdict(group, _member(shapes, top))
        if v is None:
            continue
        for m in range(max(v.n0, 2), 65):
            at = _member(shapes, m)
            if m % M != r or _family_of(at) != family:
                continue  # another key (a tiny member may read as another family)
            assert verdict(group, at) == v
            assert v.details == group_dependence_details(group, at)
            assert v.hazards == tuple(
                tuple(intra_stencil_hazards(s, at)) for s in group
            )
            check_group(group, at)


@pytest.mark.parametrize(
    "unit", [u for u in UNITS if "-" in u[0]], ids=lambda u: u[0]
)
def test_solver_operators_are_keyed_from_the_smallest_level(unit):
    """A hierarchy's coarsest levels (n = 2, extent 4) are above n0."""
    _, group, shapes = unit
    assert verdict(group, _member(shapes, 4)) is not None


needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="requires a C toolchain"
)


def _one_text_per_residue_class(unit, target, options):
    _, group, shapes = unit
    backend = get_backend(target)
    M = structure._modulus(group)
    for r in range(M):
        texts = set()
        for m in range(r or M, 25, M):
            at = _member(shapes, m)
            sched = backend.pop_schedule(group, dict(options))(at)
            if backend.render_key(group, at, sched) is not None:
                texts.add(backend.generate(group, at, np.float64,
                                           schedule=sched))
        assert len(texts) <= 1


@pytest.mark.parametrize("target", ["c", "openmp"])
@pytest.mark.parametrize("unit", UNITS, ids=[u[0] for u in UNITS])
def test_one_render_serves_the_structure_key(unit, target):
    """Above the threshold with the emitter's decisions, every member
    of a residue class renders the same text."""
    _one_text_per_residue_class(unit, target, {})


@pytest.mark.parametrize("target", ["c", "openmp"])
@pytest.mark.parametrize("unit", UNITS, ids=[u[0] for u in UNITS])
def test_one_render_serves_a_lagged_time_tile(unit, target, always_lag):
    """The same for a time tile whose applications ``c`` lags (every
    grid is past the knee here): its key rests on the one plane-lag
    fact set of the steps listed twice."""
    _one_text_per_residue_class(unit, target, {"time_tile": 4})


def test_below_n0_is_per_extent():
    group, shapes = _cases.gsrb_workload(n=10, ndim=2)[:2]
    assert verdict(group, _member(shapes, 3)) is None
    assert verdict(group, _member(shapes, 4)) is not None


def _lap(domain):
    return StencilGroup(
        [Stencil(Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]])),
                 "out", domain)],
        name="lap",
    )


def test_threshold_follows_the_domain_bounds():
    """A box anchored near the low corner meets one anchored at the far
    end only while the grid is small: n0 is where they part."""
    group = StencilGroup([
        Stencil(Component("u", WeightArray([[1]])), "u",
                RectDomain((1, 1), (6, -1)), name="near"),
        Stencil(Component("u", WeightArray([[1]])), "v",
                RectDomain((-6, 1), (-1, -1)), name="far"),
    ], name="parting")
    v = verdict(group, {"u": (64, 64), "v": (64, 64)})
    assert v is not None and v.n0 == 12
    assert verdict(group, {"u": (11, 11), "v": (11, 11)}) is None


def test_failing_bounds_check_is_never_keyed():
    group = _lap(RectDomain((0, 0), (-1, -1)))  # reads u[-1]
    shapes = {"u": (16, 16), "out": (16, 16)}
    assert verdict(group, shapes) is None
    with pytest.raises(ValidationError):
        structure.check_once(group, shapes)
    with pytest.raises(ValidationError):
        structure.check_once(group, shapes)  # a refusal is not remembered


def test_check_once_checks_each_structure_once(monkeypatch):
    from repro.core import validate

    calls = []
    real = validate.check_group
    monkeypatch.setattr(structure, "check_group",
                        lambda g, s: calls.append(s) or real(g, s))
    monkeypatch.setattr(structure, "_CHECKED", type(structure._CHECKED)())
    group = _lap(RectDomain((1, 1), (-1, -1)))
    for n in (8, 12, 30, 30):
        structure.check_once(group, {"u": (n, n), "out": (n, n)})
    assert len(calls) == 1


class TestLin:
    @pytest.fixture(autouse=True)
    def _run(self):
        structure._LOCAL.run = structure._Run()
        yield
        del structure._LOCAL.run

    def test_comparisons_record_where_they_settle(self):
        n = Lin(2, 0)  # 2t
        assert n > 5  # true from t = 3
        assert structure._LOCAL.run.t0 == 3
        assert not (n == 6)  # false from t = 4
        assert structure._LOCAL.run.t0 == 4

    def test_affine_arithmetic(self):
        n = Lin(4, 2)
        assert (n - 2) // 4 == Lin(1, 0)
        assert (n - 2) % 4 == 0
        assert n - n == 0 and isinstance(n - n, int)

    @pytest.mark.parametrize("op", [
        lambda n: n * n, lambda n: n // 3, lambda n: 7 // n, lambda n: int(n),
    ])
    def test_leaving_the_affine_fragment_raises(self, op):
        with pytest.raises(Unbounded):
            op(Lin(4, 1))


@settings(max_examples=80, deadline=None)
@given(
    start=st.integers(-5, 5), end=st.integers(-5, 8), stride=st.integers(0, 3),
    r=st.integers(0, 5), t=st.integers(0, 8),
)
def test_bind_on_affine_extents_is_resolve(start, end, stride, r, t):
    """The symbolic run resolves boxes with the same code: evaluated at
    ``t``, its affine lows and counts are the concrete ones past the
    threshold it records (extent ``6t + r``; 6 is a multiple of every
    stride drawn)."""
    box = RectDomain((start,), (end,), (stride,))
    structure._LOCAL.run = run = structure._Run()
    try:
        sym = box.bind((Lin(6, r),))
    finally:
        del structure._LOCAL.run
    if t < run.t0:
        return

    def at(v):
        return v.a * t + v.b if isinstance(v, Lin) else v

    real = box.resolve((6 * t + r,))
    assert tuple(map(at, sym.lows)) == real.lows
    assert tuple(map(at, sym.counts)) == real.counts


def test_iteration_extents_match_iteration_shape():
    from repro.hpgmg.operators import interpolation_pc_group, restriction_stencil

    for group in (interpolation_pc_group(2, add=True),
                  StencilGroup([restriction_stencil(2)])):
        shapes = {g: (10, 10) for g in group.grids()}
        shapes.update({g: (6, 6) for g in group.grids() if "coarse" in g})
        for s in group:
            assert iteration_shape(s, shapes) == iteration_extents(s, shapes)
