"""A solver's program: one translation unit, a V-cycle one FFI call.

On the C family ``MultigridSolver`` compiles its operators with
``compile_program`` and binds each ``v_cycle(k)`` as one call of the
program's step-table walker.  The oracle is the numpy backend, which runs
the same step list one kernel at a time.
"""

import functools
import shutil
import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.backends import Zero, get_backend
from repro.core.expr import Param
from repro.core.stencil import StencilGroup
from repro.hpgmg.level import Level
from repro.hpgmg.operators import residual_group, restriction_stencil
from repro.hpgmg.problem import operator_expr
from repro.hpgmg.solver import MultigridSolver
from repro.resilience import faults
from repro.resilience.faults import InjectedFault
from repro.resilience.guards import GuardViolation
from repro.resilience.policy import DegradedExecution

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="requires a C toolchain"
)

#: (n, ndim, coefficients)
PROBLEMS = {"vc3d16": (16, 3, "variable"), "cc2d32": (32, 2, "constant")}
OPTIONS = {"none": None, "fuse_tile4": {"fuse": True, "tile": 4}}


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("SNOWFLAKE_FAULTS", raising=False)
    monkeypatch.delenv("SNOWFLAKE_GUARDS", raising=False)
    faults.reset()
    yield
    faults.reset()


def _level(problem: str) -> Level:
    n, ndim, coefficients = PROBLEMS[problem]
    level = Level(n, ndim, coefficients=coefficients)
    level.grids["rhs"][level.interior] = (
        np.random.default_rng(0).standard_normal((n,) * ndim)
    )
    return level


def _solve(backend, problem, smoother, interpolation, options=None):
    """Every level's ``x``, ``rhs`` and ``res`` after two ``v_cycle(0)``,
    and the history of an F-cycle ``solve`` of the same problem."""
    kw = dict(backend=backend, smoother=smoother,
              interpolation=interpolation, backend_options=options)
    s = MultigridSolver(_level(problem), **kw)
    s.v_cycle(0)
    s.v_cycle(0)
    grids = [lv.grids[g] for lv in s.levels for g in ("x", "rhs", "res")]
    hist = MultigridSolver(_level(problem), **kw).solve(cycles=2, cycle="f")
    return grids, hist


@functools.cache
def _numpy_solve(problem, smoother, interpolation):
    return _solve("numpy", problem, smoother, interpolation)


@needs_gcc
@pytest.mark.parametrize("options", OPTIONS)
@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("interpolation", ["pc", "linear"])
@pytest.mark.parametrize("smoother", ["gsrb", "jacobi", "chebyshev"])
@pytest.mark.parametrize("backend", ["c", "openmp"])
def test_program_is_bitwise_the_numpy_solver(
    backend, smoother, interpolation, problem, options
):
    grids, hist = _solve(
        backend, problem, smoother, interpolation, OPTIONS[options]
    )
    ref_grids, ref_hist = _numpy_solve(problem, smoother, interpolation)
    for got, ref in zip(grids, ref_grids, strict=True):
        np.testing.assert_array_equal(got, ref)
    assert hist == ref_hist


@needs_gcc
@pytest.mark.parametrize(
    "coefficients, sizes", [("constant", (32, 128)), ("variable", (32, 64))]
)
def test_hierarchies_of_any_depth_share_one_program(coefficients, sizes):
    """The translation unit does not depend on depth: hierarchies of 5,
    6 and 7 levels are one artifact.  The constant 128^3 level is
    untouched zeros, so it costs next to no memory."""
    programs = [
        MultigridSolver(Level(n, 3, coefficients=coefficients),
                        backend="c").program
        for n in sizes
    ]
    assert programs[0].cache_key == programs[1].cache_key
    assert programs[0].source == programs[1].source


@needs_gcc
def test_invoke_fault_site_is_passed_once_per_cycle():
    s = MultigridSolver(_level("vc3d16"), backend="c")
    reached = faults.reached("backend.invoke")
    s.v_cycle(0)
    s.v_cycle(0)
    assert faults.reached("backend.invoke") - reached == 2
    with faults.inject("backend.invoke", after=1):
        s.v_cycle(0)
        with pytest.raises(InjectedFault, match="kernel for 'vcycle'"):
            s.v_cycle(0)
    assert faults.fired("backend.invoke") == 1


@needs_gcc
def test_guards_scan_the_cycle_once(monkeypatch):
    monkeypatch.setenv("SNOWFLAKE_GUARDS", "nonfinite=raise")
    level = _level("vc3d16")
    s = MultigridSolver(level, backend="c")
    s.v_cycle(0)
    level.grids["rhs"][3, 3, 3] = np.nan
    with pytest.raises(GuardViolation, match="non-finite"):
        s.v_cycle(0)


@needs_gcc
def test_trace_mode_is_one_kernel_span_per_cycle():
    s = MultigridSolver(_level("vc3d16"), backend="c")
    with telemetry.tracing.session():
        s.v_cycle(0)
        s.v_cycle(0)
    spans = [
        e for e in telemetry.tracing.events()
        if e["name"].startswith("kernel:")
    ]
    assert [e["name"] for e in spans] == ["kernel:vcycle"] * 2
    # the points of the 60 kernel calls it replaces, summed
    assert spans[0]["args"]["points"] == s._cycles[0]._points


@needs_gcc
def test_program_bind_refuses_what_it_cannot_run():
    n = 8
    shape = (n + 2,) * 3
    level = Level(n, 3)
    group = residual_group(3, operator_expr(level, inv_h2=Param("inv_h2")))
    prog = get_backend("c").compile_program(
        [(group, {g: shape for g in group.grids()})]
    )
    grids = {g: level.grids[g] for g in group.grids()}
    # a param left free at bind: its buffer is made per call
    free = prog.kernels[0].bind(**grids)
    with pytest.raises(TypeError, match="every param fixed"):
        prog.bind([(free, 1)])
    # a kernel of another artifact
    other = group.compile(backend="numpy").bind(**grids, inv_h2=1.0)
    with pytest.raises(TypeError, match="not a kernel of this program"):
        prog.bind([(other, 1)])
    # a zeroed grid meets the contract of an output, checked by Zero
    # itself, so the step-by-step path refuses it too
    with pytest.raises(ValueError, match="grid 'x' must be C-contiguous"):
        Zero("x", level.grids["x"][:, ::2])
    # another shape compiles on its own and runs
    small = Level(4, 3)
    prog.kernels[0](**{g: small.grids[g] for g in group.grids()}, inv_h2=1.0)


@needs_gcc
def test_program_runs_steps_in_order_with_reps():
    """``restrict`` then zero the source, twice: the step table keeps
    order and repetitions."""
    fine, coarse = Level(8, 2), Level(4, 2)
    group = StencilGroup([restriction_stencil(2)], "restrict")
    shapes = {"res": fine.shape, "coarse_rhs": coarse.shape}
    prog = get_backend("c").compile_program([(group, shapes)])
    fine.grids["res"][...] = 1.0
    bound = prog.kernels[0].bind(
        res=fine.grids["res"], coarse_rhs=coarse.grids["rhs"]
    )
    prog.bind([(bound, 2), (Zero("res", fine.grids["res"]), 1)])()
    assert not fine.grids["res"].any()
    np.testing.assert_array_equal(coarse.grids["rhs"][coarse.interior], 1.0)


@pytest.mark.faults
def test_fallback_chain_keeps_the_per_kernel_path(monkeypatch, tmp_path):
    """With ``fallback=`` the solver degrades call by call, so it builds
    no program; on a broken toolchain numpy serves every kernel, bitwise
    the numpy solver."""
    monkeypatch.setenv("SNOWFLAKE_CC", "false")
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "jit"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = MultigridSolver(
            _level("cc2d32"), backend="c",
            backend_options={"fallback": ["numpy"]},
        )
    assert s.program is None
    assert any(issubclass(w.category, DegradedExecution) for w in caught)
    s.v_cycle(0)
    s.v_cycle(0)
    ref = MultigridSolver(_level("cc2d32"), backend="numpy")
    ref.v_cycle(0)
    ref.v_cycle(0)
    for lv, rv in zip(s.levels, ref.levels, strict=True):
        for g in ("x", "rhs", "res"):
            np.testing.assert_array_equal(lv.grids[g], rv.grids[g])
