"""A solver's program: one shared object, a V-cycle one FFI call.

On the C family ``MultigridSolver`` compiles its operators with
``compile_program`` and binds each ``v_cycle(k)`` as one call of the
program's step-table walker; a fallback chain degrades that program as a
whole.  The oracle is the numpy backend, which runs the same step list
one kernel at a time.
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
#: ... and the ones other tests build by name
LEVELS = {**PROBLEMS, "vc3d8": (8, 3, "variable")}
OPTIONS = {"none": None, "fuse_tile4": {"fuse": True, "tile": 4}}


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("SNOWFLAKE_FAULTS", raising=False)
    monkeypatch.delenv("SNOWFLAKE_GUARDS", raising=False)
    faults.reset()
    yield
    faults.reset()


def _level(problem: str) -> Level:
    n, ndim, coefficients = LEVELS[problem]
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


def _cycled(backend, interpolation, options):
    """Every level's ``x`` and ``res`` after three ``v_cycle(0)`` and
    then after one ``f_cycle()`` of an 8^3 variable-coefficient solver."""
    s = MultigridSolver(_level("vc3d8"), backend=backend,
                        interpolation=interpolation, backend_options=options)
    out = []
    for run in (lambda: [s.v_cycle(0) for _ in range(3)], s.f_cycle):
        run()
        out += [lv.grids[g].copy() for lv in s.levels for g in ("x", "res")]
    return out


@needs_gcc
@pytest.mark.parametrize("interpolation", ["pc", "linear"])
def test_fused_transfers_change_no_bit(interpolation):
    # c and openmp fuse each interpolation's 8 scale-2 stencils into one
    # nest by default, the F-cycle's full interpolation (coarse
    # boundaries, then 8 linear stencils) too: fused and unfused runs
    # are bitwise the python solver on every CPU backend
    ref = _cycled("python", interpolation, None)
    for backend in ("python", "numpy", "c", "openmp"):
        for fuse in (True, False):
            got = _cycled(backend, interpolation, {"fuse": fuse})
            for g, r in zip(got, ref, strict=True):
                np.testing.assert_array_equal(g, r, err_msg=f"{backend} {fuse}")


@needs_gcc
@pytest.mark.parametrize(
    "coefficients, sizes", [("constant", (32, 128)), ("variable", (32, 64))]
)
def test_hierarchies_of_any_depth_share_one_program(coefficients, sizes):
    """The translation units do not depend on depth: hierarchies of 5,
    6 and 7 levels are one artifact, every unit the same text.  The
    constant 128^3 level is untouched zeros, so it costs next to no
    memory."""
    programs = [
        MultigridSolver(Level(n, 3, coefficients=coefficients),
                        backend="c").program
        for n in sizes
    ]
    assert programs[0].cache_key == programs[1].cache_key
    assert programs[0].source == programs[1].source
    assert programs[0].units == programs[1].units
    assert len(programs[0].units) == 5  # four operator bodies, one walker


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


def _assert_same_grids(solver, ref):
    for lv, rv in zip(solver.levels, ref.levels, strict=True):
        for g in ("x", "rhs", "res"):
            np.testing.assert_array_equal(lv.grids[g], rv.grids[g])


def _kernel_calls() -> int:
    return telemetry.snapshot()["kernels"].get("c", {}).get("calls", 0)


@needs_gcc
@pytest.mark.parametrize(
    "fallback", [None, (), ["numpy"]], ids=["None", "empty", "numpy"]
)
def test_fallback_keeps_the_one_call_program(fallback):
    """A fallback chain, an empty one, or ``None`` (no chain): with a
    working compiler the solver has its program and a V-cycle is one
    kernel call, bitwise the numpy solver."""
    s = MultigridSolver(
        _level("vc3d16"), backend="c", backend_options={"fallback": fallback}
    )
    assert s.program is not None
    before = _kernel_calls()
    s.v_cycle(0)
    assert _kernel_calls() - before == 1
    s.v_cycle(0)
    ref = MultigridSolver(_level("vc3d16"), backend="numpy")
    ref.v_cycle(0)
    ref.v_cycle(0)
    _assert_same_grids(s, ref)


@needs_gcc
@pytest.mark.parametrize("site", ["backend.invoke", "backend.specialize"])
def test_fault_before_the_call_advances_the_whole_program_once(site):
    """A fault before the program's FFI call (at its build, or at the
    cycle's call) moves the whole program to the next link, once; the
    cycle is served from it, and so are the per-unit calls
    (``residual_norm``) after it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with faults.inject(site, times=1):
            s = MultigridSolver(
                _level("vc3d16"), backend="c",
                backend_options={"fallback": ["numpy"]},
            )
            s.v_cycle(0)
    assert [b for b, _ in s.program.attempts] == ["c"]
    assert s.program.serving_backend == "numpy"
    assert sum(issubclass(w.category, DegradedExecution) for w in caught) == 1
    s.v_cycle(0)
    ref = MultigridSolver(_level("vc3d16"), backend="numpy")
    ref.v_cycle(0)
    ref.v_cycle(0)
    assert s.residual_norm() == ref.residual_norm()
    _assert_same_grids(s, ref)
    assert len(s.program.attempts) == 1


def test_a_step_loop_link_resumes_at_the_failed_step():
    """On a step-loop link each step follows the chain itself: a fault
    at the sixth call of a cycle moves the program on, that step runs
    again on the next link, and no step before it runs twice."""
    s = MultigridSolver(
        _level("cc2d32"), backend="numpy",
        backend_options={"fallback": ["python"]},
    )
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        with faults.inject("backend.invoke", times=1, after=5):
            s.v_cycle(0)
    assert [b for b, _ in s.program.attempts] == ["numpy"]
    assert s.program.serving_backend == "python"
    ref = MultigridSolver(_level("cc2d32"), backend="numpy")
    ref.v_cycle(0)
    _assert_same_grids(s, ref)


@pytest.mark.faults
def test_broken_toolchain_degrades_the_program_once(monkeypatch, tmp_path):
    """Under a compiler that always fails, a ``fallback=["numpy"]``
    solver still builds: its one program degrades to numpy with one
    warning (not one per unit), and it solves bitwise as the numpy
    solver does."""
    monkeypatch.setenv("SNOWFLAKE_CC", "false")
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "jit"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = MultigridSolver(
            _level("cc2d32"), backend="c",
            backend_options={"fallback": ["numpy"]},
        )
        hist = s.solve(cycles=3)
    degraded = [w for w in caught if issubclass(w.category, DegradedExecution)]
    assert len(degraded) == 1
    assert s.program.serving_backend == "numpy"
    ref = MultigridSolver(_level("cc2d32"), backend="numpy")
    assert hist == ref.solve(cycles=3)
    _assert_same_grids(s, ref)


# -- what a structure-keyed build must not change --------------------------

#: sha256 of the 32^3 programs' translation units, in order and
#: NUL-joined, and their JIT cache keys with the default compiler.  Each
#: kernel body as rendered (each stencil's sum factored by the
#: lowering), with ``#pragma GCC ivdep`` on every innermost
#: loop of a parallel step, the smoother and residual bodies each one
#: loop over axis-0 planes with every step on its plane lag, the
#: piecewise-constant interpolation as one nest storing all 8 children
#: (fused by the c default) without the coarse ghost refresh,
#: then the walker declaring the bodies' forwarders.
PINNED_PROGRAMS = {
    "variable": (
        "fb87360dda6ac1ccfa5375593214177a0e1bb532689a13df4911f33dc487a668",
        "900f6f9106f647ab8fbd85de",
    ),
    "constant": (
        "954be68ec7e73f709c0c00f270e320e9f717539d8dc01db0bc4db9d26ce270c7",
        "0636b3cd9b056ff33a45d92d",
    ),
}
#: sha256 of every 32^3 solver unit's ``Schedule.describe()`` (c defaults),
#: joined by blank lines in unit order; the same for both hierarchies
PINNED_DESCRIBE = (
    "4aabd25621c16713896f9fb5d9689f7a04771147807c256a4cdfeb15c4026307"
)


def _units(coefficients: str) -> list:
    from tests._helpers import RecordingBackend
    from repro.backends import base

    rec = RecordingBackend()
    base._REGISTRY[rec.name] = rec
    try:
        MultigridSolver(Level(32, 3, coefficients=coefficients),
                        backend=rec.name)
    finally:
        del base._REGISTRY[rec.name]
    return rec.units


@needs_gcc
@pytest.mark.parametrize("coefficients", sorted(PINNED_PROGRAMS))
def test_program_source_and_cache_key_are_pinned(monkeypatch, coefficients):
    import hashlib

    monkeypatch.delenv("SNOWFLAKE_CC", raising=False)
    program = MultigridSolver(
        Level(32, 3, coefficients=coefficients), backend="c"
    ).program
    digest = hashlib.sha256("\0".join(program.units).encode()).hexdigest()
    assert program.source == "\0".join(program.units)
    assert (digest, program.cache_key) == PINNED_PROGRAMS[coefficients]


@pytest.mark.parametrize("coefficients", sorted(PINNED_PROGRAMS))
def test_every_unit_schedule_is_pinned(coefficients):
    import hashlib

    c = get_backend("c")
    units = _units(coefficients)
    text = "\n\n".join(
        c.pop_schedule(group, {})(shapes).describe() for group, shapes in units
    )
    assert len(units) == 18
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DESCRIBE


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty structure, check and schedule memos, and fresh counters."""
    from repro.analysis import structure
    from repro.schedule import lower

    monkeypatch.setattr(structure, "_VERDICTS", type(structure._VERDICTS)())
    monkeypatch.setattr(structure, "_CHECKED", type(structure._CHECKED)())
    monkeypatch.setattr(lower, "_CACHE", type(lower._CACHE)())
    monkeypatch.delenv("SNOWFLAKE_TELEMETRY", raising=False)
    telemetry.set_mode("counters")
    telemetry.reset()
    yield
    telemetry.set_mode(None)
    telemetry.reset()


@needs_gcc
def test_build_costs_per_structure_not_per_level(monkeypatch, cold_memos):
    """A 32^3 variable-coefficient build: 18 units, 4 operators.  One
    analysis and one render per operator, no per-extent plan, and each
    stencil checked at most twice (a boundary stencil sits in two
    operators)."""
    from collections import Counter

    from repro.core import validate

    checks = Counter()
    real = validate.check_stencil

    def counting(stencil, shapes):
        checks[id(stencil)] += 1
        return real(stencil, shapes)

    monkeypatch.setattr(validate, "check_stencil", counting)
    solver = MultigridSolver(Level(32, 3, coefficients="variable"),
                             backend="c")
    counters = telemetry.snapshot()["counters"]
    assert len(solver.program.kernels) == 18
    assert counters["analysis.plans"] == counters["analysis.plans.keyed"] == 4
    assert counters["codegen.c.renders"] == 4
    assert solver.program.source.count("static void sf_op") == 4
    assert max(checks.values()) <= 2
