"""How many compiler runs a solver costs, and that sharing them is exact.

Smooth and residual read the level's ``1/h²`` as a runtime param and the
C emitter reads extents from ``dims``, so a whole hierarchy shares one
kernel body per operator, and the C family compiles a solver's bodies
into one program.  The F-cycle's kernels are built, as kernels of their
own, by the first ``f_cycle()``.
"""

import shutil

import numpy as np
import pytest

from repro import telemetry
from repro.backends import jit
from repro.hpgmg.level import Level
from repro.hpgmg.problem import setup_problem
from repro.hpgmg.solver import MultigridSolver

pytestmark = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="requires a C toolchain"
)


@pytest.fixture
def private_jit(monkeypatch, tmp_path):
    """An empty JIT cache, on disk and in process, and counters on;
    yields the cache directory."""
    d = tmp_path / "jit"
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(d))
    monkeypatch.setenv("SNOWFLAKE_CC", "gcc")
    monkeypatch.setattr(jit, "_loaded", {})
    monkeypatch.setattr(jit, "_tag_locks", {})
    telemetry.set_mode("counters")
    yield d
    telemetry.set_mode(None)


def _misses() -> int:
    return telemetry.snapshot()["counters"].get("jit.cache.miss", 0)


def _first_vcycle(backend: str, n: int = 32) -> np.ndarray:
    level = Level(n, 3, coefficients="variable")
    solver = MultigridSolver(level, backend=backend)
    level.grids["rhs"][level.interior] = (
        np.random.default_rng(0).standard_normal((n,) * 3)
    )
    solver.v_cycle(0)
    return level.grids["x"]


def test_32cubed_solver_is_one_compiler_run(private_jit):
    """Smooth, residual, restrict, interp on all five levels: one
    program, so one translation unit and one artifact; the V-cycle is
    bitwise the numpy backend's (which no C code touches)."""
    before = _misses()
    x = _first_vcycle("c")
    assert _misses() - before == 1
    assert len(list(private_jit.glob("sf_*.so"))) == 1
    np.testing.assert_array_equal(x, _first_vcycle("numpy"))


def test_fcycle_kernels_are_built_by_the_first_fcycle(private_jit):
    level, _ = setup_problem(16, coefficients="variable", backend="c")
    solver = MultigridSolver(level, backend="c")
    solver.solve(cycles=1, cycle="v")
    v_only = len(list(private_jit.glob("sf_*.so")))
    before = _misses()
    solver.f_cycle()
    # restrict_rhs and the overwriting interpolation: one artifact each
    assert _misses() - before == 2
    assert len(list(private_jit.glob("sf_*.so"))) == v_only + 2


def test_fcycle_history_matches_numpy_bitwise(private_jit):
    hist = []
    for backend in ("c", "numpy"):
        level, _ = setup_problem(16, coefficients="variable", backend=backend)
        hist.append(
            MultigridSolver(level, backend=backend).solve(cycles=3, cycle="f")
        )
    assert hist[0] == hist[1]
