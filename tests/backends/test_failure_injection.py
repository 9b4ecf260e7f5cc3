"""Failure injection: toolchain breakage, cache redirection, bad input.

A production JIT must fail loudly and recover cleanly — these tests
break the environment on purpose and check the failure surfaces.
"""

import os

import numpy as np
import pytest

from repro.backends import jit
from repro.backends.jit import CompileError, cache_dir, clear_disk_cache
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil
from repro.core.weights import WeightArray

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


@pytest.fixture
def clean_env(monkeypatch, tmp_path):
    """Redirect the disk cache so injected failures can't poison real runs."""
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "cache"))
    yield
    # in-process handle cache is keyed by source+cc, no cleanup needed


class TestBrokenToolchain:
    def test_missing_compiler_surfaces(self, monkeypatch, clean_env):
        monkeypatch.setenv("SNOWFLAKE_CC", "/nonexistent/cc-99")
        s = Stencil(LAP, "out", INTERIOR)
        with pytest.raises((CompileError, OSError)):
            s.compile(backend="c", shapes={"u": (8, 8), "out": (8, 8)})

    def test_compiler_that_rejects_everything(self, monkeypatch, clean_env):
        monkeypatch.setenv("SNOWFLAKE_CC", "false")
        with pytest.raises((CompileError, OSError)):
            jit.compile_and_load("int sf_x(void){return 1;}\n// unique A")

    def test_recovery_after_toolchain_restored(self, monkeypatch, clean_env):
        monkeypatch.setenv("SNOWFLAKE_CC", "false")
        src = "double sf_recov(void){ return 4.5; }\n"
        with pytest.raises((CompileError, OSError)):
            jit.compile_and_load(src)
        monkeypatch.setenv("SNOWFLAKE_CC", "gcc")
        lib = jit.compile_and_load(src)
        import ctypes

        lib.sf_recov.restype = ctypes.c_double
        assert lib.sf_recov() == 4.5


class TestCacheControl:
    def test_cache_dir_override(self, monkeypatch, tmp_path):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(target))
        assert cache_dir() == target
        jit.compile_and_load("int sf_cache_probe(void){return 7;}\n")
        assert list(target.glob("sf_*.so"))

    def test_clear_disk_cache_counts(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "c2"))
        jit.compile_and_load("int sf_clear_probe(void){return 8;}\n")
        assert clear_disk_cache() >= 2  # .c and .so at least

    def test_reload_from_disk_artifact(self, monkeypatch, tmp_path):
        # simulate a new process: wipe the in-memory handle table, keep
        # the .so — the load must reuse the artifact (same mtime), not
        # rebuild it.
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "c3"))
        src = "int sf_disk_probe(void){return 9;}\n"
        jit.compile_and_load(src)
        so = next((tmp_path / "c3").glob("sf_*.so"))
        mtime = so.stat().st_mtime_ns
        monkeypatch.setattr(jit, "_loaded", {})
        lib = jit.compile_and_load(src)  # must hit the disk cache
        assert lib.sf_disk_probe() == 9
        assert so.stat().st_mtime_ns == mtime


class TestBadUserInput:
    def test_nan_inputs_propagate_not_crash(self, rng):
        s = Stencil(LAP, "out", INTERIOR)
        u = rng.random((8, 8))
        u[4, 4] = np.nan
        out = np.zeros((8, 8))
        s.compile(backend="c")(u=u, out=out)
        assert np.isnan(out[4, 4])
        assert np.isfinite(out[1, 1])

    def test_zero_interior_grid_is_a_noop(self):
        # 2x2 grid: interior (1,-1) is empty; nothing written, no crash
        s = Stencil(LAP, "out", INTERIOR)
        out = np.full((2, 2), -3.0)
        s.compile(backend="numpy")(u=np.ones((2, 2)), out=out)
        assert (out == -3.0).all()
