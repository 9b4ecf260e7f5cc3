"""JIT machinery: caching, error reporting."""

import ctypes
import os
import shutil
import subprocess
import sys

import pytest

from repro.backends.jit import (
    CompileError,
    cache_dir,
    compile_and_load,
    source_tag,
)


SRC_OK = """
double forty_two(void) { return 42.0; }
"""


class TestCompileAndLoad:
    def test_compiles_and_runs(self):
        lib = compile_and_load(SRC_OK)
        lib.forty_two.restype = ctypes.c_double
        assert lib.forty_two() == 42.0

    def test_in_process_cache_returns_same_handle(self):
        a = compile_and_load(SRC_OK)
        b = compile_and_load(SRC_OK)
        assert a is b

    def test_flags_are_part_of_the_key(self):
        a = compile_and_load(SRC_OK)
        b = compile_and_load(SRC_OK, openmp=True)
        assert a is not b

    def test_disk_artifact_exists(self):
        compile_and_load(SRC_OK)
        assert any(cache_dir().glob("sf_*.so"))

    def test_compile_error_carries_compiler_output(self):
        with pytest.raises(CompileError, match="compiler failed"):
            compile_and_load("this is not C at all;")

    def test_error_keeps_source_for_debugging(self):
        try:
            compile_and_load("void broken( {")
        except CompileError as e:
            assert "source kept at" in str(e)
        else:  # pragma: no cover
            pytest.fail("expected CompileError")


UNITS = (
    "double sf_a(void) { return 40.0; }\n",
    "double sf_b(void) { return 2.0; }\n",
    "double sf_a(void);\ndouble sf_b(void);\n"
    "double sf_sum(void) { return sf_a() + sf_b(); }\n",
)


@pytest.fixture
def units_cache(tmp_path, monkeypatch):
    """An empty disk cache and in-process cache, fresh counters."""
    from repro import telemetry
    from repro.backends import jit

    if shutil.which("gcc") is None:
        pytest.skip("requires a C toolchain")
    monkeypatch.setenv("SNOWFLAKE_CC", "gcc")
    monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "jit"))
    monkeypatch.delenv("SNOWFLAKE_FAULTS", raising=False)
    monkeypatch.setattr(jit, "_loaded", {})
    monkeypatch.setattr(jit, "_tag_locks", {})
    telemetry.set_mode("counters")
    telemetry.reset()
    yield tmp_path / "jit"
    telemetry.set_mode(None)
    telemetry.reset()


def _sum(lib) -> float:
    lib.sf_sum.restype = ctypes.c_double
    return lib.sf_sum()


class TestUnits:
    """Several translation units make one shared object under one tag."""

    def test_two_calls_make_one_build(self, units_cache):
        from repro import telemetry

        a = compile_and_load(UNITS)
        b = compile_and_load(list(UNITS))
        assert a is b and _sum(a) == 42.0
        counters = telemetry.snapshot()["counters"]
        assert counters["jit.cache.miss"] == 1
        assert counters["jit.cache.hit.memory"] == 1
        assert telemetry.snapshot()["histograms"]["jit.cc"][0]["count"] == 1
        tag = source_tag(UNITS)
        assert sorted(p.name for p in units_cache.iterdir()) == [
            *(f"sf_{tag}.{j}.c" for j in range(3)), f"sf_{tag}.so",
        ]

    def test_one_unit_is_a_plain_source(self, units_cache):
        assert source_tag([SRC_OK]) == source_tag(SRC_OK)
        assert compile_and_load([SRC_OK]) is compile_and_load(SRC_OK)
        assert sorted(p.suffix for p in units_cache.iterdir()) == [".c", ".so"]

    def test_fresh_process_hits_the_disk_cache(self, units_cache):
        compile_and_load(UNITS)
        code = (
            "from repro import telemetry\n"
            "from repro.backends.jit import compile_and_load\n"
            "telemetry.set_mode('counters')\n"
            f"lib = compile_and_load({UNITS!r})\n"
            "c = telemetry.snapshot()['counters']\n"
            "print(c.get('jit.cache.hit.disk', 0), c.get('jit.cache.miss', 0))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        assert out == ["1", "0"]

    def test_syntax_error_names_its_unit(self, units_cache):
        broken = (UNITS[0], "double sf_b(void) { return 2.0 }\n", UNITS[2])
        tag = source_tag(broken)
        with pytest.raises(CompileError, match="compiler failed") as e:
            compile_and_load(broken)
        assert f"source kept at {units_cache / f'sf_{tag}.1.c'}" in str(e.value)
        assert not list(units_cache.glob("sf_*.tmp.*"))
        assert not list(units_cache.glob("*.so"))
