"""Hardened JIT: quarantine/recompile, per-tag locking, orphan sweep,
cache accounting, hard timeouts."""

import ctypes
import os
import shutil
import subprocess
import threading

import pytest

from repro.backends import jit
from repro.backends.jit import (
    CompileError,
    CompileTimeout,
    cache_dir,
    clear_disk_cache,
    compile_and_load,
    sweep_orphans,
)
from repro.resilience import ResilienceWarning
from repro.resilience.faults import inject

pytestmark = pytest.mark.faults

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="requires a C toolchain"
)


def _value_of(lib, name):
    fn = getattr(lib, name)
    fn.restype = ctypes.c_double
    return fn()


@needs_gcc
class TestQuarantine:
    # NB: dlopen caches handles by path within a process, so a library
    # this process already loaded can never fail to re-load here.  The
    # "corrupted cache from an earlier run" scenario therefore plants
    # the bad artifact at a path this process has never dlopened.

    def test_corrupted_cached_so_quarantined_and_recompiled(
        self, real_gcc, fresh_jit
    ):
        src = "double sf_q1(void){ return 11.0; }\n"
        so = cache_dir() / f"sf_{jit._tag(src)}.so"
        so.write_bytes(b"garbage, not an ELF")  # crash-truncated artifact
        with pytest.warns(ResilienceWarning, match="quarantined"):
            lib = compile_and_load(src)
        assert _value_of(lib, "sf_q1") == 11.0
        assert list(cache_dir().glob("sf_*.so.bad")), "bad artifact kept"

    def test_cache_read_fault_site_exercises_same_path(
        self, real_gcc, fresh_jit
    ):
        src_a = "double sf_qa(void){ return 1.0; }\n"
        src_b = "double sf_q2(void){ return 12.0; }\n"
        compile_and_load(src_a)
        # a valid cached artifact this process has never dlopened
        so_a = cache_dir() / f"sf_{jit._tag(src_a)}.so"
        so_b = cache_dir() / f"sf_{jit._tag(src_b)}.so"
        shutil.copy(so_a, so_b)
        with inject("jit.cache.read", times=1):
            with pytest.warns(ResilienceWarning, match="recompiling"):
                lib = compile_and_load(src_b)
        assert _value_of(lib, "sf_q2") == 12.0

    def test_load_fault_surfaces_as_oserror(self, real_gcc, fresh_jit):
        with inject("jit.load", times=None):
            with pytest.raises(OSError, match="injected fault: dlopen"):
                compile_and_load("double sf_q3(void){ return 13.0; }\n")

    def test_cache_write_fault_then_clean_retry(self, real_gcc, fresh_jit):
        src = "double sf_q4(void){ return 14.0; }\n"
        with inject("jit.cache.write", times=1):
            with pytest.raises(OSError, match="cache write"):
                compile_and_load(src)
        assert not list(cache_dir().glob("sf_*.tmp.so"))  # tmp cleaned
        lib = compile_and_load(src)  # transient: next attempt succeeds
        assert _value_of(lib, "sf_q4") == 14.0


@needs_gcc
class TestConcurrency:
    def test_concurrent_distinct_and_shared_tags(self, real_gcc, fresh_jit):
        n_distinct = 4
        sources = [
            f"double sf_t{i}(void){{ return {i}.0; }}\n"
            for i in range(n_distinct)
        ]
        shared = "double sf_shared(void){ return 99.0; }\n"
        results: dict[int, object] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(n_distinct + 2)

        def worker(idx, src):
            try:
                start.wait()
                results[idx] = compile_and_load(src)
            except BaseException as e:  # noqa: BLE001 - collected for assert
                errors.append(e)

        threads = [
            threading.Thread(target=worker, args=(i, s))
            for i, s in enumerate(sources)
        ] + [
            threading.Thread(target=worker, args=(10 + j, shared))
            for j in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(n_distinct):
            assert _value_of(results[i], f"sf_t{i}") == float(i)
        # racing threads on one tag share a single compiled handle
        assert results[10] is results[11]


class TestCacheAccounting:
    @needs_gcc
    def test_clear_counts_only_real_deletions(self, real_gcc, fresh_jit):
        compile_and_load("double sf_c1(void){ return 1.0; }\n")
        d = cache_dir()
        assert len(list(d.glob("sf_*"))) == 2  # .c and .so
        (d / "sf_orphan.424242.tmp.so").write_bytes(b"x")  # crashed compile
        (d / "unrelated.txt").write_text("keep me")
        assert clear_disk_cache() == 3
        assert (d / "unrelated.txt").exists()
        assert clear_disk_cache() == 0  # nothing left: count stays honest

    def test_sweep_orphans_spares_live_owners(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_CACHE_DIR", str(tmp_path / "swp"))
        d = cache_dir()
        # a pid that existed and is now certainly dead
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        dead = d / f"sf_dead.{proc.pid}.tmp.so"
        dead.write_bytes(b"x")
        live = d / f"sf_live.{os.getpid()}.tmp.so"
        live.write_bytes(b"x")
        junk = d / "sf_weird.notapid.tmp.so"
        junk.write_bytes(b"x")
        dead_src = d / f"sf_dead.{proc.pid}.tmp.c"
        dead_src.write_text("int x;")
        live_src = d / f"sf_live.{os.getpid()}.tmp.c"
        live_src.write_text("int x;")
        assert sweep_orphans() == 3  # dead .so/.c + unparsable; live spared
        assert live.exists() and live_src.exists()
        assert not dead.exists() and not dead_src.exists()
        assert not junk.exists()


@needs_gcc
class TestSourcePublish:
    def test_rebuilding_a_tag_never_rewrites_the_source_in_place(
        self, real_gcc, fresh_jit, monkeypatch
    ):
        """A second build of the same tag (another process, in the
        field) while this build's compiler has the source open must not
        truncate and rewrite that file: it publishes a new one by
        rename, and the open file still reads whole."""
        src = "double sf_torn(void){ return 5.0; }\n"
        tag = jit._tag(src)
        d = cache_dir()
        real_run = subprocess.run
        seen = {}

        def compiler(cmd, **kw):
            if not seen:
                c_path = cmd[cmd.index("-o") - 1]
                with open(c_path) as reading:
                    seen["open"] = True
                    jit._build(tag, src, d, d / "sf_other.so", False, (), None)
                    seen["text"] = reading.read()
                    seen["same_file"] = os.path.samestat(
                        os.fstat(reading.fileno()), os.stat(c_path)
                    )
            return real_run(cmd, **kw)

        monkeypatch.setattr(jit.subprocess, "run", compiler)
        assert _value_of(compile_and_load(src), "sf_torn") == 5.0
        assert seen["text"] == src
        assert not seen["same_file"]
        assert not list(d.glob("sf_*.tmp.c"))


class TestHardTimeout:
    def test_hung_compiler_raises_compiletimeout(
        self, tmp_path, monkeypatch, fresh_jit
    ):
        hung = tmp_path / "hung-cc"
        hung.write_text("#!/bin/sh\nsleep 30\n")
        hung.chmod(0o755)
        monkeypatch.setenv("SNOWFLAKE_CC", str(hung))
        with pytest.raises(CompileTimeout, match="hard timeout"):
            compile_and_load("int sf_hang(void){return 0;}\n", timeout=0.2)
        assert not list(cache_dir().glob("sf_*.tmp.so"))

    def test_timeout_env_knob(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_CC_TIMEOUT", "7.5")
        assert jit.default_cc_timeout() == 7.5
        monkeypatch.setenv("SNOWFLAKE_CC_TIMEOUT", "0")
        assert jit.default_cc_timeout() is None
        monkeypatch.delenv("SNOWFLAKE_CC_TIMEOUT")
        assert jit.default_cc_timeout() == 300.0

    def test_timeout_is_a_compile_error(self):
        # fallback policies treat CompileTimeout as transient *and* as a
        # compile failure; the hierarchy must support both
        assert issubclass(CompileTimeout, CompileError)


class TestBrokenToolchainHygiene:
    def test_failed_compile_leaves_no_tmp(self, monkeypatch, fresh_jit):
        monkeypatch.setenv("SNOWFLAKE_CC", "false")
        with pytest.raises((CompileError, OSError)):
            compile_and_load("int sf_broken(void){return 0;}\n")
        assert not list(cache_dir().glob("sf_*.tmp.so"))
