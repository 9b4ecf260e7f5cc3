"""JIT machinery: compile generated C to a shared object and load it.

The paper's micro-compilers render the stencil AST into a performance
language, hand it to a system compiler, and wrap the binary in a Python
callable via the built-in FFI, caching callables for subsequent use
(SectionIV).  This module implements exactly that pipeline with gcc +
:mod:`ctypes`:

* source is hashed (sha256) — the hash keys both an in-process cache and
  an on-disk cache directory, so identical stencils never recompile,
  even across interpreter sessions;
* compiler and flags mirror SectionV-A (``-std=c99 -O3 -fgcse -fPIC``),
  with ``-fopenmp`` / ``-lm`` added per backend request.

Hardened for production use:

* compilation is serialized **per source tag**, not globally — threads
  building different stencils run their compiler subprocesses
  concurrently;
* every compiler subprocess runs under a hard wall-clock timeout
  (``SNOWFLAKE_CC_TIMEOUT`` seconds, default 300; per-call override via
  ``timeout=``), raising the retryable :class:`CompileTimeout`;
* a cached ``.so`` that fails to ``dlopen`` (truncated by a crash, disk
  corruption) is **quarantined** (renamed ``*.so.bad``) and rebuilt from
  source transparently, with one :class:`ResilienceWarning`;
* sources and shared objects are both published by atomic rename
  from a per-process temporary, so a process rebuilding a tag never
  truncates a file another process's compiler is reading;
  ``sf_*.tmp.c`` / ``sf_*.tmp.so`` temporaries left by crashed compiles
  are swept by :func:`sweep_orphans` (and ``python -m repro doctor``);
* the spawn/load/cache paths carry named fault-injection sites
  (``jit.spawn``, ``jit.load``, ``jit.cache.read``, ``jit.cache.write``
  — see :mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import time
import warnings
from pathlib import Path

from .. import telemetry
from ..resilience.faults import ResilienceWarning, fault_point
from ..telemetry import tracing

__all__ = [
    "CompileError",
    "CompileTimeout",
    "compile_and_load",
    "cache_dir",
    "clear_disk_cache",
    "sweep_orphans",
    "default_cc_timeout",
    "source_tag",
]


class CompileError(RuntimeError):
    """gcc rejected generated source — always a codegen bug; the message
    carries the compiler output and a path to the offending source."""


class CompileTimeout(CompileError):
    """The compiler subprocess exceeded its hard wall-clock timeout.

    Transient by definition (a loaded machine, a hung license check) —
    the fallback policy retries these in place before degrading."""


_DEFAULT_FLAGS = ("-std=c99", "-O3", "-fgcse", "-fPIC", "-shared")

_lock = threading.Lock()  # guards _loaded and _tag_locks only
_loaded: dict[str, ctypes.CDLL] = {}
_tag_locks: dict[str, threading.Lock] = {}


def cache_dir() -> Path:
    """On-disk cache location (override with ``SNOWFLAKE_CACHE_DIR``)."""
    root = os.environ.get("SNOWFLAKE_CACHE_DIR")
    if root:
        p = Path(root)
    else:
        p = Path(tempfile.gettempdir()) / "snowflake-jit-cache"
    p.mkdir(parents=True, exist_ok=True)
    return p


def default_cc_timeout() -> float | None:
    """Hard compiler timeout in seconds (``SNOWFLAKE_CC_TIMEOUT``;
    ``<= 0`` disables; default 300)."""
    raw = os.environ.get("SNOWFLAKE_CC_TIMEOUT", "").strip()
    if not raw:
        return 300.0
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(
            f"SNOWFLAKE_CC_TIMEOUT must be a number of seconds, "
            f"got {raw!r}"
        ) from None
    return None if val <= 0 else val


def clear_disk_cache() -> int:
    """Delete cached artifacts — sources, shared objects, quarantined
    ``*.so.bad`` and orphaned temporaries — returning the number of
    files *actually* deleted (a concurrent sweeper's work is not
    double-counted)."""
    n = 0
    for f in cache_dir().glob("sf_*"):
        try:
            f.unlink()
            n += 1
        except FileNotFoundError:
            pass  # lost a race with another process: not our deletion
    return n


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        return True  # exists but owned elsewhere / unprobeable: keep
    return True


def sweep_orphans() -> int:
    """Remove ``sf_*.tmp.c`` / ``sf_*.tmp.so`` temporaries whose owning
    process is gone (crashed mid-compile); returns the number removed.
    Temporaries of live processes — including this one — are left
    alone."""
    n = 0
    d = cache_dir()
    for f in [*d.glob("sf_*.tmp.c"), *d.glob("sf_*.tmp.so")]:
        parts = f.name.split(".")  # sf_<tag> . <pid> . tmp . c|so
        try:
            pid = int(parts[-3]) if len(parts) >= 4 else -1
        except ValueError:
            pid = -1
        if pid > 0 and _pid_alive(pid):
            continue
        try:
            f.unlink()
            n += 1
        except FileNotFoundError:
            pass
    if n:
        telemetry.count("jit.orphans_swept", n)
    return n


def _cc() -> str:
    return os.environ.get("SNOWFLAKE_CC", "gcc")


def _tag(
    source: str,
    openmp: bool = False,
    extra_flags: tuple[str, ...] = (),
) -> str:
    """Cache key: source text + everything that changes the binary."""
    return hashlib.sha256(
        source.encode() + repr((openmp, extra_flags, _cc())).encode()
    ).hexdigest()[:24]


def source_tag(
    source: str,
    openmp: bool = False,
    extra_flags: tuple[str, ...] = (),
) -> str:
    """The cache key :func:`compile_and_load` would use for ``source``.

    Public so provenance reports (:mod:`repro.explain`) can name the
    exact cached artifact (``sf_<tag>.c`` / ``sf_<tag>.so`` under
    :func:`cache_dir`) without compiling anything.
    """
    return _tag(source, openmp, extra_flags)


def _quarantine(so_path: Path) -> Path:
    """Move a bad artifact out of the compile path; never raises."""
    bad = so_path.with_name(so_path.name + ".bad")
    try:
        os.replace(so_path, bad)
        return bad
    except OSError:
        try:
            so_path.unlink(missing_ok=True)
        except OSError:
            pass
        return so_path


def _load(so_path: Path) -> ctypes.CDLL:
    if fault_point("jit.load"):
        raise OSError(f"injected fault: dlopen {so_path.name}")
    return ctypes.CDLL(str(so_path))


def _build(
    tag: str,
    source: str,
    d: Path,
    so_path: Path,
    openmp: bool,
    extra_flags: tuple[str, ...],
    timeout: float | None,
) -> None:
    """Compile ``source`` and atomically publish ``so_path``.

    The source is published the same way: a second process building the
    same tag replaces ``sf_<tag>.c`` with a new file rather than
    rewriting the one this process's compiler may be reading."""
    c_path = d / f"sf_{tag}.c"
    tmp_c = d / f"sf_{tag}.{os.getpid()}.tmp.c"
    tmp_c.write_text(source)
    os.replace(tmp_c, c_path)
    cmd = [_cc(), *_DEFAULT_FLAGS]
    if openmp:
        cmd.append("-fopenmp")
    cmd += list(extra_flags)
    tmp_so = d / f"sf_{tag}.{os.getpid()}.tmp.so"
    cmd += [str(c_path), "-o", str(tmp_so), "-lm"]
    if timeout is None:
        timeout = default_cc_timeout()
    if fault_point("jit.spawn"):
        raise CompileError(f"injected fault: compiler spawn ({cmd[0]})")
    t0 = time.perf_counter()
    try:
        with tracing.span("cc", cat="jit", tag=tag, cc=cmd[0], openmp=openmp):
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=timeout
            )
    except subprocess.TimeoutExpired:
        tmp_so.unlink(missing_ok=True)
        telemetry.count("jit.cc.timeouts")
        raise CompileTimeout(
            f"compiler exceeded the {timeout:.0f}s hard timeout: "
            f"{' '.join(cmd)}"
        ) from None
    telemetry.observe("jit.cc", time.perf_counter() - t0)
    telemetry.event("jit.cc", tag=tag, rc=proc.returncode)
    if proc.returncode != 0:
        tmp_so.unlink(missing_ok=True)
        raise CompileError(
            f"compiler failed ({' '.join(cmd)}):\n{proc.stderr}\n"
            f"source kept at {c_path}"
        )
    if fault_point("jit.cache.write"):
        tmp_so.unlink(missing_ok=True)
        raise OSError("injected fault: cache write failed")
    os.replace(tmp_so, so_path)  # atomic publish for concurrent procs


def _materialize(
    tag: str,
    source: str,
    openmp: bool,
    extra_flags: tuple[str, ...],
    timeout: float | None,
) -> ctypes.CDLL:
    d = cache_dir()
    so_path = d / f"sf_{tag}.so"
    if so_path.exists():
        if fault_point("jit.cache.read"):
            # the injected failure mode is on-disk corruption of the
            # cached artifact — exercised end-to-end through dlopen.
            # Replaced via a new inode: dlopen caches handles by
            # dev/inode, so an in-place overwrite of an already-mapped
            # artifact would be silently served from the old mapping.
            corrupt = so_path.with_name(so_path.name + ".corrupt")
            corrupt.write_bytes(b"\x7fELF injected corruption")
            os.replace(corrupt, so_path)
        try:
            lib = _load(so_path)
            telemetry.count("jit.cache.hit.disk")
            return lib
        except OSError as e:
            bad = _quarantine(so_path)
            telemetry.count("jit.quarantine")
            telemetry.event("jit.quarantine", artifact=so_path.name)
            warnings.warn(
                ResilienceWarning(
                    f"cached artifact {so_path.name} failed to load "
                    f"({e}); quarantined as {bad.name}, recompiling"
                ),
                stacklevel=3,
            )
    telemetry.count("jit.cache.miss")
    _build(tag, source, d, so_path, openmp, extra_flags, timeout)
    return _load(so_path)


def compile_and_load(
    source: str,
    *,
    openmp: bool = False,
    extra_flags: tuple[str, ...] = (),
    timeout: float | None = None,
) -> ctypes.CDLL:
    """Compile C ``source`` to a shared object and dlopen it (cached).

    Serialized per source tag: concurrent callers compiling *different*
    stencils proceed in parallel; callers racing on the *same* stencil
    share one compile."""
    tag = _tag(source, openmp, extra_flags)
    with _lock:
        lib = _loaded.get(tag)
        if lib is not None:
            telemetry.count("jit.cache.hit.memory")
            return lib
        tag_lock = _tag_locks.setdefault(tag, threading.Lock())
    t0 = time.perf_counter()
    with tracing.span("compile_and_load", cat="jit", tag=tag, openmp=openmp):
        with tag_lock:
            telemetry.observe("jit.lock_wait", time.perf_counter() - t0)
            with _lock:
                lib = _loaded.get(tag)
                if lib is not None:
                    telemetry.count("jit.cache.hit.memory")
                    return lib
            lib = _materialize(tag, source, openmp, extra_flags, timeout)
            with _lock:
                _loaded[tag] = lib
    return lib
