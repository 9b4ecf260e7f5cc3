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
  with ``-fopenmp`` / ``-lm`` added per backend request;
* a shared object may be built from several units (a solver program's
  kernel bodies and its walker): they compile to objects concurrently,
  largest first and at most one compiler process per usable CPU, and
  link once; one unit is one compiler run straight to the ``.so``.

Hardened for production use:

* compilation is serialized **per source tag**, not globally — threads
  building different stencils run their compiler subprocesses
  concurrently;
* every compiler subprocess runs in a session of its own under a hard
  wall-clock timeout (``SNOWFLAKE_CC_TIMEOUT`` seconds, default 300 —
  its one source), raising the retryable :class:`CompileTimeout`; a
  timeout or failure kills the whole process group (``cc1`` and ``as``
  too) of every compiler still running for that build;
* a cached ``.so`` that fails to ``dlopen`` (truncated by a crash, disk
  corruption) is **quarantined** (renamed ``*.so.bad``) and rebuilt from
  source transparently, with one :class:`ResilienceWarning`;
* sources and shared objects are both published by atomic rename
  from a per-process temporary, so a process rebuilding a tag never
  truncates a file another process's compiler is reading;
  ``sf_*.tmp.c`` / ``sf_*.tmp.o`` / ``sf_*.tmp.so`` temporaries left
  by crashed compiles are swept by :func:`sweep_orphans` (and
  ``python -m repro doctor``);
* the spawn/load/cache paths carry named fault-injection sites
  (``jit.spawn``, ``jit.load``, ``jit.cache.read``, ``jit.cache.write``
  — see :mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import signal
import subprocess
import tempfile
import threading
import time
import warnings
from pathlib import Path
from typing import Sequence

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
    ``<= 0`` disables; default 300; ``nan``/``inf`` are refused)."""
    raw = os.environ.get("SNOWFLAKE_CC_TIMEOUT", "").strip()
    if not raw:
        return 300.0
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise ValueError(
            f"SNOWFLAKE_CC_TIMEOUT must be a number of seconds, "
            f"got {raw!r}"
        )
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
    """Remove ``sf_*.tmp.c`` / ``sf_*.tmp.o`` / ``sf_*.tmp.so``
    temporaries whose owning process is gone (crashed mid-compile);
    returns the number removed.  Temporaries of live processes —
    including this one — are left alone."""
    n = 0
    d = cache_dir()
    for f in [*d.glob("sf_*.tmp.c"), *d.glob("sf_*.tmp.o"), *d.glob("sf_*.tmp.so")]:
        parts = f.name.split(".")  # sf_<tag> [. <unit>] . <pid> . tmp . c|o|so
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


def _units(source: str | Sequence[str]) -> tuple[str, ...]:
    return (source,) if isinstance(source, str) else tuple(source)


def _tag(source: str | Sequence[str], openmp: bool = False) -> str:
    """Cache key: the units' text, NUL-joined (so one unit is keyed by
    its text alone), + everything that changes the binary."""
    # the () stood for extra compiler flags; kept so every tag is unchanged
    return hashlib.sha256(
        "\0".join(_units(source)).encode()
        + repr((openmp, (), _cc())).encode()
    ).hexdigest()[:24]


def source_tag(source: str | Sequence[str], openmp: bool = False) -> str:
    """The cache key :func:`compile_and_load` would use for ``source``.

    Public so provenance reports (:mod:`repro.explain`) can name the
    exact cached artifact (``sf_<tag>.c`` / ``sf_<tag>.so`` under
    :func:`cache_dir`) without compiling anything.
    """
    return _tag(source, openmp)


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


def _jobs() -> int:
    """How many compiler processes may run at once: the CPUs this
    process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _kill(proc: subprocess.Popen) -> None:
    """Kill a compiler process together with everything it started: it
    leads a process group of its own (``cc1``, ``as``, ``collect2``)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_all(
    jobs: Sequence[tuple[list[str], Path]], timeout: float | None
) -> None:
    """Run compiler commands, ``jobs`` in order, at most :func:`_jobs`
    at a time, each in a session of its own and under ``timeout``.

    The first failure or timeout kills every command still running and
    starts no other, then raises: :class:`CompileTimeout`, or
    :class:`CompileError` naming the failing command's source file (the
    second item of its job)."""
    stop = False
    running: set[subprocess.Popen] = set()
    guard = threading.Lock()

    def run(cmd: list[str], source: Path) -> None:
        with guard:
            if stop:
                return
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, start_new_session=True,
            )
            running.add(proc)
        try:
            _, err = proc.communicate(timeout=timeout)
        except BaseException as e:  # a timeout, or an interrupt
            _kill(proc)
            proc.communicate()
            if not isinstance(e, subprocess.TimeoutExpired):
                raise
            raise CompileTimeout(
                f"compiler exceeded the {timeout:.0f}s hard timeout: "
                f"{' '.join(cmd)}"
            ) from None
        finally:
            with guard:
                running.discard(proc)
        if proc.returncode != 0:
            raise CompileError(
                f"compiler failed ({' '.join(cmd)}):\n{err}\n"
                f"source kept at {source}"
            )

    if len(jobs) == 1:
        run(*jobs[0])
        return
    # imported here: a process that never builds a program never pays for it
    from concurrent.futures import ThreadPoolExecutor, as_completed

    with ThreadPoolExecutor(max_workers=min(_jobs(), len(jobs))) as pool:
        futures = [pool.submit(run, *job) for job in jobs]
        try:
            for f in as_completed(futures):
                f.result()
        except BaseException:
            with guard:
                stop = True
                doomed = list(running)
            for proc in doomed:
                _kill(proc)
            raise


def _build(
    tag: str, sources: Sequence[str], d: Path, so_path: Path, openmp: bool
) -> None:
    """Compile the ``sources`` and atomically publish ``so_path``.

    One source is one compiler run straight to the shared object, its
    source kept as ``sf_<tag>.c``.  Several are compiled to objects by
    concurrent compiler processes, largest first, then linked once; unit
    ``j`` is kept as ``sf_<tag>.<j>.c``.  Sources are published the same
    way as the shared object: a second process building the same tag
    replaces a source with a new file rather than rewriting the one this
    process's compiler may be reading.  Every compiler process, units
    and link alike, runs under :func:`default_cc_timeout`."""
    pid = os.getpid()
    stems = (
        [f"sf_{tag}"] if len(sources) == 1
        else [f"sf_{tag}.{j}" for j in range(len(sources))]
    )
    c_paths = []
    for stem, text in zip(stems, sources):
        tmp_c = d / f"{stem}.{pid}.tmp.c"
        tmp_c.write_text(text)
        c_paths.append(d / f"{stem}.c")
        os.replace(tmp_c, c_paths[-1])
    head = [_cc(), *_DEFAULT_FLAGS]
    if openmp:
        head.append("-fopenmp")
    tmp_so = d / f"sf_{tag}.{pid}.tmp.so"
    if len(sources) > 1:
        objs = [d / f"{stem}.{pid}.tmp.o" for stem in stems]
        to_object = [h for h in head if h != "-shared"]
        compiles = [
            ([*to_object, "-c", str(c_paths[j]), "-o", str(objs[j])],
             c_paths[j])
            for j in sorted(range(len(sources)), key=lambda j: -len(sources[j]))
        ]
        link = [*head, *map(str, objs), "-o", str(tmp_so), "-lm"]
        stages = [compiles, [(link, d / f"sf_{tag}.*.c")]]
    else:
        objs = []
        cmd = [*head, str(c_paths[0]), "-o", str(tmp_so), "-lm"]
        stages = [[(cmd, c_paths[0])]]
    timeout = default_cc_timeout()
    if fault_point("jit.spawn"):
        raise CompileError(f"injected fault: compiler spawn ({head[0]})")
    t0 = time.perf_counter()
    try:
        with tracing.span(
            "cc", cat="jit", tag=tag, cc=head[0], openmp=openmp,
            units=len(sources),
        ):
            for jobs in stages:
                _run_all(jobs, timeout)
    except CompileError as e:
        tmp_so.unlink(missing_ok=True)
        if isinstance(e, CompileTimeout):
            telemetry.count("jit.cc.timeouts")
        else:
            telemetry.observe("jit.cc", time.perf_counter() - t0)
            telemetry.event("jit.cc", tag=tag, rc=1)
        raise
    finally:
        for o in objs:
            o.unlink(missing_ok=True)
    telemetry.observe("jit.cc", time.perf_counter() - t0)
    telemetry.event("jit.cc", tag=tag, rc=0)
    if fault_point("jit.cache.write"):
        tmp_so.unlink(missing_ok=True)
        raise OSError("injected fault: cache write failed")
    os.replace(tmp_so, so_path)  # atomic publish for concurrent procs


def _materialize(
    tag: str, sources: tuple[str, ...], openmp: bool
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
    _build(tag, sources, d, so_path, openmp)
    return _load(so_path)


def compile_and_load(
    source: str | Sequence[str], *, openmp: bool = False
) -> ctypes.CDLL:
    """Compile C ``source`` to a shared object and dlopen it (cached).

    ``source`` is one translation unit, or a sequence of units that
    together make one shared object: they compile concurrently, at most
    one compiler process per CPU this process may run on, and link
    once, under one tag.  One unit is one compiler run, exactly as a
    plain string.

    Serialized per source tag: concurrent callers compiling *different*
    stencils proceed in parallel; callers racing on the *same* stencil
    share one compile."""
    sources = _units(source)
    tag = _tag(sources, openmp)
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
            lib = _materialize(tag, sources, openmp)
            with _lock:
                _loaded[tag] = lib
    return lib
