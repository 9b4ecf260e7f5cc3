"""Deterministic, site-addressed fault injection.

Production resilience is untestable without a way to *cause* the
failures it defends against.  This module compiles named fault sites
into the JIT/backend/communication hot paths; each site is a single
call to :func:`fault_point` that is inert (a dict lookup) unless armed.

Arming is deterministic and site-addressed — no randomness, no wall
clock — so a fault matrix replays identically on every run:

* programmatically, via :func:`arm` / :func:`disarm` or the
  :func:`inject` context manager::

      with inject("jit.spawn", times=1):
          kernel = stencil.compile(backend="c", fallback=("numpy",))

* from the environment, via ``SNOWFLAKE_FAULTS`` — a comma-separated
  list of ``site[:times][@after]`` specs (``times`` may be ``*`` for
  unlimited), e.g. ``SNOWFLAKE_FAULTS="jit.spawn:2,comm.send.drop@1"``.
  The variable is re-read lazily, so tests may monkeypatch it without
  re-importing anything.

A site fires in one of two modes:

* armed **with** an exception (``exc=...``): :func:`fault_point` raises
  it — used to simulate a *specific* failure type (e.g. a transient
  ``OSError`` from the compiler spawn);
* armed **without** one: :func:`fault_point` returns ``True`` and the
  instrumented code performs its natural failure (drop the message,
  corrupt the artifact, raise its domain error).

Counters (:func:`reached`, :func:`fired`) let the fault-matrix suite
assert that every site is actually exercised.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from .. import telemetry

__all__ = [
    "InjectedFault",
    "ResilienceWarning",
    "SITES",
    "register_site",
    "known_sites",
    "arm",
    "disarm",
    "inject",
    "fault_point",
    "active",
    "reached",
    "fired",
    "reset",
]


class InjectedFault(RuntimeError):
    """An armed fault site fired (the default injected failure)."""


class ResilienceWarning(UserWarning):
    """Base category for warnings emitted by the resilience layer."""


#: Built-in injection sites, compiled into the execution stack.
SITES: dict[str, str] = {
    "jit.spawn": "before the compiler subprocess is spawned",
    "jit.load": "before a shared object is dlopen'd",
    "jit.cache.read": "when a cached .so is about to be reused "
    "(firing corrupts the artifact on disk)",
    "jit.cache.write": "when a freshly built .so is published to the cache",
    "backend.specialize": "before a backend shape-specializes a group",
    "backend.invoke": "before a compiled kernel body executes",
    "comm.send.drop": "message silently lost on the send side",
    "comm.recv.drop": "matching message discarded at delivery",
    "comm.payload.corrupt": "in-flight message payload bit-flipped",
    "comm.msg.duplicate": "reliable-transport envelope delivered twice",
    "comm.msg.reorder": "reliable-transport envelope delayed past its "
    "successor (out-of-order delivery)",
    "comm.rank.crash": "a rank dies mid-sweep in the distributed executor",
}


@dataclass
class _Arm:
    remaining: int | None  # None = unlimited
    after: int  # skip this many hits before firing
    exc: BaseException | type[BaseException] | None
    source: str  # "manual" | "env"


_lock = threading.Lock()
_arms: dict[str, _Arm] = {}
_reached: Counter = Counter()
_fired: Counter = Counter()
_env_raw: str | None = None


def register_site(name: str, doc: str = "") -> str:
    """Register an extension fault site (idempotent); returns ``name``."""
    if not name:
        raise ValueError("fault site name must be non-empty")
    SITES.setdefault(name, doc)
    return name


def known_sites() -> dict[str, str]:
    """All registered sites and their one-line descriptions."""
    return dict(SITES)


def _check_site(site: str) -> None:
    if site not in SITES:
        raise ValueError(
            f"unknown fault site {site!r}; known sites: {sorted(SITES)}"
        )


def arm(
    site: str,
    *,
    times: int | None = 1,
    after: int = 0,
    exc: BaseException | type[BaseException] | None = None,
    _source: str = "manual",
) -> None:
    """Arm ``site`` to fire ``times`` times (``None`` = unlimited) after
    skipping the first ``after`` hits, raising ``exc`` if given."""
    _check_site(site)
    if times is not None and times < 1:
        raise ValueError("times must be >= 1 or None (unlimited)")
    if after < 0:
        raise ValueError("after must be >= 0")
    with _lock:
        _arms[site] = _Arm(times, after, exc, _source)


def disarm(site: str | None = None) -> None:
    """Disarm one site, or every site when called without arguments."""
    with _lock:
        if site is None:
            _arms.clear()
        else:
            _arms.pop(site, None)


@contextmanager
def inject(
    site: str,
    *,
    times: int | None = 1,
    after: int = 0,
    exc: BaseException | type[BaseException] | None = None,
):
    """Context manager: arm ``site`` on entry, restore its previous
    state on exit."""
    _check_site(site)
    with _lock:
        prev = _arms.get(site)
    arm(site, times=times, after=after, exc=exc)
    try:
        yield
    finally:
        with _lock:
            if prev is None:
                _arms.pop(site, None)
            else:
                _arms[site] = prev


def _parse_env_spec(spec: str) -> tuple[str, int | None, int]:
    """``site[:times][@after]`` -> (site, times, after)."""
    after = 0
    if "@" in spec:
        spec, raw = spec.rsplit("@", 1)
        after = int(raw)
    times: int | None = 1
    if ":" in spec:
        spec, raw = spec.rsplit(":", 1)
        times = None if raw == "*" else int(raw)
    return spec.strip(), times, after


def _sync_env_locked() -> None:
    global _env_raw
    raw = os.environ.get("SNOWFLAKE_FAULTS", "")
    if raw == _env_raw:
        return
    _env_raw = raw
    for site in [s for s, a in _arms.items() if a.source == "env"]:
        del _arms[site]
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        site, times, after = _parse_env_spec(part)
        _check_site(site)
        if site not in _arms:  # manual arms win over the environment
            _arms[site] = _Arm(times, after, None, "env")


def fault_point(site: str) -> bool:
    """The instrumented-code hook.

    Returns ``False`` (the overwhelmingly common case) when the site is
    not armed; returns ``True`` when an armed site fires without a
    custom exception; raises the armed exception otherwise.
    """
    _check_site(site)
    # Fast path: no env spec and nothing armed — one string compare,
    # one counter bump, no lock.
    if _env_raw == os.environ.get("SNOWFLAKE_FAULTS", "") and not _arms:
        _reached[site] += 1
        return False
    with _lock:
        _sync_env_locked()
        _reached[site] += 1
        a = _arms.get(site)
        if a is None:
            return False
        if a.after > 0:
            a.after -= 1
            return False
        if a.remaining is not None:
            if a.remaining <= 0:
                return False
            a.remaining -= 1
            if a.remaining == 0:
                del _arms[site]
        _fired[site] += 1
        exc = a.exc
    telemetry.count(f"faults.fired.{site}")
    telemetry.event("faults.fired", site=site)
    if exc is not None:
        raise exc if isinstance(exc, BaseException) else exc(
            f"injected fault at {site!r}"
        )
    return True


def active() -> dict[str, tuple[int | None, int]]:
    """Currently armed sites -> (remaining, after); env arms included."""
    with _lock:
        _sync_env_locked()
        return {s: (a.remaining, a.after) for s, a in _arms.items()}


def reached(site: str) -> int:
    """How many times execution passed through ``site``."""
    _check_site(site)
    return _reached[site]


def fired(site: str) -> int:
    """How many times ``site`` actually injected a fault."""
    _check_site(site)
    return _fired[site]


def reset() -> None:
    """Disarm everything and zero the counters (test isolation)."""
    global _env_raw
    with _lock:
        _arms.clear()
        _reached.clear()
        _fired.clear()
        _env_raw = None
