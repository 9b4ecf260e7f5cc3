"""Platform specifications (paper SectionV-A testbeds + the host).

The paper evaluates on an Intel Core i7-4765T (STREAM triad ~22.2GB/s)
and an NVIDIA K20c (Empirical Roofline Toolkit ~127GB/s).  Neither is
available here, so both are carried as :class:`MachineSpec` records
(deterministic inputs to the Roofline bounds and the tuner's
predictions); the host machine gets a spec of its own whose bandwidth
is *measured* with the modified STREAM benchmark (Fig.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "MachineSpec", "I7_4765T", "K20C", "host_spec", "PAPER_PLATFORMS",
    "l2_bytes",
]


@dataclass(frozen=True)
class MachineSpec:
    """What the Roofline model needs to know about a machine."""

    name: str
    kind: str  # "cpu" | "gpu"
    #: sustained read-dominated memory bandwidth, bytes/second
    stream_bw: float
    #: last-level cache capacity, bytes (working sets below this run at
    #: cache bandwidth, explaining the paper's 32^3 above-roofline point)
    cache_bytes: float
    #: effective bandwidth for cache-resident working sets, bytes/second
    cache_bw: float
    #: fixed cost per kernel launch, seconds (GPUs: host->device launch
    #: latency; CPUs: parallel-region/task overhead)
    launch_overhead: float

    def effective_bw(self, working_set_bytes: float) -> float:
        return self.cache_bw if working_set_bytes <= self.cache_bytes else self.stream_bw


#: The paper's CPU testbed (SectionV-A): 4-core 2.0GHz Haswell,
#: 22.2GB/s STREAM triad, 8MiB LLC.
I7_4765T = MachineSpec(
    name="Intel Core i7-4765T",
    kind="cpu",
    stream_bw=22.2e9,
    cache_bytes=8 * 2**20,
    cache_bw=80e9,
    launch_overhead=2e-6,
)

#: The paper's GPU testbed: Kepler K20c, ~127GB/s per the Empirical
#: Roofline Toolkit, 1.25MiB L2.  The per-kernel overhead is an
#: *effective* figure (launch + per-operation synchronization + coarse
#: level host coordination), not the raw launch latency (~8µs).
K20C = MachineSpec(
    name="NVIDIA K20c",
    kind="gpu",
    stream_bw=127e9,
    cache_bytes=1.25 * 2**20,
    cache_bw=180e9,
    launch_overhead=6e-5,
)

PAPER_PLATFORMS = {"cpu": I7_4765T, "gpu": K20C}

_HOST_CACHE: MachineSpec | None = None


def host_spec() -> MachineSpec:
    """Spec for the machine we are running on.

    Bandwidth comes from the STREAM-dot measurement, taken once and
    cached for the process.
    """
    global _HOST_CACHE
    if _HOST_CACHE is not None:
        return _HOST_CACHE
    from .stream import stream_dot_bandwidth

    bw = stream_dot_bandwidth(n=2**22, repeats=3, flavor="c")
    _HOST_CACHE = MachineSpec(
        name="host",
        kind="cpu",
        stream_bw=bw,
        cache_bytes=16 * 2**20,
        cache_bw=3.0 * bw,
        launch_overhead=2e-6,
    )
    return _HOST_CACHE


#: where Linux lists cpu0's caches, one ``index*`` directory each
SYSFS_CACHES = Path("/sys/devices/system/cpu/cpu0/cache")
_L2: list[int | None] = []  # the one reading, once taken


def l2_bytes() -> int | None:
    """Per-core L2 capacity in bytes, as sysfs lists it for cpu0.

    Read once per process; ``None`` when sysfs has no level-2 data or
    unified cache entry.
    """
    if not _L2:
        found = None
        for d in sorted(SYSFS_CACHES.glob("index*")):
            try:
                level, kind, size = (
                    (d / f).read_text().strip()
                    for f in ("level", "type", "size")
                )
            except OSError:
                continue
            if level == "2" and kind in ("Unified", "Data"):
                mult = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
                found = int(size.rstrip("KMG")) * mult
        _L2.append(found)
    return _L2[0]
