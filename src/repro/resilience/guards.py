"""Opt-in runtime guards: cheap invariants checked around kernel calls.

A production solver would rather pay a scan than serve garbage.  The
:class:`Guards` config switches three families of checks between
``"off"`` (default — zero cost), ``"warn"`` (emit a
:class:`GuardWarning`), and ``"raise"`` (raise :class:`GuardViolation`):

* ``nonfinite`` — after a kernel call, scan every output grid for
  NaN/Inf and report the poisoned grid and element count;
* ``invariants`` — dtype and shape of every grid must survive the call
  unchanged (catches a backend scribbling over array metadata);
* ``halo_checksum`` — how loudly the reliable halo transport of
  :class:`~repro.dmem.executor.DistributedKernel` reports an envelope
  that fails its CRC32 on receipt (the ``comm.payload.corrupt`` fault
  site): healed silently by retransmission when ``off``, healed with a
  warning under ``warn``, fatal under ``raise``.

Guards attach per-kernel (``compile(..., guards=Guards(...))``) or
globally via ``SNOWFLAKE_GUARDS`` (``"warn"``, ``"raise"``, or a
per-check spec like ``"nonfinite=raise,halo_checksum=warn"``).
"""

from __future__ import annotations

import os
import warnings
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .. import telemetry

__all__ = [
    "Guards",
    "GuardViolation",
    "GuardWarning",
    "halo_crc",
]

_SEVERITIES = ("off", "warn", "raise")


class GuardViolation(RuntimeError):
    """A runtime guard configured as ``"raise"`` detected a violation."""


class GuardWarning(UserWarning):
    """A runtime guard configured as ``"warn"`` detected a violation."""


def halo_crc(arr: np.ndarray) -> int:
    """Deterministic payload fingerprint used by halo-checksum guards."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


@dataclass(frozen=True)
class Guards:
    """Severity per check family: ``"off"``, ``"warn"``, or ``"raise"``."""

    nonfinite: str = "off"
    invariants: str = "off"
    halo_checksum: str = "off"

    def __post_init__(self):
        for field in ("nonfinite", "invariants", "halo_checksum"):
            v = getattr(self, field)
            if v not in _SEVERITIES:
                raise ValueError(
                    f"guard {field!r} severity must be one of "
                    f"{_SEVERITIES}, got {v!r}"
                )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_env(cls) -> "Guards":
        """Build from ``SNOWFLAKE_GUARDS``; all-off when unset.

        ``SNOWFLAKE_GUARDS=warn`` (or ``raise``) switches every family;
        ``SNOWFLAKE_GUARDS=nonfinite=raise,invariants=warn`` is
        per-family.
        """
        raw = os.environ.get("SNOWFLAKE_GUARDS", "").strip()
        if not raw:
            return cls()
        if raw in _SEVERITIES:
            return cls(nonfinite=raw, invariants=raw, halo_checksum=raw)
        g = cls()
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad SNOWFLAKE_GUARDS entry {part!r}: expected "
                    "'check=severity' or a bare severity"
                )
            key, val = (s.strip() for s in part.split("=", 1))
            if key not in ("nonfinite", "invariants", "halo_checksum"):
                raise ValueError(f"unknown guard {key!r} in SNOWFLAKE_GUARDS")
            g = replace(g, **{key: val})
        return g

    def enabled(self) -> bool:
        """Any check switched on?"""
        return (
            self.nonfinite != "off"
            or self.invariants != "off"
            or self.halo_checksum != "off"
        )

    # -- reporting ------------------------------------------------------------

    def report(self, check: str, message: str) -> None:
        """Dispatch a violation of ``check`` per its severity."""
        severity = getattr(self, check)
        if severity == "off":
            return
        telemetry.count(f"guards.trip.{check}")
        telemetry.event("guards.trip", check=check, severity=severity)
        if severity == "warn":
            warnings.warn(GuardWarning(f"[{check}] {message}"), stacklevel=3)
            return
        raise GuardViolation(f"[{check}] {message}")

    # -- the checks -----------------------------------------------------------

    def scan_nonfinite(self, arrays, outputs) -> None:
        """NaN/Inf scan over the output grids of a finished call."""
        if self.nonfinite == "off":
            return
        for g in sorted(outputs):
            a = arrays.get(g)
            if a is None or a.dtype.kind not in "fc":
                continue
            bad = a.size - int(np.isfinite(a).sum())
            if bad:
                self.report(
                    "nonfinite",
                    f"output grid {g!r} contains {bad} non-finite "
                    f"value(s) after kernel call",
                )

    def snapshot_invariants(self, arrays) -> dict | None:
        """Capture (dtype, shape) per grid before a call; ``None`` if off."""
        if self.invariants == "off":
            return None
        return {g: (a.dtype, a.shape) for g, a in arrays.items()}

    def check_invariants(self, before: dict | None, arrays) -> None:
        """Compare post-call grid metadata against the snapshot."""
        if before is None:
            return
        for g, (dt, shape) in before.items():
            a = arrays.get(g)
            if a is None:
                continue
            if a.dtype != dt or a.shape != shape:
                self.report(
                    "invariants",
                    f"grid {g!r} changed across the call: "
                    f"dtype {dt}->{a.dtype}, shape {shape}->{a.shape}",
                )
