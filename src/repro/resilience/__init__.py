"""Resilient execution layer: fault injection, fallback, guards.

Three cooperating pieces (each importable on its own):

* :mod:`repro.resilience.faults` — deterministic, site-addressed fault
  injection compiled into the JIT, backend, and communication paths;
* :mod:`repro.resilience.policy` — ordered backend fallback chains with
  bounded retry/backoff (``Stencil.compile(..., fallback=("c", "numpy"))``);
  the compiler's hard timeout is ``SNOWFLAKE_CC_TIMEOUT``;
* :mod:`repro.resilience.guards` — opt-in runtime guards (NaN/Inf
  output scan, dtype/shape invariants, halo checksums) with
  off/warn/raise severities.

``python -m repro doctor`` runs the toolchain self-check and prints the
degradation report.

:mod:`.policy` is loaded lazily (PEP 562) because it imports the
backend registry; :mod:`.faults`/:mod:`.guards` stay dependency-light
so the JIT and comm layers can import them without cycles.
"""

from .faults import (
    InjectedFault,
    ResilienceWarning,
    arm,
    disarm,
    fault_point,
    inject,
    known_sites,
    reset,
)
from .guards import Guards, GuardViolation, GuardWarning

_POLICY_NAMES = frozenset(
    {
        "BackendChainError",
        "DegradedExecution",
        "ResilientKernel",
        "retry_call",
    }
)

__all__ = [
    "InjectedFault",
    "ResilienceWarning",
    "arm",
    "disarm",
    "fault_point",
    "inject",
    "known_sites",
    "reset",
    "Guards",
    "GuardViolation",
    "GuardWarning",
    *sorted(_POLICY_NAMES),
]


def __getattr__(name: str):
    if name in _POLICY_NAMES:
        from . import policy

        return getattr(policy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
