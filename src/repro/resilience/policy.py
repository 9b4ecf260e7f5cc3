"""Backend fallback chains and retry policy for kernel compilation.

The paper's portability story ("every lowering path has a verified
correct fallback") becomes executable here: an :class:`ExecutionPolicy`
names an ordered chain of micro-compilers, and :class:`ResilientKernel`
walks it — retrying *transient* failures (compiler timeout, spawn
``OSError``, lost cache write) with bounded exponential backoff on the
same backend, and degrading to the next backend on *persistent* ones
(codegen ``CompileError``, un-dlopen-able artifact, injected faults).

Because every backend compiles the same canonical flat form, a
degraded kernel is slower but never wrong; the chain bottoms out at
``numpy``/``python``, which need no toolchain at all.  Degradation is
loud (one :class:`DegradedExecution` warning per kernel) and queryable
(``kernel.serving_backend``, ``kernel.attempts``).

Entry points: ``Stencil.compile(..., fallback=("c", "numpy"))`` /
``StencilGroup.compile(..., fallback=...)`` or :func:`compile_resilient`
directly.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from .. import telemetry
from ..backends.base import bind_kernel, get_backend
from ..backends.jit import CompileError, CompileTimeout
from .faults import InjectedFault, ResilienceWarning

__all__ = [
    "DegradedExecution",
    "BackendChainError",
    "ExecutionPolicy",
    "ResilientKernel",
    "compile_resilient",
    "retry_call",
    "TRANSIENT_ERRORS",
    "FALLBACK_ERRORS",
]

#: Retried in place (same backend, bounded backoff) before degrading.
TRANSIENT_ERRORS = (CompileTimeout, OSError)

#: Advance the fallback chain.  User errors (TypeError/ValueError/
#: ValidationError from argument checking) are deliberately absent:
#: they propagate — no backend can fix a wrong call.
FALLBACK_ERRORS = (CompileError, OSError, InjectedFault)


def retry_call(
    fn: Callable,
    *,
    max_retries: int = 2,
    backoff: float = 0.05,
    sleep: Callable[[float], None] = time.sleep,
    transient: tuple[type[BaseException], ...] = TRANSIENT_ERRORS,
    give_up: Callable[[BaseException], bool] | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
):
    """Run ``fn``, retrying ``transient`` failures with doubling backoff.

    The one retry loop shared by the resilience layer: backend
    compilation (:class:`ResilientKernel`) and halo retransmission
    (:class:`repro.dmem.transport.ReliableComm`) both drive it.
    ``give_up(e)`` short-circuits retries for errors that cannot heal
    (a missing compiler binary, a dead peer rank); ``on_retry(attempt,
    e)`` runs before each sleep — transports use it to re-send the
    lost message, kernels to emit telemetry.
    """
    delay = backoff
    for attempt in range(max_retries + 1):
        try:
            return fn()
        except transient as e:
            if (give_up is not None and give_up(e)) or attempt >= max_retries:
                raise
            if on_retry is not None:
                on_retry(attempt, e)
            telemetry.observe("resilience.retry.backoff", delay)
            sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover


class DegradedExecution(ResilienceWarning):
    """A kernel is being served by a fallback backend."""


class BackendChainError(RuntimeError):
    """Every backend in the fallback chain failed; carries the log."""

    def __init__(self, attempts: Sequence[tuple[str, str]]) -> None:
        self.attempts = list(attempts)
        lines = "\n".join(f"  {b}: {e}" for b, e in self.attempts)
        super().__init__(
            f"all {len(self.attempts)} backend(s) in the fallback chain "
            f"failed:\n{lines}"
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a kernel compiles and degrades.

    ``fallback`` — backends tried, in order, after the primary;
    ``max_retries`` — extra in-place attempts per backend for transient
    failures; ``backoff`` — initial sleep between retries, doubling each
    time (``sleep`` is injectable so tests stay instant);
    ``compile_timeout`` — hard wall-clock cap on each compiler
    subprocess, passed to toolchain backends as ``cc_timeout``.
    """

    fallback: tuple[str, ...] = ()
    max_retries: int = 2
    backoff: float = 0.05
    compile_timeout: float | None = None
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )

    def with_fallback(self, chain: Sequence[str]) -> "ExecutionPolicy":
        return replace(self, fallback=tuple(chain))


class ResilientKernel:
    """A kernel that walks a backend chain instead of dying.

    Behaves like the :class:`~repro.backends.base.CompiledKernel` it
    wraps — ``kernel(**grids, **params)``, or ``kernel.bind(**grids)``
    (plus any params to fix) once and ``bound(**params)`` in the loop —
    plus:

    * ``serving_backend`` — who actually served the last successful
      call (``None`` until one succeeds);
    * ``degraded`` — is the server not the primary backend;
    * ``attempts`` — ``[(backend, error), ...]`` log of failures.
    """

    def __init__(
        self,
        group,
        backend: str,
        shapes: Mapping[str, Sequence[int]] | None,
        dtype,
        policy: ExecutionPolicy,
        options: Mapping | None = None,
    ) -> None:
        chain: list[str] = []
        for name in (backend, *policy.fallback):
            if name not in chain:
                chain.append(name)
        self.group = group
        self.chain: tuple[str, ...] = tuple(chain)
        self.policy = policy
        self.attempts: list[tuple[str, str]] = []
        self._shapes = shapes
        self._dtype = dtype
        self._options = dict(options or {})
        self._pos = 0
        self._kernel = None
        self._serving: str | None = None
        self._warned = False
        if shapes is not None:
            # Eager shapes: surface compile failures (and the chain
            # walk) at construction, like a plain backend would.
            self._ensure_kernel()

    # -- public surface -------------------------------------------------------

    @property
    def serving_backend(self) -> str | None:
        return self._serving

    @property
    def degraded(self) -> bool:
        return self._serving is not None and self._serving != self.chain[0]

    def bind(self, **kwargs) -> Callable:
        """Bind the grids (and any params to fix) in ``kwargs`` on the
        serving backend; returns ``bound(**params)`` for the rest.

        The grids are checked now, against the call contract, which is
        the same on every link: a refusal raises here and never advances
        the chain, with or without a working toolchain.  When a bound
        call fails on the serving backend (or another caller has already
        moved the chain on), the same grids are bound again on the next
        backend and the call is served from it, with the usual
        ``attempts`` / ``serving_backend`` / ``degraded`` bookkeeping.
        Ownership is as for
        :meth:`~repro.backends.base.CompiledKernel.bind`.
        """
        source = bound = None  # `bound` was made from chain kernel `source`

        def rebind() -> str:
            """Make ``bound`` current; returns the serving backend's name."""
            nonlocal source, bound
            while True:
                kernel, name = self._ensure_kernel()
                if source is kernel:
                    return name
                try:
                    bound = self._with_retries(
                        lambda: bind_kernel(kernel, kwargs)
                    )
                except FALLBACK_ERRORS as e:
                    self._fail(name, e)
                    continue
                source = kernel

        def call(**params) -> None:
            while True:
                name = rebind()
                try:
                    self._with_retries(lambda: bound(**params))
                except FALLBACK_ERRORS as e:
                    self._fail(name, e)
                    continue
                self._mark_serving(name)
                return

        rebind()
        return call

    def __call__(self, **kwargs) -> None:
        self.bind(**kwargs)()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ResilientKernel(chain={self.chain}, "
            f"serving={self._serving!r}, attempts={len(self.attempts)})"
        )

    # -- chain machinery ------------------------------------------------------

    def _current_name(self) -> str:
        if self._pos >= len(self.chain):
            telemetry.count("resilience.chain_exhausted")
            raise BackendChainError(self.attempts)
        return self.chain[self._pos]

    def _options_for(self, name: str) -> dict:
        opts = dict(self._options)
        be = get_backend(name)
        if (
            self.policy.compile_timeout is not None
            and getattr(be, "requires_toolchain", False)
        ):
            opts.setdefault("cc_timeout", self.policy.compile_timeout)
        return opts

    def _build(self, name: str):
        be = get_backend(name)

        def make():
            with telemetry.tracing.span(
                f"build:{name}", cat="resilience",
                group=getattr(self.group, "name", "?"),
            ):
                # every link gets the same options: the built-in
                # backends share one vocabulary, so nothing (least of
                # all ``time_tile``) is dropped on the way down
                return be.compile(
                    self.group,
                    shapes=self._shapes,
                    dtype=self._dtype,
                    **self._options_for(name),
                )
        return self._with_retries(make)

    def _ensure_kernel(self):
        while self._kernel is None:
            name = self._current_name()
            try:
                self._kernel = self._build(name)
            except FALLBACK_ERRORS as e:
                self._fail(name, e)
                continue
            if self._shapes is not None:
                # eager compile already proved the backend works
                self._mark_serving(name)
        return self._kernel, self.chain[self._pos]

    def _with_retries(self, fn: Callable):
        """Run ``fn``, retrying transient failures per the policy.

        A missing compiler binary (``FileNotFoundError``) is OSError
        but not transient — it won't reappear between retries, so it
        degrades immediately instead of burning the retry budget.
        """

        def on_retry(attempt: int, e: BaseException) -> None:
            telemetry.count("resilience.retries")
            telemetry.event(
                "resilience.retry",
                backend=self.chain[self._pos],
                error=type(e).__name__,
            )
            telemetry.tracing.instant(
                "retry", cat="resilience",
                backend=self.chain[self._pos],
                error=type(e).__name__,
                attempt=attempt + 1,
            )

        return retry_call(
            fn,
            max_retries=self.policy.max_retries,
            backoff=self.policy.backoff,
            sleep=self.policy.sleep,
            give_up=lambda e: isinstance(e, FileNotFoundError),
            on_retry=on_retry,
        )

    def _fail(self, name: str, e: BaseException) -> None:
        self.attempts.append((name, f"{type(e).__name__}: {e}"))
        telemetry.count("resilience.fallback.advances")
        telemetry.event(
            "resilience.fallback",
            failed=name,
            error=type(e).__name__,
        )
        next_name = (
            self.chain[self._pos + 1]
            if self._pos + 1 < len(self.chain) else None
        )
        telemetry.tracing.instant(
            "fallback", cat="resilience",
            failed=name, error=type(e).__name__, next=next_name,
        )
        self._kernel = None
        self._serving = None
        self._pos += 1
        self._current_name()  # raises BackendChainError when exhausted

    def _mark_serving(self, name: str) -> None:
        self._serving = name
        if name != self.chain[0] and not self._warned:
            self._warned = True
            telemetry.count("resilience.fallback.activations")
            telemetry.event(
                "resilience.degraded",
                primary=self.chain[0], serving=name,
            )
            telemetry.tracing.instant(
                "degraded", cat="resilience",
                primary=self.chain[0], serving=name,
            )
            log = "; ".join(f"{b}: {e}" for b, e in self.attempts)
            warnings.warn(
                DegradedExecution(
                    f"backend {self.chain[0]!r} unavailable, serving "
                    f"from fallback {name!r} ({log})"
                ),
                stacklevel=3,
            )


def compile_resilient(
    group,
    backend: str = "numpy",
    shapes: Mapping[str, Sequence[int]] | None = None,
    dtype=None,
    policy: ExecutionPolicy | None = None,
    **options,
) -> ResilientKernel:
    """Compile ``group`` under a fallback policy (see module docs)."""
    return ResilientKernel(
        group, backend, shapes, dtype, policy or ExecutionPolicy(), options
    )
