"""Backend fallback chains and retry policy, for kernels and programs.

The paper's portability story ("every lowering path has a verified
correct fallback") becomes executable here: ``fallback=`` names an
ordered chain of micro-compilers, and one walk serves a kernel
(:class:`ResilientKernel`) and a program of several units
(:class:`ResilientProgram`) alike — retrying *transient* failures
(compiler timeout, spawn ``OSError``, lost cache write) in place,
:data:`MAX_RETRIES` times with exponential backoff from :data:`BACKOFF`,
and degrading to the next backend on *persistent* ones (codegen
``CompileError``, un-dlopen-able artifact, injected faults).  The
compiler's hard timeout is the deployment setting
``SNOWFLAKE_CC_TIMEOUT`` (:func:`repro.backends.jit.default_cc_timeout`).
A program is degraded as a whole: every link compiles all its units
(one shared object on the C family), and a failure of any of its
calls moves all of them to the next link.

Because every backend compiles the same canonical flat form, a
degraded kernel is slower but never wrong; the chain bottoms out at
``numpy``/``python``, which need no toolchain at all.  Degradation is
loud (one :class:`DegradedExecution` warning per kernel or program) and
queryable (``serving_backend``, ``degraded``, ``attempts``).

Entry points: ``Stencil.compile(..., fallback=("c", "numpy"))`` /
``StencilGroup.compile(..., fallback=...)``, and
:func:`compile_program`, the solver's one way to build.
"""

from __future__ import annotations

import warnings
from time import sleep
from typing import Callable, Mapping, NamedTuple, Sequence

from .. import telemetry
from ..backends.base import Program, Zero, bind_kernel, get_backend
from ..backends.jit import CompileError, CompileTimeout
from .faults import InjectedFault, ResilienceWarning

__all__ = [
    "DegradedExecution",
    "BackendChainError",
    "ResilientKernel",
    "ResilientProgram",
    "compile_program",
    "retry_call",
    "TRANSIENT_ERRORS",
    "FALLBACK_ERRORS",
]

#: Extra in-place attempts per backend for a transient failure.
MAX_RETRIES = 2
#: Seconds before the first retry; doubles for each one after.
BACKOFF = 0.05

#: Retried in place (same backend, bounded backoff) before degrading.
TRANSIENT_ERRORS = (CompileTimeout, OSError)

#: Advance the fallback chain.  User errors (TypeError/ValueError/
#: ValidationError from argument checking) are deliberately absent:
#: they propagate — no backend can fix a wrong call.
FALLBACK_ERRORS = (CompileError, OSError, InjectedFault)


def retry_call(
    fn: Callable,
    *,
    max_retries: int,
    backoff: float,
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
    lost message, kernels to emit telemetry.  A zero ``backoff`` never
    sleeps.
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
            if delay:
                sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover


class DegradedExecution(ResilienceWarning):
    """A kernel or program is being served by a fallback backend."""


class BackendChainError(RuntimeError):
    """Every backend in the fallback chain failed; carries the log."""

    def __init__(self, attempts: Sequence[tuple[str, str]]) -> None:
        self.attempts = list(attempts)
        lines = "\n".join(f"  {b}: {e}" for b, e in self.attempts)
        super().__init__(
            f"all {len(self.attempts)} backend(s) in the fallback chain "
            f"failed:\n{lines}"
        )


class _Chain:
    """An ordered backend chain, walked by one ``build(backend)`` closure
    that makes a link's artifact (a kernel or a program).

    * ``serving_backend`` — who actually served the last successful
      call (``None`` until one succeeds);
    * ``degraded`` — is the server not the primary backend;
    * ``attempts`` — ``[(backend, error), ...]`` log of failures.
    """

    def __init__(self, backend: str, fallback: Sequence[str],
                 build: Callable, label: str, eager: bool) -> None:
        self.chain: tuple[str, ...] = tuple(dict.fromkeys((backend, *fallback)))
        self.attempts: list[tuple[str, str]] = []
        self._make = build
        self._label = label
        self._eager = eager
        self._pos = 0
        self._built = None
        self.serving_backend: str | None = None
        self._warned = False
        if eager:
            # surface build failures (and the chain walk) now, like a
            # plain backend would
            self._ensure()

    @property
    def degraded(self) -> bool:
        serving = self.serving_backend
        return serving is not None and serving != self.chain[0]

    def _follow(self, make: Callable) -> Callable:
        """``make(artifact)`` as a callable that follows the chain: made
        now, made again on each new link before its next call, and a
        call failing with :data:`FALLBACK_ERRORS` advances the chain and
        is served again.  ``call.on(a)`` is what ``make`` made from ``a``."""
        source = made = None  # `made` was made from the artifact `source`

        def on(built):
            nonlocal source, made
            if source is not built:
                made = self._with_retries(lambda: make(built))
                source = built
            return made

        def call(**params) -> None:
            def run(built) -> None:
                fn = on(built)
                self._with_retries(lambda: fn(**params))

            self._mark_serving(self._on_serving(run))

        self._on_serving(on)
        call.on = on
        return call

    # -- chain machinery ------------------------------------------------------

    def _on_serving(self, fn: Callable) -> str:
        """Run ``fn(artifact)`` on the serving link, advancing the chain
        on :data:`FALLBACK_ERRORS`; returns the link serving after it."""
        while True:
            built, name = self._ensure()
            try:
                fn(built)
            except FALLBACK_ERRORS as e:
                self._fail(name, e)
                continue
            return self.chain[self._pos]

    def _current_name(self) -> str:
        if self._pos >= len(self.chain):
            telemetry.count("resilience.chain_exhausted")
            raise BackendChainError(self.attempts)
        return self.chain[self._pos]

    def _ensure(self):
        while self._built is None:
            name = self._current_name()
            be = get_backend(name)

            def build():
                with telemetry.tracing.span(
                    f"build:{name}", cat="resilience", group=self._label,
                ):
                    return self._make(be)
            try:
                self._built = self._with_retries(build)
            except FALLBACK_ERRORS as e:
                self._fail(name, e)
                continue
            if self._eager:
                # eager build already proved the backend works
                self._mark_serving(name)
        return self._built, self.chain[self._pos]

    def _with_retries(self, fn: Callable):
        """Run ``fn``, retrying transient failures in place.

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
                attempt=attempt + 1,
            )

        return retry_call(
            fn,
            max_retries=MAX_RETRIES,
            backoff=BACKOFF,
            give_up=lambda e: isinstance(e, FileNotFoundError),
            on_retry=on_retry,
        )

    def _fail(self, name: str, e: BaseException) -> None:
        self.attempts.append((name, f"{type(e).__name__}: {e}"))
        telemetry.count("resilience.fallback.advances")
        next_name = (
            self.chain[self._pos + 1]
            if self._pos + 1 < len(self.chain) else None
        )
        telemetry.event(
            "resilience.fallback",
            failed=name, error=type(e).__name__, next=next_name,
        )
        self._built = None
        self.serving_backend = None
        self._pos += 1
        self._current_name()  # raises BackendChainError when exhausted

    def _mark_serving(self, name: str) -> None:
        self.serving_backend = name
        if name != self.chain[0] and not self._warned:
            self._warned = True
            telemetry.count("resilience.fallback.activations")
            telemetry.event(
                "resilience.degraded",
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


class ResilientKernel(_Chain):
    """A kernel that walks a backend chain instead of dying.

    Behaves like the :class:`~repro.backends.base.CompiledKernel` it
    wraps — ``kernel(**grids, **params)``, or ``kernel.bind(**grids)``
    (plus any params to fix) once and ``bound(**params)`` in the loop —
    plus ``serving_backend``, ``degraded`` and ``attempts``.  With
    ``shapes`` the first link compiles now, else at the first call.
    """

    def __init__(self, group, backend: str, shapes: Mapping | None, dtype,
                 fallback: Sequence[str], options: Mapping | None = None) -> None:
        self.group = group
        options = dict(options or {})
        super().__init__(
            backend, fallback,
            # every link gets the same options: the built-in backends
            # share one vocabulary, so nothing (least of all
            # ``time_tile``) is dropped on the way down
            lambda be: be.compile(group, shapes=shapes, dtype=dtype, **options),
            getattr(group, "name", "?"), eager=shapes is not None,
        )

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
        return self._follow(lambda kernel: bind_kernel(kernel, kwargs))

    def __call__(self, **kwargs) -> None:
        self.bind(**kwargs)()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ResilientKernel(chain={self.chain}, "
            f"serving={self.serving_backend!r}, attempts={len(self.attempts)})"
        )


class ResilientProgram(_Chain):
    """``(group, shapes)`` units compiled by the ``compile_program`` of
    the first link that builds them all.  Shaped like the program it
    wraps (``kernels[i].bind(**args)``, :meth:`bind`), and everything
    bound from it follows the chain as one: a failure of any call moves
    the whole program to the next link, where each next call runs."""

    def __init__(self, units, backend: str, fallback: Sequence[str],
                 options: Mapping) -> None:
        units = list(units)
        super().__init__(
            backend, fallback,
            lambda be: be.compile_program(units, **options),
            options.get("name", "program"), eager=True,
        )
        self.kernels = tuple(_Unit(self, i) for i in range(len(units)))

    def bind(self, steps: Sequence[tuple[Callable, int]]) -> Callable:
        """The ``(callable, reps)`` steps, over ``Zero``s and bound units,
        as one callable.  With one shared object they are its own
        kernels and one call, so a failure before it moves the whole list
        on; on a step loop (:class:`~repro.backends.base.Program`) each
        step follows the chain itself, so none runs twice."""
        steps = list(steps)

        def make(prog):
            if isinstance(prog, Program):
                return prog.bind(steps)
            return prog.bind([
                (fn if isinstance(fn, Zero) else fn.on(prog), reps)
                for fn, reps in steps
            ])

        return self._follow(make)


class _Unit(NamedTuple):
    """Unit ``i`` of a :class:`ResilientProgram`, as a kernel."""

    program: ResilientProgram
    i: int

    def bind(self, **kwargs) -> Callable:
        return self.program._follow(
            lambda prog: bind_kernel(prog.kernels[self.i], kwargs)
        )


def compile_program(backend: str, units, *,
                    fallback: Sequence[str] | None = None, **options):
    """The ``(group, shapes)`` units as one program: the backend's own
    ``compile_program(units, **options)``, or with ``fallback`` (any
    sequence, ``()`` included) a :class:`ResilientProgram` over
    ``(backend, *fallback)``."""
    if fallback is None:
        return get_backend(backend).compile_program(units, **options)
    return ResilientProgram(units, backend, fallback, options)
