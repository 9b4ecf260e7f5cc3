"""Shared helpers importable from any test module."""

from __future__ import annotations

import numpy as np

from repro.backends import base
from repro.core.stencil import Stencil, StencilGroup

#: every registered backend that must agree on every stencil
ALL_BACKENDS = ("python", "numpy", "c", "openmp", "opencl-sim", "cuda-sim")
#: fast subset for tests that only need one compiled target
COMPILED_BACKENDS = ("c", "openmp", "opencl-sim")


class RecordingBackend(base.Backend):
    """Compiles nothing; records the ``(group, shapes)`` units asked for."""

    name = "test-record"

    def __init__(self) -> None:
        self.units: list[tuple] = []

    def specializer(self, group, **options):
        raise NotImplementedError("records only")

    def compile(self, group, shapes=None, dtype=None, guards=None, **options):
        self.units.append((group, dict(shapes)))
        return lambda **kwargs: None


def owner_of(decomposition, global_row: int) -> int:
    """The rank whose slab of ``decomposition`` owns ``global_row``."""
    for s in decomposition.slabs:
        if s.own_lo <= global_row < s.own_hi:
            return s.rank
    raise IndexError(global_row)


def run_group(
    group: "StencilGroup | Stencil",
    arrays: dict[str, np.ndarray],
    params: dict[str, float] | None = None,
    backend: str = "numpy",
    **options,
) -> dict[str, np.ndarray]:
    """Deep-copy ``arrays``, run ``group`` on ``backend``, return copies."""
    if isinstance(group, Stencil):
        group = StencilGroup([group])
    work = {g: np.array(a, copy=True) for g, a in arrays.items()}
    kernel = group.compile(backend=backend, **options)
    kernel(**work, **(params or {}))
    return work


def assert_backends_agree(
    group: "StencilGroup | Stencil",
    arrays: dict[str, np.ndarray],
    params: dict[str, float] | None = None,
    backends=ALL_BACKENDS,
    rtol: float = 1e-12,
    atol: float = 1e-12,
    **options,
) -> dict[str, np.ndarray]:
    """Run on every backend and compare against the python reference."""
    ref = run_group(group, arrays, params, backend="python")
    for backend in backends:
        if backend == "python":
            continue
        got = run_group(group, arrays, params, backend=backend, **options)
        for g in ref:
            np.testing.assert_allclose(
                got[g], ref[g], rtol=rtol, atol=atol,
                err_msg=f"backend {backend!r} disagrees on grid {g!r}",
            )
    return ref
