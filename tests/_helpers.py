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


def term_by_term_flops(stencil: Stencil) -> int:
    """Flops per point of ``stencil``'s flat sum lowered term by term
    (fold-left, no factoring) and optimized: the count factoring must
    never exceed."""
    from repro.kernel.cost import body_cost
    from repro.kernel.ir import KAdd, KConst, KernelBody
    from repro.kernel.lower import lower_term
    from repro.kernel.optimize import optimize_kernel

    terms = stencil.flat.terms
    expr = lower_term(terms[0]) if terms else KConst(0.0)
    for term in terms[1:]:
        expr = KAdd(expr, lower_term(term))
    body, _ = optimize_kernel(KernelBody(stencil.ndim, (), expr))
    return body_cost(body, stencil.output).flops_per_point


def eval_terms(
    stencil: Stencil,
    arrays: dict[str, np.ndarray],
    params: dict[str, float] | None = None,
) -> None:
    """Evaluate ``stencil``'s flat form term by term into
    ``arrays[stencil.output]``, with numpy and no kernel IR.

    Each term is ``coeff * params / denoms`` times its reads, and the
    terms are summed in flat order: the sum before the lowering factors
    it, so it is a value oracle for the factored body (equal up to
    rounding).  Reads see the grids as they were before the sweep.
    """
    from repro.backends.numpy_backend import lattice_slices
    from repro.core.validate import iteration_shape

    params = params or {}
    before = {g: a.copy() for g, a in arrays.items()}
    shapes = {g: a.shape for g, a in arrays.items()}
    om = stencil.output_map
    for rect in stencil.domain.resolve(iteration_shape(stencil, shapes)):
        if rect.is_empty():
            continue
        acc = np.zeros(rect.counts)
        for term in stencil.flat.terms:
            piece = term.coeff
            for p in term.params:
                piece *= params[p]
            for p in term.denom_params:
                piece /= params[p]
            for r in term.reads:
                piece = piece * before[r.grid][
                    lattice_slices(rect, r.scale, r.offset)
                ]
            acc = acc + piece
        arrays[stencil.output][lattice_slices(rect, om.scale, om.offset)] = acc


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
