"""Problem setup: manufactured solutions and right-hand sides.

For solver verification we use the *discrete* manufactured-solution
trick: pick a target field ``u*`` satisfying the homogeneous Dirichlet
boundary, then compute ``rhs = A_h u*`` with the same DSL-built discrete
operator the solver uses.  The exact discrete solution is then ``u*``
itself, so multigrid convergence can be measured against a known answer
with no discretization-error confound.
"""

from __future__ import annotations

import numpy as np

from ..core.stencil import StencilGroup
from .level import Level
from .operators import (
    boundary_stencils,
    cc_laplacian,
    vc_laplacian,
    residual_stencil,
)

__all__ = ["smooth_u_exact", "setup_problem", "operator_expr", "apply_operator"]


def smooth_u_exact(level: Level) -> np.ndarray:
    """``u*(x) = prod_d sin(pi x_d)`` at cell centers — zero on the boundary
    faces (up to discretization), smooth, and nontrivial in every dim."""
    pts = level.cell_centers()
    u = np.ones(level.shape, dtype=level.dtype)
    for d in range(level.ndim):
        u *= np.sin(np.pi * pts[..., d])
    out = np.zeros_like(u)
    out[level.interior] = u[level.interior]
    return out


def operator_expr(level: Level, grid: str = "x", *, inv_h2=None):
    """The level's discrete operator ``A`` as a Snowflake expression.

    By default ``1/h²`` is the level's constant; an expression for
    ``inv_h2`` (the solver passes ``Param("inv_h2")``) makes the
    operator the same stencil on every level of a hierarchy.
    """
    if level.coefficients == "constant":
        return cc_laplacian(level.ndim, level.h, grid=grid, inv_h2=inv_h2)
    return vc_laplacian(level.ndim, level.h, grid=grid, inv_h2=inv_h2)


def apply_operator(
    level: Level,
    u: np.ndarray,
    backend: str = "numpy",
    out: str = "res",
) -> np.ndarray:
    """Compute ``A_h u`` (with boundary ghost refresh) into grid ``out``.

    Returns the output array (owned by the level).  Uses the DSL end to
    end: BC stencils then ``0 - (-(A x))`` via the residual stencil with
    a zero rhs... more directly, we build ``res = rhs - A x`` with
    ``rhs = 0`` and negate.
    """
    ndim = level.ndim
    Ax = operator_expr(level)
    group = StencilGroup(
        boundary_stencils(ndim, "x") + [residual_stencil(ndim, Ax, out=out)],
        name="apply_A",
    )
    saved_x = level.grids["x"].copy()
    saved_rhs = level.grids["rhs"].copy()
    level.grids["x"][...] = u
    level.grids["rhs"].fill(0.0)
    kernel = group.compile(backend=backend)
    kernel(**{g: level.grids[g] for g in group.grids()})
    level.grids["x"][...] = saved_x
    level.grids["rhs"][...] = saved_rhs
    result = level.grids[out]
    np.negative(result, out=result)  # res = 0 - A u  ->  A u
    return result


def setup_problem(
    n: int,
    ndim: int = 3,
    *,
    coefficients: str = "constant",
    backend: str = "numpy",
    dtype=np.float64,
) -> tuple[Level, np.ndarray]:
    """Build the finest level with ``rhs = A_h u*`` and ``x = 0``.

    Returns ``(level, u_exact)``.
    """
    level = Level(n, ndim, coefficients=coefficients, dtype=dtype)
    u = smooth_u_exact(level)
    au = apply_operator(level, u, backend=backend)
    level.grids["rhs"][...] = au
    level.grids["res"].fill(0.0)
    level.zero("x", "tmp")
    return level, u
