"""HPGMG operators expressed in the Snowflake DSL (paper SectionV).

Every operator the multigrid solver needs — constant- and variable-
coefficient 7-point (2d+1-point) Laplacians, Jacobi / GSRB smoothers,
residual, full-weighting restriction, piecewise-constant and
piecewise-linear interpolation, and Dirichlet boundary stencils — is
built from ``Component``/``WeightArray``/``RectDomain`` exactly as the
paper's Fig.4 builds its complex smoother.  No operator here is
hand-coded; the hand-coded comparators live in :mod:`repro.baselines`.

Grid convention (HPGMG-style, cell-centered): arrays carry a one-cell
ghost halo, so a level with ``n`` interior cells per dimension stores
``(n+2)**d`` values and the interior is ``[1, n+1)`` per dim.  The mesh
spacing is ``h = 1/n``.

Homogeneous Dirichlet boundaries are *linear* ghost-cell conditions:
``ghost = -interior_neighbour``, so the value on the cell face is zero
(paper SectionII-B).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..core.components import Component
from ..core.domains import DomainUnion, RectDomain
from ..core.expr import Constant, Expr, GridRead
from ..core.stencil import OutputMap, Stencil, StencilGroup
from ..core.weights import SparseArray

__all__ = [
    "interior",
    "face_domain",
    "red_black_domains",
    "cc_laplacian",
    "vc_laplacian",
    "cc_diagonal",
    "residual_stencil",
    "jacobi_stencil",
    "gsrb_stencils",
    "boundary_stencils",
    "boundary_stencils_full",
    "periodic_boundary_stencils",
    "smooth_group",
    "residual_group",
    "restriction_stencil",
    "interpolation_pc_group",
    "interpolation_linear_group",
]


def _unit(ndim: int, d: int, sign: int = 1) -> tuple[int, ...]:
    off = [0] * ndim
    off[d] = sign
    return tuple(off)


def interior(ndim: int) -> RectDomain:
    """Interior of a one-ghost-cell grid: ``[1, -1)`` per dim."""
    return RectDomain.interior(ndim, ghost=1)


def face_domain(ndim: int, dim: int, side: int) -> RectDomain:
    """The ghost face of dimension ``dim`` (side -1 = low, +1 = high),
    spanning interior coordinates in every other dimension."""
    start = [1] * ndim
    end = [-1] * ndim
    stride = [1] * ndim
    start[dim] = 0 if side < 0 else -1
    end[dim] = 1 if side < 0 else -1  # ignored: dim is pinned
    stride[dim] = 0
    return RectDomain(tuple(start), tuple(end), tuple(stride))


def red_black_domains(ndim: int) -> tuple[DomainUnion, DomainUnion]:
    """Checkerboard (red, black) over the interior; red owns (1,..,1)."""
    return (
        RectDomain.colored(ndim, parity=0, ghost=1),
        RectDomain.colored(ndim, parity=1, ghost=1),
    )


# ---------------------------------------------------------------------------
# operator bodies (expressions)
# ---------------------------------------------------------------------------


def _lam_expr(ndim: int, lam: "float | str | Expr") -> Expr:
    """``lam`` as an expression: a constant, a grid read at the centre
    (a name), or an expression (e.g. a runtime :class:`Param`)."""
    if isinstance(lam, Expr):
        return lam
    if isinstance(lam, str):
        return Component(lam, SparseArray({(0,) * ndim: 1.0}))
    return Constant(float(lam))


def cc_laplacian(
    ndim: int, h: float, grid: str = "x", *, inv_h2: "Expr | None" = None
) -> Expr:
    """Constant-coefficient (2d+1)-point Laplacian ``A = -∇² / h²``.

    Sign convention matches HPGMG: ``A`` is positive definite, i.e.
    ``(A x)_i = (2d x_i - sum of neighbours) / h²``.  ``inv_h2`` stands
    in for the constant ``1/h²`` (``h`` is then unused): with a
    :class:`~repro.core.expr.Param` the operator is the same kernel at
    every mesh spacing.
    """
    if inv_h2 is None:
        s = 1.0 / (h * h)
        center, side = 2.0 * ndim * s, -s
    else:
        center, side = Constant(2.0 * ndim) * inv_h2, -inv_h2
    entries: dict[tuple[int, ...], "float | Expr"] = {(0,) * ndim: center}
    for d in range(ndim):
        entries[_unit(ndim, d, +1)] = side
        entries[_unit(ndim, d, -1)] = side
    return Component(grid, SparseArray(entries))


def vc_laplacian(
    ndim: int,
    h: float,
    grid: str = "x",
    beta_prefix: str = "beta_",
    a: float = 0.0,
    alpha_grid: str | None = None,
    b: float = 1.0,
    *,
    inv_h2: "Expr | None" = None,
) -> Expr:
    """Variable-coefficient operator ``A x = a·α·x - b·∇·(β ∇x)``.

    Face-centered coefficients: ``beta_d[i]`` is the coefficient on the
    *low* face of cell ``i`` in dimension ``d``, so the flux through the
    high face of cell ``i`` uses ``beta_d[i + e_d]``.  The β reads are
    nested *inside* the weight array of the ``x`` component — the exact
    construction of the paper's Fig.4 (lines1-5).  ``inv_h2`` stands in
    for ``1/h²`` as in :func:`cc_laplacian`.
    """
    if inv_h2 is None:
        s = b / (h * h)
        w, neg_w = Constant(s), Constant(-s)
    else:
        w = inv_h2 if b == 1.0 else Constant(b) * inv_h2
        neg_w = -w
    center = (0,) * ndim
    entries: dict[tuple[int, ...], Expr] = {}
    diag_terms: list[Expr] = []
    for d in range(ndim):
        lo_face = Component(f"{beta_prefix}{d}", SparseArray({center: 1.0}))
        hi_face = Component(f"{beta_prefix}{d}", SparseArray({_unit(ndim, d): 1.0}))
        # Weight expressions are evaluated at the shifted point, so the
        # -e_d weight reads hi_face there: beta_d[(i-e_d)+e_d] = beta_d[i],
        # the low face of cell i; the +e_d weight reads lo_face there:
        # beta_d[i+e_d], the high face of cell i.
        entries[_unit(ndim, d, -1)] = neg_w * hi_face
        entries[_unit(ndim, d, +1)] = neg_w * lo_face
        diag_terms.append(lo_face + hi_face)
    diag: Expr = diag_terms[0]
    for t in diag_terms[1:]:
        diag = diag + t
    entries[center] = w * diag
    Ax: Expr = Component(grid, SparseArray(entries))
    if a != 0.0:
        if alpha_grid is None:
            raise ValueError("a != 0 requires an alpha grid")
        Ax = (
            Constant(a)
            * Component(alpha_grid, SparseArray({center: 1.0}))
            * Component(grid, SparseArray({center: 1.0}))
            + Ax
        )
    return Ax


def cc_diagonal(ndim: int, h: float) -> float:
    """Diagonal entry of the constant-coefficient operator."""
    return 2.0 * ndim / (h * h)


def residual_stencil(
    ndim: int, Ax: Expr, rhs: str = "rhs", out: str = "res"
) -> Stencil:
    """``res = rhs - A x`` over the interior — the paper's ``b - Ax``."""
    b = Component(rhs, SparseArray({(0,) * ndim: 1.0}))
    return Stencil(b - Ax, out, interior(ndim), name=f"residual_{out}")


def jacobi_stencil(
    ndim: int,
    Ax: Expr,
    *,
    grid: str = "x",
    out: str = "tmp",
    rhs: str = "rhs",
    lam: "float | str | Expr" = 0.0,
    weight: float = 2.0 / 3.0,
) -> Stencil:
    """Weighted Jacobi: ``out = x + w·λ·(rhs - A x)`` (paper SectionV-A).

    ``lam`` is the constant ``1/diag(A)``, an expression for it (a
    runtime param), or the name of a precomputed ``1/diag`` grid for
    variable-coefficient operators.
    Out-of-place (ping-pong) by default; pass ``out=grid`` for the
    in-place variant (the analysis will detect the hazard and backends
    will restore gather semantics with a snapshot).
    """
    center = (0,) * ndim
    x = Component(grid, SparseArray({center: 1.0}))
    b = Component(rhs, SparseArray({center: 1.0}))
    body = x + Constant(weight) * _lam_expr(ndim, lam) * (b - Ax)
    return Stencil(body, out, interior(ndim), name=f"jacobi_{out}")


def gsrb_stencils(
    ndim: int,
    Ax: Expr,
    *,
    grid: str = "x",
    rhs: str = "rhs",
    lam: "float | str | Expr",
) -> tuple[Stencil, Stencil]:
    """Gauss-Seidel red-black: two in-place colored half-sweeps.

    Each is ``x += λ·(rhs - A x)`` over one checkerboard color — the
    full-weight (ω = 1) update.  In-place is legal because a color only
    reads the opposite color plus its own old centre value, which the
    Diophantine analysis proves hazard-free.
    """
    center = (0,) * ndim
    x = Component(grid, SparseArray({center: 1.0}))
    b = Component(rhs, SparseArray({center: 1.0}))
    body = x + _lam_expr(ndim, lam) * (b - Ax)
    red, black = red_black_domains(ndim)
    return (
        Stencil(body, grid, red, name="gsrb_red"),
        Stencil(body, grid, black, name="gsrb_black"),
    )


def boundary_stencils(ndim: int, grid: str = "x") -> list[Stencil]:
    """Homogeneous Dirichlet ghost update: ``ghost = -inner`` per face.

    2·ndim stencils, each an in-place asymmetric single-point stencil
    over a pinned face domain (paper Fig.3c / SectionII-B).  Faces only:
    a (2d+1)-point operator never reads edge or corner ghosts.
    """
    out = []
    for d in range(ndim):
        for side in (-1, +1):
            read = GridRead(grid, _unit(ndim, d, -side))
            name = f"bc_{grid}_d{d}{'lo' if side < 0 else 'hi'}"
            out.append(
                Stencil(
                    Constant(-1.0) * read,
                    grid,
                    face_domain(ndim, d, side),
                    name=name,
                )
            )
    return out


def periodic_boundary_stencils(
    ndim: int, n: int, grid: str = "x"
) -> list[Stencil]:
    """Periodic ghost update for an ``n``-interior grid.

    ``ghost[0] = x[n]`` and ``ghost[n+1] = x[1]`` per dimension — the
    *large-offset* stencils the paper calls out as one of the ways
    boundary conditions appear (SectionII-A item3): the read sits a
    whole grid length away from the write, something offset-limited
    frameworks cannot express.  Shape-specific by construction (the
    wrap-around offset is the interior size).
    """
    out = []
    for d in range(ndim):
        for side in (-1, +1):
            # low ghost copies the last interior cell; high the first:
            # the wrap-around read points back *into* the grid.
            read = GridRead(grid, _unit(ndim, d, -side * n))
            name = f"pbc_{grid}_d{d}{'lo' if side < 0 else 'hi'}"
            out.append(
                Stencil(read, grid, face_domain(ndim, d, side), name=name)
            )
    return out


def boundary_stencils_full(ndim: int, grid: str = "x") -> list[Stencil]:
    """Dirichlet ghosts on faces, edges, *and* corners.

    Operators that read diagonal neighbours (compact 9/27-point,
    higher-order cross terms) consume edge/corner ghosts that the
    face-only stencils never touch.  The standard construction sets a
    ghost with ``k`` out-of-range dimensions by reflecting through a
    ghost with ``k-1`` — e.g. corner ``(0,0) = -ghost(0,1)`` — so the
    stencils for deeper ghosts *depend on* the shallower ones, an
    ordering the dependence analysis derives rather than assumes.
    """
    import itertools as _it

    out: list[Stencil] = list(boundary_stencils(ndim, grid))
    for k in range(2, ndim + 1):
        for dims in _it.combinations(range(ndim), k):
            for sides in _it.product((-1, +1), repeat=k):
                start = [1] * ndim
                end = [-1] * ndim
                stride = [1] * ndim
                for d, side in zip(dims, sides):
                    start[d] = 0 if side < 0 else -1
                    stride[d] = 0
                # reflect through the last ghosted dimension
                d_ref, s_ref = dims[-1], sides[-1]
                read = GridRead(grid, _unit(ndim, d_ref, -s_ref))
                name = (
                    f"bc_{grid}_"
                    + "".join(
                        f"d{d}{'lo' if s < 0 else 'hi'}"
                        for d, s in zip(dims, sides)
                    )
                )
                out.append(
                    Stencil(
                        Constant(-1.0) * read,
                        grid,
                        RectDomain(tuple(start), tuple(end), tuple(stride)),
                        name=name,
                    )
                )
    return out


def smooth_group(
    ndim: int,
    Ax: Expr,
    *,
    grid: str = "x",
    rhs: str = "rhs",
    lam: "float | str | Expr",
    n_smooths: int = 1,
) -> StencilGroup:
    """One (or more) full GSRB smooths with interspersed boundaries.

    The paper's sequence per smooth: boundary / red / boundary / black —
    ghost cells must be refreshed before each half-sweep because the
    previous half-sweep changed the interior values they mirror.
    """
    stencils: list[Stencil] = []
    red, black = gsrb_stencils(ndim, Ax, grid=grid, rhs=rhs, lam=lam)
    for _ in range(n_smooths):
        stencils.extend(boundary_stencils(ndim, grid))
        stencils.append(red)
        stencils.extend(boundary_stencils(ndim, grid))
        stencils.append(black)
    return StencilGroup(stencils, name=f"gsrb_smooth_x{n_smooths}")


def residual_group(ndim: int, Ax: Expr, *, grid: str = "x") -> StencilGroup:
    """Boundary refresh followed by ``res = rhs - A x``."""
    stencils = boundary_stencils(ndim, grid)
    stencils.append(residual_stencil(ndim, Ax))
    return StencilGroup(stencils, name="residual")


# ---------------------------------------------------------------------------
# inter-grid transfer operators (the multiplicative-offset stencils SDSL
# cannot express — paper SectionVI)
# ---------------------------------------------------------------------------


def restriction_stencil(
    ndim: int, fine: str = "res", coarse: str = "coarse_rhs"
) -> Stencil:
    """Full-weighting (cell-averaging) restriction.

    Iterates over the *coarse* interior; coarse cell ``i`` (interior
    index ``i-1``) averages its ``2**d`` fine children at
    ``2i - 1 + {0,1}**d`` — a scale-2 read.
    """
    w = 1.0 / (2**ndim)
    entries = {
        tuple(c - 1 for c in child): w
        for child in itertools.product((0, 1), repeat=ndim)
    }
    body = Component(fine, SparseArray(entries), scale=2)
    return Stencil(body, coarse, interior(ndim), name="restrict")


def interpolation_pc_group(
    ndim: int, coarse: str = "coarse_x", fine: str = "x", *, add: bool = True
) -> StencilGroup:
    """Piecewise-constant interpolation (+= correction when ``add``).

    One stencil per child offset ``c in {0,1}**d``: iterating over the
    coarse interior, write ``fine[2i - 1 + c] (+)= coarse[i]`` — a
    scale-2 *output map*.  The in-place diagonal read uses the same
    affine map as the write, which the analysis recognizes as safe.
    """
    stencils = []
    center = (0,) * ndim
    for child in itertools.product((0, 1), repeat=ndim):
        off = tuple(c - 1 for c in child)
        om = OutputMap((2,) * ndim, off)
        body: Expr = Component(coarse, SparseArray({center: 1.0}))
        if add:
            body = body + GridRead(fine, off, (2,) * ndim)
        stencils.append(
            Stencil(
                body,
                fine,
                interior(ndim),
                output_map=om,
                iteration_grid=coarse,
                name=f"interp_pc_{''.join(map(str, child))}",
            )
        )
    return StencilGroup(stencils, name="interp_pc")


def interpolation_linear_group(
    ndim: int, coarse: str = "coarse_x", fine: str = "x", *, add: bool = True
) -> StencilGroup:
    """Piecewise-(tri)linear cell-centered interpolation.

    Child ``c`` of coarse cell ``i`` sits a quarter-cell toward
    neighbour ``i + (2c-1)``; per dimension the weights are 3/4 on the
    parent and 1/4 on that neighbour, tensored across dimensions.
    """
    stencils = []
    for child in itertools.product((0, 1), repeat=ndim):
        off = tuple(c - 1 for c in child)
        om = OutputMap((2,) * ndim, off)
        entries: dict[tuple[int, ...], float] = {}
        for picks in itertools.product((0, 1), repeat=ndim):
            # picks[d] == 0 -> parent (3/4); 1 -> neighbour (1/4)
            offset = tuple(
                (2 * c - 1) * p for c, p in zip(child, picks)
            )
            w = 1.0
            for p in picks:
                w *= 0.25 if p else 0.75
            entries[offset] = entries.get(offset, 0.0) + w
        body: Expr = Component(coarse, SparseArray(entries))
        if add:
            body = body + GridRead(fine, off, (2,) * ndim)
        stencils.append(
            Stencil(
                body,
                fine,
                interior(ndim),
                output_map=om,
                iteration_grid=coarse,
                name=f"interp_lin_{''.join(map(str, child))}",
            )
        )
    return StencilGroup(stencils, name="interp_linear")
