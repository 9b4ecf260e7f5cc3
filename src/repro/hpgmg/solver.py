"""Geometric multigrid solver built entirely from Snowflake stencils.

The HPGMG-style driver of the paper's SectionV: V-cycles (and an FMG
F-cycle) over a hierarchy of levels, with GSRB (default), weighted
Jacobi, or Chebyshev-polynomial smoothing, DSL-generated residual,
restriction, interpolation, and boundary kernels, and a
smoother-iteration bottom solve.  Every flop of the solve runs through
a micro-compiler backend chosen at construction — switching between
``numpy``/``c``/``openmp``/``opencl-sim`` is a constructor argument, not
a code change (the paper's single-source performance portability).
"""

from __future__ import annotations

from typing import Callable

from ..backends import bind_kernel
from ..core.expr import Param
from ..core.stencil import StencilGroup
from ..util.timing import Timer
from .level import Level
from .operators import (
    boundary_stencils,
    cc_diagonal,
    interpolation_linear_group,
    interpolation_pc_group,
    jacobi_stencil,
    residual_group,
    restriction_stencil,
    smooth_group,
)
from .problem import operator_expr

__all__ = ["MultigridSolver"]


def _chebyshev_weights(
    degree: int = 2, lo: float = 0.3, hi: float = 2.0
) -> list[float]:
    """Inverse Chebyshev roots over ``[lo, hi]`` — the classic step sizes
    for a degree-``degree`` polynomial smoother on a diagonally scaled
    operator whose smoothing band is ``[lo, hi]`` (for D⁻¹A the full
    spectrum sits in (0, 2))."""
    import math

    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return [
        1.0 / (mid + rad * math.cos(math.pi * (2 * i + 1) / (2 * degree)))
        for i in range(degree)
    ]


class MultigridSolver:
    """V-cycle / F-cycle geometric multigrid on a level hierarchy.

    Parameters mirror the paper's experimental setup: ``n_pre`` /
    ``n_post`` GSRB smooths (2/2 in SectionV-A, i.e. 4 stencil sweeps
    each), restriction by cell averaging, correction interpolation
    (piecewise constant by default, linear available), and a
    fixed-iteration smoother bottom solve.
    """

    def __init__(
        self,
        fine: Level,
        *,
        backend: str = "numpy",
        smoother: str = "gsrb",
        n_pre: int = 2,
        n_post: int = 2,
        interpolation: str = "pc",
        min_coarse: int = 2,
        bottom_smooths: int = 32,
        backend_options: dict | None = None,
    ) -> None:
        if smoother not in ("gsrb", "jacobi", "chebyshev"):
            raise ValueError(f"unknown smoother {smoother!r}")
        if interpolation not in ("pc", "linear"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        self.backend = backend
        self.backend_options = dict(backend_options or {})
        self.smoother = smoother
        self.n_pre = n_pre
        self.n_post = n_post
        self.interpolation = interpolation
        self.bottom_smooths = bottom_smooths
        self.timers: dict[str, Timer] = {
            k: Timer()
            for k in ("smooth", "residual", "restrict", "interp", "bottom")
        }

        # -- hierarchy -----------------------------------------------------
        self.levels: list[Level] = [fine]
        n = fine.n
        while n % 2 == 0 and n // 2 >= min_coarse:
            n //= 2
            self.levels.append(
                Level(
                    n,
                    fine.ndim,
                    coefficients=fine.coefficients,
                    dtype=fine.dtype,
                )
            )

        # -- compiled kernels ------------------------------------------------
        # Smooth and residual read the level's 1/h² (and, for constant
        # coefficients, λ) as runtime params, bound per level below, so
        # each is one size-generic kernel for the whole hierarchy.
        self._smooth: list[Callable] = []
        self._residual: list[Callable] = []
        self._restrict: list[Callable] = []   # [k] : level k -> k+1
        self._interp: list[Callable] = []     # [k] : level k+1 -> k (add)
        # F-cycle only: built by the first f_cycle()
        self._interp_full: list[Callable] = []  # overwrite interp
        self._restrict_rhs: list[Callable] = []
        for level in self.levels:
            self._smooth.append(self._build_smoother(level))
            self._residual.append(self._build_residual(level))
        interp_builder = (
            interpolation_pc_group
            if self.interpolation == "pc"
            else interpolation_linear_group
        )
        for k in range(len(self.levels) - 1):
            fine_l, coarse_l = self.levels[k], self.levels[k + 1]
            self._restrict.append(
                self._compile_pair(
                    StencilGroup([restriction_stencil(fine_l.ndim)], "restrict"),
                    {"res": fine_l, "coarse_rhs": coarse_l},
                    {"res": "res", "coarse_rhs": "rhs"},
                )
            )
            self._interp.append(
                self._compile_pair(
                    StencilGroup(
                        boundary_stencils(fine_l.ndim, "coarse_x")
                        + list(interp_builder(fine_l.ndim, add=True)),
                        "interp",
                    ),
                    {"coarse_x": coarse_l, "x": fine_l},
                    {"coarse_x": "x", "x": "x"},
                )
            )

    def _build_fmg_kernels(self) -> None:
        """The F-cycle's rhs restriction and full interpolation, compiled
        on first use: a V-cycle-only solver never builds them."""
        for k in range(len(self.levels) - 1):
            fine_l, coarse_l = self.levels[k], self.levels[k + 1]
            self._restrict_rhs.append(
                self._compile_pair(
                    StencilGroup(
                        [restriction_stencil(fine_l.ndim, fine="rhs")],
                        "restrict_rhs",
                    ),
                    {"rhs": fine_l, "coarse_rhs": coarse_l},
                    {"rhs": "rhs", "coarse_rhs": "rhs"},
                )
            )
            self._interp_full.append(
                self._compile_pair(
                    StencilGroup(
                        boundary_stencils(fine_l.ndim, "coarse_x")
                        + list(
                            interpolation_linear_group(fine_l.ndim, add=False)
                        ),
                        "interp_full",
                    ),
                    {"coarse_x": coarse_l, "x": fine_l},
                    {"coarse_x": "x", "x": "x"},
                )
            )

    # -- kernel construction ---------------------------------------------------

    @staticmethod
    def _level_params(level: Level) -> dict[str, float]:
        """Values of the level-dependent scalars smooth and residual
        read: ``inv_h2`` = 1/h², and λ = 1/diag(A) when it is a
        constant (variable coefficients read the ``lam`` grid)."""
        params = {"inv_h2": 1.0 / (level.h * level.h)}
        if level.coefficients == "constant":
            params["lam"] = 1.0 / cc_diagonal(level.ndim, level.h)
        return params

    @staticmethod
    def _lam_of(level: Level):
        return Param("lam") if level.coefficients == "constant" else "lam"

    @staticmethod
    def _operator(level: Level, grid: str = "x"):
        return operator_expr(level, grid, inv_h2=Param("inv_h2"))

    def _compile(self, group: StencilGroup, level: Level) -> Callable:
        names = group.grids()
        used = group.params()
        return self._compile_pair(
            group, dict.fromkeys(names, level), {g: g for g in names},
            {p: v for p, v in self._level_params(level).items() if p in used},
        )

    def _compile_pair(
        self,
        group: StencilGroup,
        level_of: dict[str, Level],
        grid_of: dict[str, str],
        params: dict[str, float] | None = None,
    ) -> Callable:
        """Compile ``group`` and bind it to its level arrays (and the
        level's ``params``), so a cycle pays for argument checking and
        marshalling once, here.  The kernels run on these array objects
        for the solver's lifetime: fill them in place, never replace
        them."""
        names = group.grids()
        shapes = {g: level_of[g].shape for g in names}
        kernel = group.compile(
            backend=self.backend, shapes=shapes,
            dtype=self.levels[0].dtype, **self.backend_options,
        )
        grids = {g: level_of[g].grids[grid_of[g]] for g in names}
        return bind_kernel(kernel, {**grids, **(params or {})})

    def _build_smoother(self, level: Level) -> Callable:
        ndim = level.ndim
        Ax = self._operator(level)
        lam = self._lam_of(level)
        if self.smoother == "gsrb":
            group = smooth_group(ndim, Ax, lam=lam, n_smooths=1)
            return self._compile(group, level)
        if self.smoother == "jacobi":
            # One "smooth" = two weighted-Jacobi ping-pong applications so
            # the result lands back in x.
            bc_x = boundary_stencils(ndim, "x")
            bc_t = boundary_stencils(ndim, "tmp")
            Ax_t = self._operator(level, grid="tmp")
            fwd = jacobi_stencil(ndim, Ax, grid="x", out="tmp", lam=lam)
            bwd = jacobi_stencil(ndim, Ax_t, grid="tmp", out="x", lam=lam,
                                 rhs="rhs")
            group = StencilGroup(
                bc_x + [fwd] + bc_t + [bwd], name="jacobi_smooth"
            )
            return self._compile(group, level)
        # Chebyshev polynomial smoother: two Jacobi-like half-steps whose
        # step weights are runtime Params set to the inverse Chebyshev
        # roots over the (diagonally scaled) smoothing band — no
        # recompilation when the weights change.
        bc_x = boundary_stencils(ndim, "x")
        bc_t = boundary_stencils(ndim, "tmp")
        Ax_t = self._operator(level, grid="tmp")
        fwd = self._cheby_stencil(ndim, Ax, "x", "tmp", lam, "cheb_w0")
        bwd = self._cheby_stencil(ndim, Ax_t, "tmp", "x", lam, "cheb_w1")
        group = StencilGroup(bc_x + [fwd] + bc_t + [bwd], name="cheby_smooth")
        inner = self._compile(group, level)
        ws = _chebyshev_weights(degree=2)

        def run():
            inner(cheb_w0=ws[0], cheb_w1=ws[1])

        return run

    @staticmethod
    def _cheby_stencil(ndim, Ax, grid, out, lam, wname):
        from ..core.components import Component
        from ..core.stencil import Stencil
        from ..core.weights import SparseArray
        from .operators import _lam_expr, interior

        center = (0,) * ndim
        x = Component(grid, SparseArray({center: 1.0}))
        b = Component("rhs", SparseArray({center: 1.0}))
        body = x + Param(wname) * _lam_expr(ndim, lam) * (b - Ax)
        return Stencil(body, out, interior(ndim), name=f"cheby_{out}")

    # -- multigrid cycles --------------------------------------------------------

    def smooth(self, k: int, times: int = 1) -> None:
        with self.timers["smooth"]:
            for _ in range(times):
                self._smooth[k]()

    def residual(self, k: int) -> None:
        with self.timers["residual"]:
            self._residual[k]()

    def _build_residual(self, level: Level) -> Callable:
        group = residual_group(level.ndim, self._operator(level))
        return self._compile(group, level)

    def restrict_residual(self, k: int) -> None:
        with self.timers["restrict"]:
            self._restrict[k]()

    def interpolate_correction(self, k: int) -> None:
        with self.timers["interp"]:
            self._interp[k]()

    def bottom_solve(self) -> None:
        with self.timers["bottom"]:
            for _ in range(self.bottom_smooths):
                self._smooth[-1]()

    def v_cycle(self, k: int = 0) -> None:
        """Standard V(n_pre, n_post) cycle starting at level ``k``."""
        if k == len(self.levels) - 1:
            self.bottom_solve()
            return
        self.smooth(k, self.n_pre)
        self.residual(k)
        coarse = self.levels[k + 1]
        coarse.zero("x")
        self.restrict_residual(k)
        self.v_cycle(k + 1)
        self.interpolate_correction(k)
        self.smooth(k, self.n_post)

    def f_cycle(self) -> None:
        """Full multigrid (F-cycle): coarse-to-fine nested V-cycles."""
        if not self._restrict_rhs:
            self._build_fmg_kernels()
        # Push the rhs down the hierarchy.
        for k in range(len(self.levels) - 1):
            self._restrict_rhs[k]()
        for lvl in self.levels[1:]:
            lvl.zero("x")
        self.bottom_solve()
        for k in range(len(self.levels) - 2, -1, -1):
            # initial guess: full-weight interpolation of the coarse solve
            self._interp_full[k]()
            self.v_cycle(k)

    # -- driver -----------------------------------------------------------------

    def residual_norm(self, kind: str = "l2") -> float:
        self.residual(0)
        return self.levels[0].norm("res", kind)

    def solve(
        self,
        *,
        cycles: int = 10,
        rtol: float | None = None,
        cycle: str = "v",
    ) -> list[float]:
        """Run ``cycles`` V-cycles (paper SectionV-A uses 10).

        Returns the residual-norm history ``[r0, r1, ...]``; stops early
        when ``r_k <= rtol * r0`` if ``rtol`` is given.
        """
        if cycle not in ("v", "f"):
            raise ValueError(f"unknown cycle type {cycle!r}")
        history = [self.residual_norm()]
        for c in range(cycles):
            if cycle == "f" and c == 0:
                # FMG is a one-shot accelerator: the F-cycle builds the
                # initial fine solution; subsequent cycles are V-cycles.
                self.f_cycle()
            else:
                self.v_cycle(0)
            history.append(self.residual_norm())
            if rtol is not None and history[-1] <= rtol * history[0]:
                break
        return history
