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

from ..backends import Zero, bind_kernel
from ..core.expr import Param
from ..core.stencil import StencilGroup
from ..resilience.policy import compile_program
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

    ``program`` is the operators compiled as one program and each
    ``v_cycle(k)`` one bound call of it: on the C family one translation
    unit and one FFI call, elsewhere the same steps one kernel call at a
    time.  With ``fallback`` in ``backend_options`` it is a
    :class:`~repro.resilience.policy.ResilientProgram`, degraded whole.
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
        # Every scalar a kernel reads (the level's 1/h², λ for constant
        # coefficients, the Chebyshev weights) is a runtime param fixed
        # at bind, so each operator is one group — one size-generic
        # kernel — for the whole hierarchy, built once and bound per
        # level, and every bound call takes no arguments.  They are one
        # program, and a V-cycle is one call of it; with a fallback
        # chain the program degrades as a whole.
        ndim = fine.ndim
        interp_builder = (
            interpolation_pc_group
            if self.interpolation == "pc"
            else interpolation_linear_group
        )
        restrict = StencilGroup([restriction_stencil(ndim)], "restrict")
        # Linear interpolation reads the coarse ghosts, so it refreshes
        # them first; piecewise-constant reads only coarse centres, and
        # the ghosts are stale by the next read anyway (the next cycle
        # zeroes the coarse x and its smoother refills them).
        interp = StencilGroup(
            (boundary_stencils(ndim, "coarse_x")
             if self.interpolation == "linear" else [])
            + list(interp_builder(ndim, add=True)),
            "interp",
        )
        smooth, residual = self._smoother_group(fine), self._residual_group(fine)
        units = [
            self._on_level(group, lvl)
            for lvl in self.levels
            for group in (smooth, residual)
        ]
        self.program, bound = self._bind(
            units + self._transfer_units(restrict, "res", interp), "vcycle"
        )
        nl = len(self.levels)
        self._smooth: list[Callable] = bound[0:2 * nl:2]
        self._residual: list[Callable] = bound[1:2 * nl:2]
        self._restrict: list[Callable] = bound[2 * nl::2]  # [k]: k -> k+1
        self._interp: list[Callable] = bound[2 * nl + 1::2]  # [k]: k+1 -> k
        # F-cycle only: built by the first f_cycle()
        self._restrict_rhs: list[Callable] = []
        self._interp_full: list[Callable] = []  # overwrite interp
        # v_cycle(k), for every start level k
        self._cycles = [
            self.program.bind(self._cycle_steps(k)) for k in range(nl)
        ]

    def _build_fmg_kernels(self) -> None:
        """The F-cycle's rhs restriction and full interpolation, compiled
        on first use (as a program of their own: a V-cycle-only solver
        never builds them)."""
        ndim = self.levels[0].ndim
        restrict = StencilGroup(
            [restriction_stencil(ndim, fine="rhs")], "restrict_rhs"
        )
        interp = StencilGroup(
            boundary_stencils(ndim, "coarse_x")
            + list(interpolation_linear_group(ndim, add=False)),
            "interp_full",
        )
        _, bound = self._bind(
            self._transfer_units(restrict, "rhs", interp), "fcycle"
        )
        self._restrict_rhs = bound[0::2]
        self._interp_full = bound[1::2]

    # -- kernel construction ---------------------------------------------------

    def _params(self, level: Level) -> dict[str, float]:
        """Values of the scalars the kernels read, fixed at bind:
        ``inv_h2`` = 1/h², λ = 1/diag(A) when it is a constant (variable
        coefficients read the ``lam`` grid), and the Chebyshev step
        weights."""
        w0, w1 = _chebyshev_weights(degree=2)
        params = {"inv_h2": 1.0 / (level.h * level.h),
                  "cheb_w0": w0, "cheb_w1": w1}
        if level.coefficients == "constant":
            params["lam"] = 1.0 / cc_diagonal(level.ndim, level.h)
        return params

    def _on_level(self, group: StencilGroup, level: Level):
        """``group`` as a unit on ``level``: its grids are the level's
        grids of the same names, its params the level's values."""
        used = group.params()
        return group, {
            **{g: level.grids[g] for g in group.grids()},
            **{p: v for p, v in self._params(level).items() if p in used},
        }

    def _transfer_units(
        self, restrict: StencilGroup, fine: str, interp: StencilGroup
    ) -> list:
        """Per (fine, coarse) level pair: ``restrict`` from the fine
        grid ``fine`` into the coarse ``rhs``, then ``interp`` from the
        coarse ``x`` into the fine ``x``."""
        units = []
        for f, c in zip(self.levels, self.levels[1:]):
            units.append(
                (restrict, {fine: f.grids[fine], "coarse_rhs": c.grids["rhs"]})
            )
            units.append(
                (interp, {"coarse_x": c.grids["x"], "x": f.grids["x"]})
            )
        return units

    @staticmethod
    def _lam_of(level: Level):
        return Param("lam") if level.coefficients == "constant" else "lam"

    @staticmethod
    def _operator(level: Level, grid: str = "x"):
        return operator_expr(level, grid, inv_h2=Param("inv_h2"))

    def _bind(self, units, name: str):
        """Compile the ``(group, args)`` units as one program ``name``
        and bind each to its args (grids and params), so a cycle pays
        for argument checking and marshalling once, here; returns the
        program and the bound units.  The kernels run on these array
        objects for the solver's lifetime: fill them in place, never
        replace them."""
        program = compile_program(
            self.backend,
            [(group, {g: args[g].shape for g in group.grids()})
             for group, args in units],
            dtype=self.levels[0].dtype, name=name, **self.backend_options,
        )
        return program, [
            bind_kernel(k, args) for k, (_, args) in zip(program.kernels, units)
        ]

    def _smoother_group(self, level: Level) -> StencilGroup:
        ndim = level.ndim
        Ax = self._operator(level)
        lam = self._lam_of(level)
        if self.smoother == "gsrb":
            return smooth_group(ndim, Ax, lam=lam, n_smooths=1)
        bc_x = boundary_stencils(ndim, "x")
        bc_t = boundary_stencils(ndim, "tmp")
        Ax_t = self._operator(level, grid="tmp")
        if self.smoother == "jacobi":
            # One "smooth" = two weighted-Jacobi ping-pong applications so
            # the result lands back in x.
            fwd = jacobi_stencil(ndim, Ax, grid="x", out="tmp", lam=lam)
            bwd = jacobi_stencil(ndim, Ax_t, grid="tmp", out="x", lam=lam,
                                 rhs="rhs")
            return StencilGroup(
                bc_x + [fwd] + bc_t + [bwd], name="jacobi_smooth"
            )
        # Chebyshev polynomial smoother: two Jacobi-like half-steps whose
        # step weights, the inverse Chebyshev roots over the (diagonally
        # scaled) smoothing band, are params fixed at bind.
        fwd = self._cheby_stencil(ndim, Ax, "x", "tmp", lam, "cheb_w0")
        bwd = self._cheby_stencil(ndim, Ax_t, "tmp", "x", lam, "cheb_w1")
        return StencilGroup(bc_x + [fwd] + bc_t + [bwd], name="cheby_smooth")

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

    def _residual_group(self, level: Level) -> StencilGroup:
        return residual_group(level.ndim, self._operator(level))

    # -- multigrid cycles --------------------------------------------------------

    def _cycle_steps(self, k: int) -> list[tuple[Callable, int]]:
        """The V(n_pre, n_post) cycle from level ``k`` as ``(callable,
        reps)`` steps: the one definition of the cycle."""
        last = len(self.levels) - 1
        if k == last:
            return [(self._smooth[last], self.bottom_smooths)]
        return [
            (self._smooth[k], self.n_pre),
            (self._residual[k], 1),
            (Zero("x", self.levels[k + 1].grids["x"]), 1),
            (self._restrict[k], 1),
            *self._cycle_steps(k + 1),
            (self._interp[k], 1),
            (self._smooth[k], self.n_post),
        ]

    def smooth(self, k: int, times: int = 1) -> None:
        for _ in range(times):
            self._smooth[k]()

    def residual(self, k: int) -> None:
        self._residual[k]()

    def restrict_residual(self, k: int) -> None:
        self._restrict[k]()

    def interpolate_correction(self, k: int) -> None:
        self._interp[k]()

    def bottom_solve(self) -> None:
        self.smooth(len(self.levels) - 1, self.bottom_smooths)

    def v_cycle(self, k: int = 0) -> None:
        """Standard V(n_pre, n_post) cycle starting at level ``k``."""
        self._cycles[k]()

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
