"""HPGMG operators: DSL-built kernels vs direct numpy math."""

import numpy as np
import pytest

from _helpers import run_group
from repro.core.stencil import Stencil, StencilGroup
from repro.hpgmg.level import Level
from repro.hpgmg.operators import (
    boundary_stencils,
    cc_diagonal,
    cc_laplacian,
    face_domain,
    gsrb_stencils,
    interior,
    interpolation_linear_group,
    interpolation_pc_group,
    jacobi_stencil,
    residual_stencil,
    restriction_stencil,
    smooth_group,
    vc_laplacian,
)


def manual_cc_apply(u, h):
    """(2d u - neighbours)/h^2 on a 2-D interior."""
    return (
        4 * u[1:-1, 1:-1] - u[:-2, 1:-1] - u[2:, 1:-1]
        - u[1:-1, :-2] - u[1:-1, 2:]
    ) / (h * h)


class TestCCLaplacian:
    def test_matches_manual_2d(self, rng):
        h = 0.125
        s = Stencil(cc_laplacian(2, h, grid="u"), "out", interior(2))
        u = rng.random((10, 10))
        got = run_group(s, {"u": u, "out": np.zeros((10, 10))})
        np.testing.assert_allclose(got["out"][1:-1, 1:-1], manual_cc_apply(u, h))

    def test_constant_function_maps_to_zero(self):
        # away from boundaries, A(const) = 0
        s = Stencil(cc_laplacian(2, 0.1, grid="u"), "out", interior(2))
        got = run_group(s, {"u": np.ones((8, 8)), "out": np.zeros((8, 8))})
        np.testing.assert_allclose(got["out"][1:-1, 1:-1], 0.0, atol=1e-12)

    def test_diagonal_constant(self):
        assert cc_diagonal(3, 0.5) == 6 / 0.25


class TestVCLaplacian:
    def test_reduces_to_cc_when_beta_is_one(self, rng):
        h = 0.125
        shape = (10, 10)
        u = rng.random(shape)
        arrays = {
            "x": u, "out": np.zeros(shape),
            "beta_0": np.ones(shape), "beta_1": np.ones(shape),
        }
        s = Stencil(vc_laplacian(2, h), "out", interior(2))
        got = run_group(s, arrays)
        np.testing.assert_allclose(
            got["out"][1:-1, 1:-1], manual_cc_apply(u, h), atol=1e-12
        )

    def test_matches_manual_flux_form(self, rng):
        h = 0.25
        shape = (8, 8)
        u = rng.random(shape)
        b0 = 1 + rng.random(shape)
        b1 = 1 + rng.random(shape)
        s = Stencil(vc_laplacian(2, h), "out", interior(2))
        got = run_group(
            s, {"x": u, "out": np.zeros(shape), "beta_0": b0, "beta_1": b1}
        )
        # manual: (1/h^2) sum_d [ b_lo*(u_i - u_{i-1}) + b_hi*(u_i - u_{i+1}) ]
        I = slice(1, -1)
        manual = (
            b0[I, I] * (u[I, I] - u[:-2, I])
            + b0[2:, I] * (u[I, I] - u[2:, I])
            + b1[I, I] * (u[I, I] - u[I, :-2])
            + b1[I, 2:] * (u[I, I] - u[I, 2:])
        ) / (h * h)
        np.testing.assert_allclose(got["out"][1:-1, 1:-1], manual, atol=1e-12)

    def test_with_alpha_term(self, rng):
        h = 0.25
        shape = (8, 8)
        u = rng.random(shape)
        alpha = rng.random(shape)
        ones = np.ones(shape)
        body = vc_laplacian(2, h, a=2.0, alpha_grid="alpha")
        s = Stencil(body, "out", interior(2))
        got = run_group(
            s,
            {"x": u, "out": np.zeros(shape), "alpha": alpha,
             "beta_0": ones, "beta_1": ones},
        )
        want = 2.0 * alpha[1:-1, 1:-1] * u[1:-1, 1:-1] + manual_cc_apply(u, h)
        np.testing.assert_allclose(got["out"][1:-1, 1:-1], want, atol=1e-12)

    def test_alpha_requires_grid_name(self):
        with pytest.raises(ValueError):
            vc_laplacian(2, 0.1, a=1.0)


class TestBoundaries:
    def test_face_domains_cover_all_faces(self):
        shape = (8, 8)
        pts = set()
        for d in range(2):
            for side in (-1, 1):
                pts |= set(
                    face_domain(2, d, side).resolve(shape).points()
                )
        # faces exclude corners (other dims span the interior)
        assert (0, 1) in pts and (7, 6) in pts
        assert (0, 0) not in pts

    def test_ghost_mirror_negation(self, rng):
        shape = (8, 8)
        u = rng.random(shape)
        got = run_group(
            StencilGroup(boundary_stencils(2, "u")), {"u": u}
        )["u"]
        np.testing.assert_allclose(got[0, 1:-1], -u[1, 1:-1])
        np.testing.assert_allclose(got[-1, 1:-1], -u[-2, 1:-1])
        np.testing.assert_allclose(got[1:-1, 0], -u[1:-1, 1])
        np.testing.assert_allclose(got[1:-1, -1], -u[1:-1, -2])
        # interior untouched
        np.testing.assert_array_equal(got[1:-1, 1:-1], u[1:-1, 1:-1])

    def test_face_value_is_zero_after_bc(self, rng):
        # cell-centered Dirichlet: (ghost + inner)/2 == 0 along the face
        # (corners are untouched by face-only BC stencils)
        shape = (8, 8)
        got = run_group(
            StencilGroup(boundary_stencils(2, "u")), {"u": rng.random(shape)}
        )["u"]
        np.testing.assert_allclose(got[0, 1:-1] + got[1, 1:-1], 0.0, atol=1e-15)

    def test_count_2d_and_3d(self):
        assert len(boundary_stencils(2, "u")) == 4
        assert len(boundary_stencils(3, "u")) == 6


class TestSmoothers:
    def test_jacobi_fixed_point_is_solution(self, rng):
        # if x solves A x = rhs exactly, Jacobi leaves it unchanged
        h = 1 / 7
        shape = (9, 9)
        x = np.zeros(shape)
        x[1:-1, 1:-1] = rng.random((7, 7))
        # impose BC consistency then compute rhs = A x
        bc = StencilGroup(boundary_stencils(2, "x"))
        x = run_group(bc, {"x": x})["x"]
        Ax = Stencil(cc_laplacian(2, h), "rhs", interior(2))
        rhs = run_group(Ax, {"x": x, "rhs": np.zeros(shape)})["rhs"]
        jac = jacobi_stencil(2, cc_laplacian(2, h), lam=1 / cc_diagonal(2, h))
        got = run_group(jac, {"x": x, "rhs": rhs, "tmp": np.zeros(shape)})
        np.testing.assert_allclose(
            got["tmp"][1:-1, 1:-1], x[1:-1, 1:-1], atol=1e-12
        )

    def test_jacobi_inplace_variant_flags_hazard(self):
        from repro.analysis import is_parallel_safe

        jac = jacobi_stencil(2, cc_laplacian(2, 0.1), grid="x", out="x", lam=0.1)
        assert jac.is_inplace()
        shapes = {g: (9, 9) for g in jac.grids()}
        assert not is_parallel_safe(jac, shapes)

    def test_gsrb_red_only_touches_red(self, rng):
        red, black = gsrb_stencils(2, cc_laplacian(2, 1 / 7), lam=0.01)
        shape = (9, 9)
        x = rng.random(shape)
        got = run_group(red, {"x": x, "rhs": rng.random(shape)})["x"]
        changed = got != x
        ii, jj = np.nonzero(changed)
        assert ((ii + jj) % 2 == 0).all()

    def test_gsrb_error_decreases_monotonically(self, rng):
        # Gauss-Seidel decreases the energy norm of the error every
        # sweep (the L2 *residual* may transiently rise — verified
        # against an independent numpy GS implementation).
        h = 1 / 14
        shape = (16, 16)
        u_star = np.zeros(shape)
        u_star[1:-1, 1:-1] = rng.random((14, 14))
        bc = StencilGroup(boundary_stencils(2, "x"))
        u_star = run_group(bc, {"x": u_star})["x"]
        rhs = run_group(
            Stencil(cc_laplacian(2, h), "rhs", interior(2)),
            {"x": u_star, "rhs": np.zeros(shape)},
        )["rhs"]
        group = smooth_group(2, cc_laplacian(2, h), lam=1 / cc_diagonal(2, h))
        arrays = {"x": np.zeros(shape), "rhs": rhs}
        errs = []
        for _ in range(4):
            arrays = run_group(group, arrays)
            errs.append(
                np.linalg.norm(arrays["x"][1:-1, 1:-1] - u_star[1:-1, 1:-1])
            )
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.8 * errs[0]

    def test_smooth_group_structure(self):
        group = smooth_group(3, cc_laplacian(3, 0.1), lam=0.1, n_smooths=2)
        # per smooth: 6 bc + red + 6 bc + black = 14
        assert len(group) == 28


class TestTransfers:
    def test_restriction_preserves_constants(self):
        s = restriction_stencil(2)
        fine = np.ones((18, 18))
        got = run_group(s, {"res": fine, "coarse_rhs": np.zeros((10, 10))})
        np.testing.assert_allclose(got["coarse_rhs"][1:-1, 1:-1], 1.0)

    def test_interp_pc_preserves_constants(self):
        group = interpolation_pc_group(2, add=False)
        got = run_group(
            group, {"coarse_x": np.ones((6, 6)), "x": np.zeros((10, 10))}
        )
        np.testing.assert_allclose(got["x"][1:-1, 1:-1], 1.0)

    def test_interp_linear_preserves_constants(self):
        coarse = np.ones((6, 6))
        group = interpolation_linear_group(2, add=False)
        got = run_group(group, {"coarse_x": coarse, "x": np.zeros((10, 10))})
        np.testing.assert_allclose(got["x"][1:-1, 1:-1], 1.0)

    def test_interp_linear_reproduces_linears(self):
        # cell-centered trilinear interpolation is exact on affine fields
        nc = 4
        cl = Level(nc, 2)
        x, y = cl.cell_centers()
        coarse = x + 2 * y
        fl = Level(2 * nc, 2)
        x, y = fl.cell_centers()
        fine_exact = x + 2 * y
        group = interpolation_linear_group(2, add=False)
        got = run_group(
            group, {"coarse_x": coarse, "x": np.zeros(fl.shape)}
        )
        np.testing.assert_allclose(
            got["x"][1:-1, 1:-1], fine_exact[1:-1, 1:-1], atol=1e-12
        )

    def test_restriction_adjoint_scaling(self, rng):
        # <R f, c> = (1/2^d) <f, P c> for PC interpolation / averaging
        nc = 4
        f = np.zeros((2 * nc + 2,) * 2)
        f[1:-1, 1:-1] = rng.random((2 * nc, 2 * nc))
        c = np.zeros((nc + 2,) * 2)
        c[1:-1, 1:-1] = rng.random((nc, nc))
        Rf = run_group(
            restriction_stencil(2), {"res": f, "coarse_rhs": np.zeros_like(c)}
        )["coarse_rhs"]
        Pc = run_group(
            interpolation_pc_group(2, add=False),
            {"coarse_x": c, "x": np.zeros_like(f)},
        )["x"]
        lhs = np.sum(Rf[1:-1, 1:-1] * c[1:-1, 1:-1])
        rhs = np.sum(f[1:-1, 1:-1] * Pc[1:-1, 1:-1]) / 4.0
        assert lhs == pytest.approx(rhs)
