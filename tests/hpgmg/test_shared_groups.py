"""One operator object per solver.

Every scalar a solver kernel reads is a runtime param, so the smoother
and residual groups do not depend on the level: ``MultigridSolver``
builds each once and binds it per level.  The oracle is the per-level
construction (``_smoother_group(level)`` on every level), which must
give the same signatures, schedules and program.
"""

import shutil

import pytest
from _helpers import RecordingBackend

from repro.backends import base, get_backend
from repro.core import stencil as stencil_mod
from repro.core.expr import Param
from repro.core.stencil import StencilGroup
from repro.hpgmg.level import Level
from repro.hpgmg.operators import (
    boundary_stencils,
    gsrb_stencils,
    smooth_group,
    vc_laplacian,
)
from repro.hpgmg.solver import MultigridSolver
from repro.schedule import build_schedule

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="requires a C toolchain"
)


def _record(monkeypatch, n=8, **kw):
    rec = RecordingBackend()
    monkeypatch.setitem(base._REGISTRY, rec.name, rec)
    level = Level(n, 3, coefficients=kw.pop("coefficients", "variable"))
    solver = MultigridSolver(level, backend=rec.name, **kw)
    return solver, rec.units


@pytest.mark.parametrize("coefficients", ["constant", "variable"])
@pytest.mark.parametrize("smoother", ["gsrb", "jacobi", "chebyshev"])
def test_shared_groups_match_per_level_construction(
    monkeypatch, coefficients, smoother
):
    solver, units = _record(
        monkeypatch, coefficients=coefficients, smoother=smoother
    )
    nl = len(solver.levels)
    smooth = [g for g, _ in units[0:2 * nl:2]]
    residual = [g for g, _ in units[1:2 * nl:2]]
    assert all(g is smooth[0] for g in smooth)
    assert all(g is residual[0] for g in residual)
    for k, level in enumerate(solver.levels):
        assert solver._smoother_group(level).signature() == smooth[k].signature()
        assert solver._residual_group(level).signature() == residual[k].signature()


def test_stencil_count_does_not_grow_with_depth(monkeypatch):
    made = []
    real = stencil_mod.Stencil.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(stencil_mod.Stencil, "__init__", counting)
    counts = []
    for n in (8, 32):
        made.clear()
        _record(monkeypatch, n=n)
        counts.append(len(made))
    assert counts[0] == counts[1] <= 36


def test_smooth_group_shares_its_boundary_stencils():
    Ax = vc_laplacian(3, 0.1, inv_h2=Param("inv_h2"))
    group = smooth_group(3, Ax, lam="lam")
    assert all(group[i] is group[i + 7] for i in range(6))
    red, black = gsrb_stencils(3, Ax, lam="lam")
    separate = StencilGroup(
        boundary_stencils(3) + [red] + boundary_stencils(3) + [black]
    )
    assert group.signature() == separate.signature()


@needs_gcc
def test_program_matches_per_level_construction():
    solver = MultigridSolver(Level(8, 3, coefficients="variable"), backend="c")
    nl = len(solver.levels)
    groups = [k.group for k in solver.program.kernels]
    shared = [
        solver._on_level(g, level)
        for level in solver.levels
        for g in groups[:2]
    ]
    per_level = [
        solver._on_level(g, level)
        for level in solver.levels
        for g in (solver._smoother_group(level), solver._residual_group(level))
    ]
    transfer = solver._transfer_units(groups[2 * nl], "res", groups[2 * nl + 1])

    def with_shapes(units):
        return [(g, {n: args[n].shape for n in g.grids()}) for g, args in units]

    for (g1, s1), (g2, s2) in zip(with_shapes(shared), with_shapes(per_level)):
        assert build_schedule(g1, s1).describe() == build_schedule(g2, s2).describe()
    program = get_backend("c").compile_program(
        with_shapes(per_level + transfer), name="vcycle"
    )
    assert program.cache_key == solver.program.cache_key


@needs_gcc
def test_program_renders_each_structure_once(monkeypatch):
    """Every level of an operator is above its structure threshold, so
    the 10 units of an 8^3 hierarchy render once per body: each render
    is a new forwarder, and every body is rendered."""
    backend = get_backend("c")
    real = type(backend).generate
    renders = []

    def counting(self, *args, **kwargs):
        renders.append(kwargs.get("func_name"))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(type(backend), "generate", counting)
    solver = MultigridSolver(Level(8, 3, coefficients="variable"), backend="c")
    bodies = solver.program.source.count("static void sf_op")
    assert len(solver.program.kernels) == 10
    assert renders == [f"sf_op{j}" for j in range(bodies)]
    assert bodies == 4
