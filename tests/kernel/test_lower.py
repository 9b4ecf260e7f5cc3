"""Lowering: FlatStencil -> raw KernelBody, the flat sum factored."""

import shutil

import pytest

from repro.core.domains import RectDomain
from repro.core.expr import Constant, GridRead, Param
from repro.core.stencil import Stencil
from repro.kernel import no_optimization, optimization_enabled
from repro.kernel.ir import KAdd, KConst, KDiv, KLoad, KMul, KParam
from repro.kernel.lower import body_for, lower_flat, lower_term

DOM = RectDomain((1, 1), (-1, -1))


def test_lower_term_reproduces_legacy_order():
    # w * u[i] / w2 -> ((1.0 * w) / w2) * u : coeff, params, denoms, loads
    s = Stencil(
        Param("w") * GridRead("u", (0, 0)) / Param("w2"), "out", DOM
    )
    (term,) = s.flat.terms
    e = lower_term(term)
    assert isinstance(e, KMul)
    assert isinstance(e.rhs, KLoad) and e.rhs.grid == "u"
    assert isinstance(e.lhs, KDiv)
    assert e.lhs.rhs == KParam("w2")
    assert e.lhs.lhs == KMul(KConst(1.0), KParam("w"))


def test_lower_flat_folds_terms_left():
    s = Stencil(
        GridRead("u", (0, 0)) + GridRead("v", (0, 0)) + Constant(3.0),
        "out",
        DOM,
    )
    body = lower_flat(s.flat)
    assert body.lets == ()  # raw lowering introduces no bindings
    # fold-left sum with no leading 0.0: ((t0 + t1) + t2)
    assert isinstance(body.result, KAdd)
    assert isinstance(body.result.lhs, KAdd)
    assert not isinstance(body.result.lhs.lhs, KAdd)


def test_lower_flat_empty_body_is_zero():
    s = Stencil(Constant(0.0) * GridRead("u", (0, 0)), "out", DOM)
    if s.flat.terms:  # zero-coeff terms may survive flattening
        pytest.skip("flatten kept the zero term")
    body = lower_flat(s.flat)
    assert body.result == KConst(0.0)


def test_body_for_caches_both_variants():
    s = Stencil(GridRead("u", (0, 0)) * Param("w"), "out", DOM)
    opt1, rep1 = body_for(s, optimize=True)
    opt2, rep2 = body_for(s, optimize=True)
    raw1, raw_rep = body_for(s, optimize=False)
    assert opt1 is opt2 and rep1 is rep2
    assert raw1 is body_for(s, optimize=False)[0]
    assert raw_rep is None  # raw variant carries no report
    assert rep1 is not None


def test_body_for_follows_package_toggle():
    # w*u[1,0]*u[1,0]: one term reads u twice, so the repeated read
    # survives lowering (factoring takes out only reads that two terms
    # share) and only CSE can name it
    s = Stencil(
        Param("w") * GridRead("u", (1, 0)) * GridRead("u", (1, 0)),
        "out",
        DOM,
    )
    assert optimization_enabled()
    body_on, rep_on = body_for(s)  # optimize=None -> toggle (on)
    with no_optimization():
        assert not optimization_enabled()
        body_off, rep_off = body_for(s)
    assert optimization_enabled()
    assert rep_on is not None and rep_off is None
    # CSE named the repeated read only on the optimized variant
    assert body_on.lets and not body_off.lets


# -- the flat sum factored ----------------------------------------------------


def test_shared_read_is_taken_out():
    # w*u + u shares u: u*(w + 1.0), one read and no CSE binding
    s = Stencil(
        Param("w") * GridRead("u", (1, 0)) + GridRead("u", (1, 0)), "out", DOM
    )
    body = lower_flat(s.flat)
    assert isinstance(body.result, KMul)
    assert body.result.rhs == KLoad("u", (1, 0), (1, 1))
    assert body.load_count() == 1


def test_unshared_terms_keep_the_fold_left_sum():
    s = Stencil(
        Param("a") * GridRead("u", (0, 0)) + Param("b") * GridRead("v", (0, 0)),
        "out",
        DOM,
    )
    (t0, t1) = s.flat.terms
    assert lower_flat(s.flat).result == KAdd(lower_term(t0), lower_term(t1))


def test_param_is_kept_where_taking_it_out_costs_a_multiply():
    # 2w*u + 3w*v: the scalars 2w and 3w are hoisted, so w*(2u + 3v)
    # would cost one multiply more per point than the plain sum
    s = Stencil(
        Constant(2.0) * Param("w") * GridRead("u", (0, 0))
        + Constant(3.0) * Param("w") * GridRead("v", (0, 0)),
        "out",
        DOM,
    )
    (t0, t1) = s.flat.terms
    assert lower_flat(s.flat).result == KAdd(lower_term(t0), lower_term(t1))


def test_ties_are_broken_by_signature():
    # a ring f*e + e*d + ... + a*f: every read is shared by two terms,
    # so the tie decides, and "a@[0, 0]" has the least signature
    reads = [GridRead(g, (0, 0)) for g in "fedcba"]
    expr = reads[0] * reads[1]
    for i in range(1, 6):
        expr = expr + reads[i] * reads[(i + 1) % 6]
    body = lower_flat(Stencil(expr, "out", DOM).flat)
    # the first term (e*f) does not read a, so a's group comes second
    assert isinstance(body.result, KAdd)
    assert isinstance(body.result.rhs, KMul)
    assert body.result.rhs.rhs == KLoad("a", (0, 0), (1, 1))


def _every_stencil():
    """Every stencil the repo builds: the paper operators, the solver's
    smoothers and residual in 2-D and 3-D with constant and variable
    coefficients (boundaries included), the transfers, periodic and
    full boundaries, and the high-order operators."""
    from repro.bench import paper_operators
    from repro.hpgmg import highorder
    from repro.hpgmg import operators as ops
    from repro.hpgmg.level import Level
    from repro.hpgmg.solver import MultigridSolver

    out = dict(paper_operators(8))
    for ndim in (2, 3):
        for coefficients in ("constant", "variable"):
            for smoother in ("gsrb", "jacobi", "chebyshev"):
                solver = MultigridSolver(
                    Level(8, ndim, coefficients=coefficients),
                    backend="numpy", smoother=smoother,
                )
                fine = solver.levels[0]
                for group in (solver._smoother_group(fine),
                              solver._residual_group(fine)):
                    for st in group:
                        out[f"{ndim}d-{coefficients}-{smoother}-{st.name}"] = st
        transfers = [ops.restriction_stencil(ndim),
                     *ops.interpolation_pc_group(ndim),
                     *ops.interpolation_linear_group(ndim),
                     *ops.periodic_boundary_stencils(ndim, 8),
                     *ops.boundary_stencils_full(ndim)]
        for st in transfers:
            out[f"{ndim}d-{st.name}"] = st
        out[f"{ndim}d-4th"] = Stencil(
            highorder.cc_laplacian_4th(ndim, 0.125), "out",
            RectDomain((2,) * ndim, (-2,) * ndim), name="laplacian_4th",
        )
        compact = highorder.compact_laplacian(ndim, 0.125)
        for lam in (0.001, "lam"):
            group = highorder.multicolor_smooth_group(ndim, compact, lam=lam)
            for st in group:
                out[f"{ndim}d-compact-{lam}-{st.name}"] = st
        out[f"{ndim}d-compact-residual"] = ops.residual_stencil(ndim, compact)
    return out


EVERY_STENCIL = _every_stencil()


def test_factoring_never_adds_flops():
    from _helpers import term_by_term_flops

    from repro.kernel import kernel_cost

    worse = {
        name: (kernel_cost(st).flops_per_point, term_by_term_flops(st))
        for name, st in EVERY_STENCIL.items()
        if kernel_cost(st).flops_per_point > term_by_term_flops(st)
    }
    assert len(EVERY_STENCIL) > 100
    assert not worse, worse


def test_solver_and_paper_flops_are_pinned():
    """The factored counts the lowering reached: the solver's GSRB
    half-sweep 50 -> 28, the paper's vc_gsrb 54 -> 35 and the
    variable-coefficient residual 36 -> 26 flops a point."""
    from repro.kernel import kernel_cost

    flops = {
        name: kernel_cost(EVERY_STENCIL[name]).flops_per_point
        for name in ("3d-variable-gsrb-gsrb_red", "3d-variable-gsrb-gsrb_black",
                     "vc_gsrb", "3d-variable-gsrb-residual_res")
    }
    assert flops["3d-variable-gsrb-gsrb_red"] <= 28
    assert flops["3d-variable-gsrb-gsrb_black"] <= 28
    assert flops["vc_gsrb"] <= 35
    assert flops["3d-variable-gsrb-residual_res"] <= 26


@pytest.mark.parametrize("name", sorted(
    n for n, st in EVERY_STENCIL.items() if len(st.flat.terms) > 1
))
def test_factored_body_matches_the_term_by_term_sum(name):
    import numpy as np
    from _helpers import eval_terms, run_group

    st = EVERY_STENCIL[name]
    rng = np.random.default_rng(7)
    shapes = {g: (6 if g.startswith("coarse") else 10,) * st.ndim
              for g in st.grids()}
    arrays = {g: rng.standard_normal(s) for g, s in shapes.items()}
    params = {p: rng.uniform(0.5, 2.0) for p in st.params()}
    got = run_group(st, arrays, params, backend="numpy")
    want = {g: a.copy() for g, a in arrays.items()}
    eval_terms(st, want, params)
    for g in arrays:
        np.testing.assert_allclose(got[g], want[g], rtol=1e-12, atol=1e-12)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="requires a C toolchain")
def test_program_text_does_not_depend_on_the_hash_seed(tmp_path):
    """The factor order is decided by counts and signatures, never by
    hash or set order: the 32^3 program renders the same text under two
    ``PYTHONHASHSEED`` values."""
    import os
    import subprocess
    import sys

    import repro

    script = (
        "import hashlib\n"
        "from repro.hpgmg.level import Level\n"
        "from repro.hpgmg.solver import MultigridSolver\n"
        "p = MultigridSolver(Level(32, 3, coefficients='variable'),"
        " backend='c').program\n"
        "print(hashlib.sha256(p.source.encode()).hexdigest(), p.cache_key)\n"
    )
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   SNOWFLAKE_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        env.pop("SNOWFLAKE_CC", None)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        digests.add(tuple(out))
    assert len(digests) == 1, digests
