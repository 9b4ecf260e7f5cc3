"""The paper's three measured operators (SectionV-B) and their cost check.

The constant-coefficient 7-point Laplacian (``cc_7pt``, 24 bytes/point),
the constant-coefficient weighted-Jacobi smoother (``cc_jacobi``, 40
bytes/point) and the variable-coefficient GSRB half-sweep (``vc_gsrb``,
64 bytes/point).  The repo's benchmark (``bench/``, declared in
``BENCHMARK.json``) times them; this module only builds them.
"""

from __future__ import annotations

from .core.stencil import Stencil
from .hpgmg.operators import (
    cc_laplacian,
    gsrb_stencils,
    interior,
    jacobi_stencil,
    vc_laplacian,
)
from .kernel import kernel_cost
from .machine.roofline import PAPER_BYTES_PER_STENCIL

__all__ = ["paper_operators", "operator_cost"]


def paper_operators(n: int = 32) -> dict[str, Stencil]:
    """The three operators of SectionV-B on an ``n``-interior cubic grid.

    Each is constructed so the analytic cost model
    (:func:`repro.kernel.kernel_cost`) reports exactly the paper
    constant (24 / 40 / 64 bytes/point) — :func:`operator_cost` asserts
    that cross-check.
    """
    h = 1.0 / n
    cc7 = Stencil(cc_laplacian(3, h), "out", interior(3), name="cc_7pt")
    jac = jacobi_stencil(3, cc_laplacian(3, h), lam="lam")
    vc = vc_laplacian(3, h, a=1.0, alpha_grid="alpha")
    red, _ = gsrb_stencils(3, vc, lam="lam")
    jac.name, red.name = "cc_jacobi", "vc_gsrb"  # report the paper's names
    return {"cc_7pt": cc7, "cc_jacobi": jac, "vc_gsrb": red}


def operator_cost(op_name: str, stencil: Stencil):
    """Cost one paper operator, cross-checking the paper constant.

    The quoted 24/40/64 bytes/point are not hand-coded into any roofline
    denominator — they survive only as *assertions* that the analytic
    model reproduces them exactly.
    """
    cost = kernel_cost(stencil)
    paper = PAPER_BYTES_PER_STENCIL.get(op_name)
    if paper is not None and cost.bytes_per_point != paper:
        raise AssertionError(
            f"cost model drifted: {op_name} reports "
            f"{cost.bytes_per_point} bytes/point, paper says {paper}"
        )
    return cost
