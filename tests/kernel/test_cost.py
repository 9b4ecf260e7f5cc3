"""Analytic cost model: the paper's 24/40/64 bytes/point, reproduced exactly."""

import pytest

from repro.bench import operator_cost, paper_operators
from repro.core.domains import RectDomain
from repro.core.expr import GridRead
from repro.core.stencil import Stencil
from repro.kernel import body_for, kernel_cost, swept_cost
from repro.kernel.cost import WORD_BYTES
from repro.machine.roofline import PAPER_BYTES_PER_STENCIL, bytes_per_point


@pytest.fixture(scope="module")
def operators():
    return paper_operators(8)


def test_three_paper_operators():
    """SectionV-B: the operators' names, grids and bytes/point."""
    ops = paper_operators()
    assert {
        key: (st.name, st.output, sorted(st.grids())) for key, st in ops.items()
    } == {
        "cc_7pt": ("cc_7pt", "out", ["out", "x"]),
        "cc_jacobi": ("cc_jacobi", "tmp", ["lam", "rhs", "tmp", "x"]),
        "vc_gsrb": (
            "vc_gsrb", "x",
            ["alpha", "beta_0", "beta_1", "beta_2", "lam", "rhs", "x"],
        ),
    }
    assert {
        key: operator_cost(key, st).bytes_per_point for key, st in ops.items()
    } == {"cc_7pt": 24.0, "cc_jacobi": 40.0, "vc_gsrb": 64.0}


def test_paper_constants_reproduced_exactly(operators):
    """Acceptance: 24, 40, 64 — exact equality, not approx."""
    costs = {
        name: kernel_cost(st).bytes_per_point
        for name, st in operators.items()
    }
    assert costs == {"cc_7pt": 24.0, "cc_jacobi": 40.0, "vc_gsrb": 64.0}
    assert costs == PAPER_BYTES_PER_STENCIL


def test_operator_cost_asserts_against_drift(operators):
    for name, st in operators.items():
        cost = operator_cost(name, st)
        assert cost.bytes_per_point == PAPER_BYTES_PER_STENCIL[name]
    # a mismatched pairing must trip the drift assertion
    with pytest.raises(AssertionError, match="drifted"):
        operator_cost("cc_7pt", operators["vc_gsrb"])


def test_roofline_delegates_to_kernel_cost(operators):
    for st in operators.values():
        assert bytes_per_point(st) == kernel_cost(st).bytes_per_point


def test_flops_are_positive_and_fma_counts_two(operators):
    # cc_7pt: 7 loads combined with adds/muls — at least one op per load
    cost = kernel_cost(operators["cc_7pt"])
    assert cost.flops_per_point >= 7
    assert cost.arithmetic_intensity == pytest.approx(
        cost.flops_per_point / cost.bytes_per_point
    )


def test_write_allocate_convention():
    # out-of-place single-read stencil: read + write + write-allocate
    s = Stencil(GridRead("u", (0, 0)), "out", RectDomain((1, 1), (-1, -1)))
    wa = kernel_cost(s, write_allocate=True)
    nowa = kernel_cost(s, write_allocate=False)
    assert wa.bytes_per_point == 3 * WORD_BYTES
    assert nowa.bytes_per_point == 2 * WORD_BYTES
    assert wa.write_allocate and not nowa.write_allocate


def test_inplace_stencil_pays_no_write_allocate():
    # GSRB-style: the output grid is also read, so the written line is
    # already resident — write-allocate must not double-charge it
    s = Stencil(
        GridRead("x", (1, 0)) + GridRead("x", (-1, 0)),
        "x",
        RectDomain((1, 1), (-1, -1)),
    )
    cost = kernel_cost(s)
    assert cost.bytes_per_point == 2 * WORD_BYTES  # read x + write x


def test_swept_cost_divides_resident_traffic_by_k(operators):
    for name, st in operators.items():
        body, _ = body_for(st)
        sc = swept_cost(body, st.output, 4)
        base = PAPER_BYTES_PER_STENCIL[name]
        assert sc.base_bytes_per_point == base
        assert sc.swept_bytes_per_point == base / 4
        assert sc.traffic_reduction == pytest.approx(4.0)
        assert sc.cache_resident


def test_swept_cost_overflowing_tile_buys_nothing(operators):
    st = operators["cc_jacobi"]
    body, _ = body_for(st)
    sc = swept_cost(body, st.output, 4, tile_bytes=1e9, cache_bytes=8e6)
    assert not sc.cache_resident
    assert sc.swept_bytes_per_point == sc.base_bytes_per_point
    assert sc.traffic_reduction == 1.0


def test_swept_cost_k_one_is_the_base_model(operators):
    st = operators["cc_7pt"]
    body, _ = body_for(st)
    sc = swept_cost(body, st.output, 1)
    assert sc.swept_bytes_per_point == kernel_cost(st).bytes_per_point


def test_swept_cost_rejects_bad_k(operators):
    st = operators["cc_7pt"]
    body, _ = body_for(st)
    with pytest.raises(ValueError, match="k must be >= 1"):
        swept_cost(body, st.output, 0)


def test_swept_cost_to_dict(operators):
    st = operators["vc_gsrb"]
    body, _ = body_for(st)
    d = swept_cost(body, st.output, 2).to_dict()
    for key in (
        "k",
        "base_bytes_per_point",
        "swept_bytes_per_point",
        "cache_resident",
        "traffic_reduction",
    ):
        assert key in d


def test_cost_to_dict_round_trip(operators):
    d = kernel_cost(operators["cc_jacobi"]).to_dict()
    for key in (
        "flops_per_point",
        "read_grids",
        "loads_per_point",
        "bytes_per_point",
        "arithmetic_intensity",
        "write_allocate",
    ):
        assert key in d
