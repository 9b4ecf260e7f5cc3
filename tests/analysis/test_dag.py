"""DAG construction, greedy barrier grouping, scheduling policies."""

import networkx as nx
import pytest

from repro.analysis.dag import (
    build_dag,
    greedy_phases,
    plan,
    wavefront_phases,
)
from repro.analysis.dependence import is_parallel_safe
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.operators import (
    boundary_stencils,
    cc_laplacian,
    gsrb_stencils,
    smooth_group,
    vc_laplacian,
)

INTERIOR = RectDomain((1, 1), (-1, -1))


def chain(n):
    """s0 writes g1 from g0, s1 writes g2 from g1, ..."""
    out = []
    for i in range(n):
        out.append(
            Stencil(
                Component(f"g{i}", WeightArray([[1]])), f"g{i+1}", INTERIOR,
                name=f"s{i}",
            )
        )
    return StencilGroup(out)


def independent(n):
    return StencilGroup(
        [
            Stencil(Component("src", WeightArray([[1]])), f"dst{i}", INTERIOR)
            for i in range(n)
        ]
    )


def shapes_of(group, shape=(10, 10)):
    return {g: shape for g in group.grids()}


class TestBuildDag:
    def test_chain_edges(self):
        g = chain(4)
        dag = build_dag(g, shapes_of(g))
        assert set(dag.edges()) == {(0, 1), (1, 2), (2, 3)}
        assert nx.is_directed_acyclic_graph(dag)

    def test_edge_kinds_labelled(self):
        g = chain(2)
        dag = build_dag(g, shapes_of(g))
        assert dag.edges[0, 1]["kinds"] == frozenset({"RAW"})

    def test_independent_no_edges(self):
        g = independent(5)
        dag = build_dag(g, shapes_of(g))
        assert dag.number_of_edges() == 0


class TestGreedyPhases:
    def test_chain_gets_one_phase_each(self):
        g = chain(3)
        assert greedy_phases(g, shapes_of(g)) == [[0], [1], [2]]

    def test_independent_one_phase(self):
        g = independent(5)
        assert greedy_phases(g, shapes_of(g)) == [[0, 1, 2, 3, 4]]

    def test_smoother_phase_structure(self):
        group = smooth_group(2, cc_laplacian(2, 0.1), lam=0.1)
        phases = greedy_phases(group, shapes_of(group, (12, 12)))
        # bc x4 | red | bc x4 | black
        assert [len(p) for p in phases] == [4, 1, 4, 1]

    def test_greedy_is_in_order(self):
        g = chain(3) + independent(2)
        phases = greedy_phases(g, shapes_of(g))
        flat = [i for p in phases for i in p]
        assert flat == sorted(flat)


class TestWavefront:
    def test_levels_follow_longest_path(self):
        # s0 -> s1 -> s2, s3 independent: wavefront puts s3 in phase 0
        g = chain(3) + independent(1)
        phases = wavefront_phases(g, shapes_of(g))
        assert 3 in phases[0]
        assert phases[1] == [1] and phases[2] == [2]

    def test_wavefront_no_fewer_stencils(self):
        g = chain(2) + independent(3)
        phases = wavefront_phases(g, shapes_of(g))
        assert sum(len(p) for p in phases) == len(g)


class TestPlan:
    def test_policies(self):
        g = chain(2) + independent(2)
        shapes = shapes_of(g)
        for policy in ("greedy", "wavefront", "serial"):
            p = plan(g, shapes, policy=policy)
            assert p.stencil_count() == len(g)
        with pytest.raises(ValueError):
            plan(g, shapes, policy="magic")

    def test_serial_one_per_phase(self):
        g = independent(3)
        p = plan(g, shapes_of(g), policy="serial")
        assert p.phases == ((0,), (1,), (2,))
        assert p.n_barriers == 2

    def test_parallel_within_flags(self):
        group = smooth_group(2, cc_laplacian(2, 0.1), lam=0.1)
        p = plan(group, shapes_of(group, (12, 12)))
        assert all(p.parallel_within)  # bc faces and colored sweeps all safe

    def test_describe_mentions_phases(self):
        g = chain(2)
        p = plan(g, shapes_of(g))
        assert "phase 0" in p.describe()


class TestBarrierProvenance:
    """Satellite: every barrier names the dependence grids that forced it."""

    def smoother_plan(self):
        group = smooth_group(2, cc_laplacian(2, 0.1), lam=0.1)
        return plan(group, shapes_of(group, (12, 12)))

    def test_dependence_grids_recorded(self):
        p = self.smoother_plan()
        assert p.dependence_grids, "smoother has cross-stencil dependences"
        for detail in p.dependence_grids.values():
            for kind, grids in detail.items():
                assert kind in ("RAW", "WAR", "WAW")
                assert grids, f"{kind} edge must name its grids"

    def test_barrier_edges_name_forcing_grids(self):
        p = self.smoother_plan()
        assert p.n_barriers == 3
        for k in range(p.n_barriers):
            edges = p.barrier_edges(k)
            assert edges, f"barrier {k} must be forced by an edge"
            for (i, j), detail in edges:
                assert i < j
                grids = {g for gs in detail.values() for g in gs}
                assert grids == {"x"}, (
                    "every smoother barrier is about the smoothed grid"
                )

    def test_describe_names_grids_and_stencils(self):
        p = self.smoother_plan()
        text = p.describe()
        assert "forced by" in text
        assert "RAW on x" in text
        assert "gsrb_red" in text  # labels use stencil names

    def test_chain_raw_edge_in_describe(self):
        g = chain(2)
        text = plan(g, shapes_of(g)).describe()
        assert "0:s0->1:s1" in text
        assert "RAW on g1" in text

    def test_serial_policy_barrier_without_dependence(self):
        g = independent(3)
        p = plan(g, shapes_of(g), policy="serial")
        assert p.barrier_edges(0) == []
        assert "policy order" in p.describe()

    def test_no_barriers_no_dependence_lines(self):
        g = independent(3)
        p = plan(g, shapes_of(g))
        assert p.n_barriers == 0
        assert "forced by" not in p.describe()


def test_analysis_is_independent_of_domain_size():
    """Paper SectionIII: Diophantine analysis never enumerates points.

    Only shape tuples are passed — no arrays exist — and an enumerating
    analysis of a 1024^3 domain (10^9 points) would not finish.
    """

    def analyse(n):
        shape = (n + 2,) * 3
        red, _ = gsrb_stencils(3, cc_laplacian(3, 1.0 / n), lam=0.1)
        group = smooth_group(3, vc_laplacian(3, 1.0 / n), lam="lam")
        p = plan(group, {g: shape for g in group.grids()})
        assert p.stencil_count() == len(group)
        return is_parallel_safe(red, {g: shape for g in red.grids()}), p.phases

    safe, phases = analyse(8)
    assert safe
    assert analyse(1024) == (safe, phases)
