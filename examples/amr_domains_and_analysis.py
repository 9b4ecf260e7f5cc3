"""Domain unions, dependence DAGs, and group optimizations.

Three smaller Snowflake features on one scenario, an AMR-flavoured
update of two disjoint refined patches inside a coarse background grid:

1. **DomainUnion** — one stencil applied over a union of disjoint boxes
   (the paper lists "unions of rectangular domains (used in adaptive
   mesh refinement)" as a first-class language feature);
2. **Diophantine scheduling** — the dependence DAG proves the two patch
   updates independent, so the greedy scheduler runs them barrier-free,
   while a reader of their output forces a barrier;
3. **Optimizations** — dead-stencil elimination and fusion marking from
   the analysis layer (the paper's SectionVII items, implemented).

Run:  python examples/amr_domains_and_analysis.py
"""

import numpy as np

from repro import Component, RectDomain, Stencil, StencilGroup, WeightArray
from repro.analysis import (
    build_dag,
    domains_disjoint,
    eliminate_dead_stencils,
    plan,
)
from repro.schedule import fusion_chains

SHAPE = (128, 128)

# -- two refined patches inside one grid -------------------------------------
patch_a = RectDomain((8, 8), (40, 40))
patch_b = RectDomain((60, 60), (120, 120))
patches = patch_a + patch_b  # DomainUnion via `+`, as in the paper

print("patches provably disjoint:",
      domains_disjoint(patch_a, patch_b, SHAPE))

lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
smooth = Component("u", WeightArray([[0, 0.25, 0], [0.25, 0, 0.25],
                                     [0, 0.25, 0]]))

update_patches = Stencil(smooth, "v", patches, name="update_patches")
edge_detect = Stencil(lap, "edges", patch_a, name="edges_a")
reader = Stencil(Component("v", WeightArray([[1]])), "copy",
                 RectDomain((8, 8), (40, 40)), name="copy_v")
never_read = Stencil(lap, "scratch", patch_b, name="dead_scratch")

group = StencilGroup([update_patches, edge_detect, never_read, reader],
                     name="amr")
shapes = {g: SHAPE for g in group.grids()}

# -- scheduling ----------------------------------------------------------------
exec_plan = plan(group, shapes)
print(f"\ngreedy plan ({exec_plan.n_barriers} barrier(s)):")
print(exec_plan.describe())

dag = build_dag(group, shapes)
print("dependence edges:",
      [(u, v, sorted(d["kinds"])) for u, v, d in dag.edges(data=True)])

# -- dead-stencil elimination ----------------------------------------------------
live = eliminate_dead_stencils(group, shapes, live_grids={"v", "edges", "copy"})
print(f"\ndead-stencil elimination: {len(group)} -> {len(live)} stencils "
      f"(dropped {[s.name for s in group if s not in live.stencils]})")

# -- fusion marking ----------------------------------------------------------------
pair_group = StencilGroup(
    [
        Stencil(lap, "a1", patch_a, name="p1"),
        Stencil(smooth, "a2", patch_a, name="p2"),
    ]
)
chains = fusion_chains(pair_group, {g: SHAPE for g in pair_group.grids()})
print("fusable chains:", [c for c in chains if len(c) > 1])

# -- and of course it runs -------------------------------------------------------
rng = np.random.default_rng(0)
arrays = {g: np.zeros(SHAPE) for g in live.grids()}
arrays["u"] = rng.random(SHAPE)
kernel = live.compile(backend="c")
kernel(**arrays)
print("\npatch update ran; v nonzero cells:",
      int(np.count_nonzero(arrays['v'])),
      "=", patches.npoints(SHAPE), "expected")
