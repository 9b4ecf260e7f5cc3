"""Quickstart: define a stencil once, run it on every micro-compiler.

A 2-D 5-point Laplacian smoothing a random field — the "hello world" of
stencil DSLs.  The same ``Stencil`` object compiles through the Python
reference interpreter, the vectorized numpy backend, the sequential C
JIT, the task-parallel OpenMP backend, and the OpenCL code generator
(executed on the CPU device simulator): single source, many targets.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Component, RectDomain, Stencil, WeightArray

# -- 1. the stencil ----------------------------------------------------------
# WeightArray is centred on its middle element: this is the classic
# 5-point Jacobi-style average (Fig.3d of the paper).
blur = Component(
    "u",
    WeightArray(
        [
            [0.00, 0.25, 0.00],
            [0.25, 0.00, 0.25],
            [0.00, 0.25, 0.00],
        ]
    ),
)

# Apply over the interior of the grid; negative indices are grid-size
# relative, so the same Stencil works for any array size.
interior = RectDomain((1, 1), (-1, -1))
stencil = Stencil(blur, "out", interior, name="blur5")

# -- 2. run it everywhere ----------------------------------------------------
rng = np.random.default_rng(42)
u = rng.random((130, 130))

results = {}
for backend in ("python", "numpy", "c", "openmp", "opencl-sim"):
    out = np.zeros_like(u)
    kernel = stencil.compile(backend=backend)  # JIT: cached per shape
    kernel(u=u, out=out)
    results[backend] = out
    print(f"{backend:11s} -> interior mean {out[1:-1, 1:-1].mean():.6f}")

ref = results["python"]
for backend, out in results.items():
    assert np.allclose(out, ref), f"{backend} disagrees with the reference!"
print("\nall five backends agree bit-for-bit (up to FP reassociation)")

# -- 3. peek at the generated code -------------------------------------------
from repro import StencilGroup, get_backend

src = get_backend("c").generate(
    StencilGroup([stencil]), {"u": u.shape, "out": u.shape}, np.float64,
)
print("\n--- generated C (first 25 lines) ---")
print("\n".join(src.splitlines()[:25]))
