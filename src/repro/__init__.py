"""repro — a reproduction of *Snowflake: A Lightweight Portable Stencil
DSL* (Zhang et al., IPDPSW 2017).

Quick taste (the paper's Fig.4 in miniature)::

    import numpy as np
    from repro import Component, WeightArray, RectDomain, Stencil

    lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
    st = Stencil(lap, "out", RectDomain((1, 1), (-1, -1)))
    kernel = st.compile(backend="c")
    u, out = np.random.rand(66, 66), np.zeros((66, 66))
    kernel(u=u, out=out)

Subpackages:

* :mod:`repro.core` — the DSL (weights, components, domains, stencils)
* :mod:`repro.analysis` — finite-domain Diophantine dependence analysis
* :mod:`repro.schedule` — the legality-checked schedule IR every
  backend executes (phases, fused chains, color sweeps)
* :mod:`repro.backends` — JIT micro-compilers
  (python/numpy/c/openmp/opencl-sim/cuda-sim)
* :mod:`repro.gpusim` — CPU device simulator executing the generated
  OpenCL / CUDA kernels
* :mod:`repro.hpgmg` — the HPGMG-style geometric multigrid benchmark
* :mod:`repro.baselines` — hand-optimized comparator kernels
* :mod:`repro.machine` — STREAM, Roofline bounds, platform models
* :mod:`repro.tuning` — schedule autotuning (tile, fusion, policy)
* :mod:`repro.resilience` — fault injection, backend fallback chains,
  runtime guards (``python -m repro doctor`` for the self-check)
"""

from .core import (
    Component,
    DomainUnion,
    FlatStencil,
    GridRead,
    OutputMap,
    Param,
    RectDomain,
    SparseArray,
    Stencil,
    StencilGroup,
    ValidationError,
    WeightArray,
)
from .backends import available_backends, get_backend, register_backend
from .resilience import ExecutionPolicy, Guards
from .run import run
from .schedule import Schedule, ScheduleOptions, build_schedule, schedule_for

__version__ = "1.0.0"

__all__ = [
    "Component",
    "DomainUnion",
    "FlatStencil",
    "GridRead",
    "OutputMap",
    "Param",
    "RectDomain",
    "SparseArray",
    "Stencil",
    "StencilGroup",
    "ValidationError",
    "WeightArray",
    "available_backends",
    "get_backend",
    "register_backend",
    "ExecutionPolicy",
    "Guards",
    "Schedule",
    "ScheduleOptions",
    "build_schedule",
    "run",
    "schedule_for",
    "__version__",
]
