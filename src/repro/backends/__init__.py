"""Micro-compiler backends and their registry.

Importing this package registers the built-in micro-compilers:
``python`` (reference interpreter), ``numpy`` (vectorized views),
``c`` (sequential C99 JIT), ``openmp`` (task-parallel C), and
``opencl-sim`` and ``cuda-sim`` (generated OpenCL-C / CUDA-C executed
on the CPU device simulator).  User backends register via :func:`register_backend`.
"""

from .base import (
    Backend,
    BoundKernel,
    CompiledKernel,
    Zero,
    available_backends,
    bind_kernel,
    get_backend,
    register_backend,
)

# Registration side effects — order matters only for documentation.
from . import python_ref as _python_ref  # noqa: F401
from . import numpy_backend as _numpy_backend  # noqa: F401

try:  # compiled backends need a working C compiler
    from . import c_backend as _c_backend  # noqa: F401
    from . import openmp_backend as _openmp_backend  # noqa: F401
    from . import gpu_backend as _gpu_backend  # noqa: F401

    HAVE_COMPILED_BACKENDS = True
except Exception:  # pragma: no cover - exercised only without a toolchain
    HAVE_COMPILED_BACKENDS = False

__all__ = [
    "Backend",
    "BoundKernel",
    "CompiledKernel",
    "Zero",
    "available_backends",
    "bind_kernel",
    "get_backend",
    "register_backend",
    "HAVE_COMPILED_BACKENDS",
]
