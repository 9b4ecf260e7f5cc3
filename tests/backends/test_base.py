"""Backend registry and CompiledKernel plumbing."""

import numpy as np
import pytest

from repro.backends import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray

LAP = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
INTERIOR = RectDomain((1, 1), (-1, -1))


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for expected in ("python", "numpy", "c", "openmp", "opencl-sim",
                         "cuda-sim"):
            assert expected in names

    def test_each_backend_listed_once_by_canonical_name(self):
        names = available_backends()
        backends = [get_backend(n) for n in names]
        assert [b.name for b in backends] == names  # no alias listed
        assert len({id(b) for b in backends}) == len(names)
        for alias in ("np", "omp", "ref", "cl", "opencl", "cuda", "c99"):
            assert alias not in names
            assert get_backend(alias).name in names

    def test_aliases_resolve_to_same_backend(self):
        assert get_backend("np") is get_backend("numpy")
        assert get_backend("omp") is get_backend("openmp")
        assert get_backend("ref") is get_backend("python")
        assert get_backend("cl") is get_backend("opencl-sim")

    def test_unknown_backend_lists_options(self):
        with pytest.raises(KeyError, match="available"):
            get_backend("tpu")

    def test_register_custom_and_alias(self):
        class Null(Backend):
            name = "null-test-backend"

            def specializer(self, group, **options):
                def specialize(shapes, dtype):
                    return lambda arrays, params: None

                return specialize

        register_backend(Null(), "nul")
        try:
            assert get_backend("nul").name == "null-test-backend"
            # a registered no-op backend is callable end to end
            s = Stencil(LAP, "out", INTERIOR)
            out = np.full((8, 8), -1.0)
            s.compile(backend="nul")(u=np.ones((8, 8)), out=out)
            assert (out == -1.0).all()
        finally:
            # the registry is process-global: leave no test pollution
            from repro.backends.base import _REGISTRY

            _REGISTRY.pop("null-test-backend", None)
            _REGISTRY.pop("nul", None)

    def test_register_empty_name_rejected(self):
        class Bad(Backend):
            name = ""

            def specializer(self, group, **options):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError):
            register_backend(Bad())


class TestCompiledKernel:
    def test_eager_shapes_compile_immediately(self):
        s = Stencil(LAP, "out", INTERIOR)
        k = s.compile(backend="numpy", shapes={"u": (8, 8), "out": (8, 8)})
        assert k.specializations == 1

    def test_lazy_compile_on_first_call(self, rng):
        s = Stencil(LAP, "out", INTERIOR)
        k = s.compile(backend="numpy")
        assert k.specializations == 0
        k(u=rng.random((8, 8)), out=np.zeros((8, 8)))
        assert k.specializations == 1

    def test_dtype_is_part_of_the_key(self, rng):
        s = Stencil(LAP, "out", INTERIOR)
        k = s.compile(backend="numpy")
        k(u=rng.random((8, 8)), out=np.zeros((8, 8)))
        u32 = rng.random((8, 8)).astype(np.float32)
        k(u=u32, out=np.zeros((8, 8), np.float32))
        assert k.specializations == 2

    def test_group_property_exposed(self):
        s = Stencil(LAP, "out", INTERIOR)
        k = s.compile(backend="numpy")
        assert isinstance(k.group, StencilGroup)
        assert len(k.group) == 1
