""":class:`Stencil` and :class:`StencilGroup` — the executable DSL objects.

A ``Stencil`` ties together (paper TableI / Fig.2):

* a body expression (components combined arithmetically),
* an output grid name — which may be one of the input grids, giving the
  *in-place* stencils (GSRB, Chebyshev) that Halide/Pochoir/SDSL cannot
  express,
* a domain (:class:`RectDomain` or :class:`DomainUnion`) over which the
  body is applied, and
* optionally an affine *output map* ``out[S*i + O] = body(i)`` used by
  interpolation-style operators that scatter to a finer grid.

``StencilGroup`` is a sequence of stencils executed back-to-back; the
group is the unit over which cross-stencil dependence analysis finds
parallelism and places barriers.

Both expose ``compile(backend=...)`` returning a cached Python callable —
the paper's JIT micro-compiler entry point.  ``compile(fallback=(...))``
is the one way to ask for a backend chain that degrades instead of
failing (:mod:`repro.resilience.policy`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .domains import DomainUnion, RectDomain, as_domain
from .expr import Expr, as_expr
from .flatten import FlatStencil, flatten_expr

__all__ = ["Stencil", "StencilGroup", "OutputMap"]


class OutputMap:
    """Affine write map ``out[scale * i + offset] = value(i)``."""

    __slots__ = ("scale", "offset")

    def __init__(
        self, scale: Sequence[int] | int = 1, offset: Sequence[int] | int = 0,
        ndim: int | None = None,
    ) -> None:
        if isinstance(scale, int):
            if ndim is None:
                raise ValueError("ndim required for scalar scale")
            scale = (scale,) * ndim
        if isinstance(offset, int):
            if ndim is None:
                raise ValueError("ndim required for scalar offset")
            offset = (offset,) * ndim
        sc = tuple(int(s) for s in scale)
        off = tuple(int(o) for o in offset)
        if len(sc) != len(off):
            raise ValueError("scale/offset dimensionality mismatch")
        if any(s <= 0 for s in sc):
            raise ValueError("output scales must be positive")
        object.__setattr__(self, "scale", sc)
        object.__setattr__(self, "offset", off)

    def __setattr__(self, *a):
        raise AttributeError("OutputMap is immutable")

    @property
    def ndim(self) -> int:
        return len(self.scale)

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.scale) and all(o == 0 for o in self.offset)

    def apply(self, point: Sequence[int]) -> tuple[int, ...]:
        return tuple(s * p + o for s, p, o in zip(self.scale, point, self.offset))

    def signature(self) -> str:
        if self.is_identity():
            return "id"
        return f"{list(self.scale)}*i+{list(self.offset)}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OutputMap)
            and other.scale == self.scale
            and other.offset == self.offset
        )

    def __hash__(self) -> int:
        return hash(("OutputMap", self.scale, self.offset))


class Stencil:
    """Apply ``body`` over ``domain``, writing grid ``output``.

    The constructor accepts both argument orders used in the paper's
    listings — ``Stencil(body, "out", domain)`` and
    ``Stencil("out", body, domain)`` — and normalizes to the former.
    """

    def __init__(
        self,
        body: "Expr | str",
        output: "str | Expr",
        domain: "RectDomain | DomainUnion",
        *,
        output_map: OutputMap | None = None,
        iteration_grid: str | None = None,
        name: str | None = None,
    ) -> None:
        if isinstance(body, str) and isinstance(output, Expr):
            body, output = output, body
        if not isinstance(output, str) or not output:
            raise TypeError("stencil output must be a grid name")
        self.body: Expr = as_expr(body)
        self.output: str = output
        self.domain: DomainUnion = as_domain(domain)
        self.name = name or f"stencil_{output}"
        flat = flatten_expr(self.body, self.domain.ndim)
        if output_map is None:
            output_map = OutputMap((1,) * flat.ndim, (0,) * flat.ndim)
        if output_map.ndim != flat.ndim:
            raise ValueError("output map dimensionality mismatch")
        self.output_map = output_map
        #: grid whose shape the domain's relative indices resolve against.
        #: Defaults to the output grid; operators with scaled output maps
        #: (interpolation) name the grid that *is* their iteration space
        #: so reusable relative domains like ``interior()`` keep meaning
        #: "the interior of the swept grid".
        self.iteration_grid = iteration_grid
        if iteration_grid is not None and not isinstance(iteration_grid, str):
            raise TypeError("iteration_grid must be a grid name")
        self._flat = flat

    @property
    def flat(self) -> FlatStencil:
        """The canonical lowered body (cached at construction)."""
        return self._flat

    def opt_report(self):
        """The :class:`~repro.kernel.optimize.OptReport` of the
        optimized kernel body."""
        from ..kernel import body_for  # local import: core <- kernel

        return body_for(self, True)[1]

    @property
    def ndim(self) -> int:
        return self._flat.ndim

    def grids(self) -> set[str]:
        """All grids touched (reads plus the output)."""
        return self._flat.grids() | {self.output}

    def input_grids(self) -> set[str]:
        return self._flat.grids()

    def params(self) -> set[str]:
        return self._flat.params()

    def is_inplace(self) -> bool:
        """Does the stencil read the grid it writes (e.g. GSRB)?"""
        return self.output in self._flat.grids()

    def signature(self) -> str:
        it = f"@{self.iteration_grid}" if self.iteration_grid else ""
        return (
            f"S[{self.output}<{self.output_map.signature()}>{it}"
            f"={self._flat.signature()};{self.domain.signature()}]"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Stencil)
            and other.output == self.output
            and other.output_map == self.output_map
            and other.iteration_grid == self.iteration_grid
            and other.domain == self.domain
            and other._flat == self._flat
        )

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stencil({self.name}: {self.signature()})"

    def compile(
        self,
        backend: str = "numpy",
        shapes: Mapping[str, Sequence[int]] | None = None,
        dtype=None,
        *,
        fallback: Sequence[str] | None = None,
        **options,
    ) -> Callable:
        """JIT-compile this stencil alone; see :meth:`StencilGroup.compile`."""
        return StencilGroup([self], name=self.name).compile(
            backend=backend, shapes=shapes, dtype=dtype,
            fallback=fallback, **options
        )


class StencilGroup:
    """An ordered sequence of stencils with sequential semantics.

    Grouping exposes cross-stencil parallelism to the analysis engine:
    the compiler may run member stencils concurrently wherever the
    Diophantine dependence test proves non-interference, inserting
    barriers only where required (paper SectionIV-A).
    """

    def __init__(self, stencils: Iterable[Stencil], name: str | None = None) -> None:
        sl = tuple(stencils)
        if not sl:
            raise ValueError("StencilGroup requires at least one stencil")
        if any(not isinstance(s, Stencil) for s in sl):
            raise TypeError("StencilGroup members must be Stencil")
        nd = sl[0].ndim
        if any(s.ndim != nd for s in sl):
            raise ValueError("all stencils in a group must share dimensionality")
        self.stencils = sl
        self.name = name or "group"

    @property
    def ndim(self) -> int:
        return self.stencils[0].ndim

    def __iter__(self) -> Iterator[Stencil]:
        return iter(self.stencils)

    def __len__(self) -> int:
        return len(self.stencils)

    def __getitem__(self, i: int) -> Stencil:
        return self.stencils[i]

    def __add__(self, other: "StencilGroup | Stencil") -> "StencilGroup":
        if isinstance(other, Stencil):
            return StencilGroup(self.stencils + (other,), name=self.name)
        if isinstance(other, StencilGroup):
            return StencilGroup(self.stencils + other.stencils, name=self.name)
        return NotImplemented

    def grids(self) -> set[str]:
        out: set[str] = set()
        for s in self.stencils:
            out |= s.grids()
        return out

    def params(self) -> set[str]:
        out: set[str] = set()
        for s in self.stencils:
            out |= s.params()
        return out

    def signature(self) -> str:
        return "G[" + ";".join(s.signature() for s in self.stencils) + "]"

    def __eq__(self, other) -> bool:
        return isinstance(other, StencilGroup) and other.stencils == self.stencils

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover
        return f"StencilGroup({self.name}, {len(self.stencils)} stencils)"

    def compile(
        self,
        backend: str = "numpy",
        shapes: Mapping[str, Sequence[int]] | None = None,
        dtype=None,
        *,
        fallback: Sequence[str] | None = None,
        **options,
    ) -> Callable:
        """Compile via the named micro-compiler backend.

        Returns a Python callable ``fn(**grids, **params)`` mutating the
        output grids in place.  When ``shapes`` is omitted the backend
        shape-specializes lazily on first call and re-uses the cached
        kernel for subsequent same-shape calls.

        ``fallback`` names backends tried in order when ``backend``
        fails (broken toolchain, compile timeout, corrupted cache); it
        routes through the resilient compile path and returns a
        :class:`~repro.resilience.policy.ResilientKernel` that records
        which backend actually serves.
        """
        from ..backends import get_backend  # local import: avoid cycle

        if fallback is not None:
            from ..resilience.policy import ResilientKernel

            return ResilientKernel(
                self, backend, shapes, dtype, fallback, options
            )
        return get_backend(backend).compile(
            self, shapes=shapes, dtype=dtype, **options
        )
