"""Weight containers: :class:`WeightArray` and :class:`SparseArray`.

A ``WeightArray`` is the nested-list notation from the paper (TableI): in
1-D an odd- or even-length list whose *middle* element is the stencil
centre; in N dimensions, lists nested N deep.  Entries may be plain
numbers **or stencil expressions** — the latter is how variable-coefficient
operators are written (paper Fig.4 line5 nests ``beta`` components inside
the weights of the ``mesh`` component).

A ``SparseArray`` is the equivalent hashmap notation: offset vector →
weight.  Both normalize to the same internal form: a mapping
``offset tuple -> number | Expr`` with zero entries dropped.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Iterator, Mapping, Sequence

from .expr import Constant, Expr, as_expr

__all__ = ["WeightArray", "SparseArray", "as_weights"]

WeightValue = "float | Expr"


def _is_zero(w) -> bool:
    if isinstance(w, numbers.Real):
        return float(w) == 0.0
    if isinstance(w, Constant):
        return w.value == 0.0
    return False


def _nested_shape(data) -> tuple[int, ...]:
    """Shape of a rectangular nested list; raises on raggedness."""
    if isinstance(data, (numbers.Real, Expr)):
        return ()
    if not isinstance(data, (list, tuple)):
        raise TypeError(f"weight entries must be numbers, Expr, or nested lists; got {type(data).__name__}")
    if len(data) == 0:
        raise ValueError("weight arrays may not contain empty lists")
    shapes = [_nested_shape(d) for d in data]
    first = shapes[0]
    if any(s != first for s in shapes[1:]):
        raise ValueError("ragged weight array")
    return (len(data),) + first


def _center(extent: int) -> int:
    """Centre index of one axis: the middle element (paper SectionII-A).

    Even extents round down, so a length-2 axis has offsets {0, +1} — this
    matches face-coefficient usage where a weight sits on the +1 face.
    """
    return (extent - 1) // 2


class _WeightsBase:
    """Shared behaviour: normalized offset->weight mapping."""

    _entries: dict[tuple[int, ...], object]
    _ndim: int

    @property
    def ndim(self) -> int:
        return self._ndim

    @property
    def entries(self) -> Mapping[tuple[int, ...], object]:
        """Read-only view of offset -> (number | Expr), zeros dropped."""
        return dict(self._entries)

    def offsets(self) -> list[tuple[int, ...]]:
        return sorted(self._entries.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], object]]:
        return iter(sorted(self._entries.items()))

    def __getitem__(self, offset: Sequence[int]):
        return self._entries.get(tuple(int(o) for o in offset), 0.0)

    def __contains__(self, offset: Sequence[int]) -> bool:
        return tuple(int(o) for o in offset) in self._entries

    def radius(self) -> int:
        """Maximum Chebyshev-norm offset — the stencil's reach."""
        if not self._entries:
            return 0
        return max(max(abs(c) for c in off) for off in self._entries)

    def signature(self) -> str:
        parts = []
        for off, w in sorted(self._entries.items()):
            ws = w.signature() if isinstance(w, Expr) else repr(float(w))
            parts.append(f"{list(off)}:{ws}")
        return "{" + ",".join(parts) + "}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, _WeightsBase):
            return NotImplemented
        if self._ndim != other._ndim:
            return False
        a = {k: (float(v) if isinstance(v, numbers.Real) else v) for k, v in self._entries.items()}
        b = {k: (float(v) if isinstance(v, numbers.Real) else v) for k, v in other._entries.items()}
        return a == b

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.signature()})"


class WeightArray(_WeightsBase):
    """Nested-list stencil weights centred on the middle element.

    >>> WeightArray([1, -2, 1]).entries
    {(-1,): 1.0, (1,): 1.0, (0,): -2.0}  # order may differ
    """

    def __init__(self, data: Sequence) -> None:
        shape = _nested_shape(data)
        if shape == ():
            raise TypeError("WeightArray requires a (nested) list of weights")
        self._ndim = len(shape)
        centers = tuple(_center(e) for e in shape)
        entries: dict[tuple[int, ...], object] = {}

        def visit(node, idx: tuple[int, ...]):
            if len(idx) == self._ndim:
                if not _is_zero(node):
                    off = tuple(i - c for i, c in zip(idx, centers))
                    entries[off] = (
                        float(node) if isinstance(node, numbers.Real) else node
                    )
                return
            for i, sub in enumerate(node):
                visit(sub, idx + (i,))

        visit(data, ())
        self._entries = entries
        self._shape = shape

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape


class SparseArray(_WeightsBase):
    """Hashmap stencil weights: ``{offset_vector: weight}`` (TableI).

    The natural notation for large-offset boundary stencils and asymmetric
    operators where nested lists would be mostly zeros.
    """

    def __init__(self, entries: Mapping[Sequence[int], object]) -> None:
        if not isinstance(entries, Mapping):
            raise TypeError("SparseArray requires a mapping offset -> weight")
        if not entries:
            raise ValueError("SparseArray requires at least one entry")
        norm: dict[tuple[int, ...], object] = {}
        ndim = None
        for off, w in entries.items():
            off_t = tuple(int(o) for o in off)
            if ndim is None:
                ndim = len(off_t)
            elif len(off_t) != ndim:
                raise ValueError("inconsistent offset dimensionality")
            if not isinstance(w, (numbers.Real, Expr)):
                raise TypeError(f"weight must be a number or Expr, got {type(w).__name__}")
            if not _is_zero(w):
                norm[off_t] = float(w) if isinstance(w, numbers.Real) else w
        assert ndim is not None
        self._ndim = ndim
        self._entries = norm


def as_weights(obj, ndim: int | None = None) -> _WeightsBase:
    """Coerce lists / dicts / numbers into a weight container.

    A bare number becomes a pure centre-point weight (``ndim`` required).
    """
    if isinstance(obj, _WeightsBase):
        return obj
    if isinstance(obj, Mapping):
        return SparseArray(obj)
    if isinstance(obj, (list, tuple)):
        return WeightArray(obj)
    if isinstance(obj, (numbers.Real, Expr)):
        if ndim is None:
            raise ValueError("ndim required to lift a scalar weight")
        return SparseArray({(0,) * ndim: obj})
    raise TypeError(f"cannot interpret {obj!r} as stencil weights")
