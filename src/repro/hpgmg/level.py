"""Multigrid levels: grids with ghost zones, coefficients, diagonals.

A :class:`Level` owns the numpy storage for one grid spacing of the
hierarchy: the solution ``x``, right-hand side ``rhs``, residual
``res``, a ping-pong scratch ``tmp``, and — for variable-coefficient
problems — the face-centered ``beta_d`` arrays plus the precomputed
``lam = 1/diag(A)`` grid the smoothers read (the paper's ``lambda``
mesh, Fig.4 line9).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Level", "default_beta"]


def default_beta(*coords: np.ndarray) -> np.ndarray:
    """Smooth, strictly positive heterogeneous coefficient field.

    ``coords`` are physical coordinates in [0, 1]^d, one broadcastable
    axis per dimension (the :meth:`Level.cell_centers` convention).
    """
    acc = 1.0
    for d, x in enumerate(coords):
        acc = acc + 0.25 * np.sin(2.0 * np.pi * x + 0.5 * d)
    return acc


class Level:
    """One grid spacing of a cell-centered multigrid hierarchy.

    ``n`` interior cells per dimension, one ghost cell per side, so every
    array has shape ``(n+2,)*ndim``; mesh spacing ``h = 1/n``; the cell
    center of interior index ``i`` is ``(i - 0.5) * h``.

    With ``coefficients="variable"``, ``beta_fn(*coords)`` gives the
    coefficient β at physical coordinates: it is called once per face
    field with one broadcastable axis per dimension (the
    :meth:`cell_centers` convention, shifted half a cell down in the
    face's dimension) and must return an array broadcastable to
    :attr:`shape` (a scalar is fine); anything else raises
    ``ValueError``.  It defaults to :func:`default_beta`.
    """

    def __init__(
        self,
        n: int,
        ndim: int = 3,
        *,
        coefficients: str = "constant",
        beta_fn: Callable[..., np.ndarray] | None = None,
        dtype=np.float64,
    ) -> None:
        if n < 2:
            raise ValueError("level needs at least 2 interior cells")
        if coefficients not in ("constant", "variable"):
            raise ValueError("coefficients must be 'constant' or 'variable'")
        self.n = int(n)
        self.ndim = int(ndim)
        self.h = 1.0 / self.n
        self.coefficients = coefficients
        self.dtype = np.dtype(dtype)
        shape = (self.n + 2,) * self.ndim
        self.shape = shape
        self.grids: dict[str, np.ndarray] = {
            name: np.zeros(shape, dtype=self.dtype)
            for name in ("x", "rhs", "res", "tmp")
        }
        if coefficients == "variable":
            beta_fn = beta_fn or default_beta
            for d in range(self.ndim):
                self.grids[f"beta_{d}"] = self._face_field(d, beta_fn)
            self.grids["lam"] = self._inverse_diagonal()

    # -- coefficient setup ----------------------------------------------------

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Physical cell-center coordinates as open-grid axes, one per
        dimension (the ``np.ogrid`` convention): axis ``d`` has shape
        ``n+2`` along dimension ``d`` and 1 elsewhere, so the axes
        broadcast to :attr:`shape` without ever being materialized.

        Ghost cells get the (out-of-domain) continuation of the formula.
        """
        axis = (np.arange(self.n + 2) - 0.5) * self.h
        return tuple(
            axis.reshape([-1 if k == d else 1 for k in range(self.ndim)])
            for d in range(self.ndim)
        )

    def _face_field(self, d: int, beta_fn) -> np.ndarray:
        """Evaluate β on the *low faces* of dimension ``d``.

        ``beta_d[i]`` sits at the face between cells ``i-1`` and ``i``,
        i.e. at coordinate ``(i-1) * h`` in dimension ``d`` and cell
        centers elsewhere.
        """
        coords = list(self.cell_centers())
        coords[d] = coords[d] - 0.5 * self.h
        beta = np.asarray(beta_fn(*coords))
        try:
            beta = np.broadcast_to(beta, self.shape)
        except ValueError:
            raise ValueError(
                f"beta_fn returned shape {beta.shape}, which does not "
                f"broadcast to the level's grid {self.shape}"
            ) from None
        out = np.empty(self.shape, dtype=self.dtype)
        out[...] = beta
        return out

    def _inverse_diagonal(self) -> np.ndarray:
        """``lam = 1 / diag(A)`` for the VC operator (interior cells).

        diag(A)_i = (1/h²) * sum_d (beta_d[i] + beta_d[i+e_d]).
        Ghost entries are left at 1.0; smoothers never read them.
        The diagonal accumulates in ``lam``'s own interior, in the
        order ``((b_0 + b_0') + (b_1 + b_1')) + …``, so the peak is one
        interior-sized temporary beyond ``lam``.
        """
        lam = np.ones(self.shape, dtype=self.dtype)
        inner = self.interior
        diag = lam[inner]
        pair = None
        for d in range(self.ndim):
            beta = self.grids[f"beta_{d}"]
            hi_idx = tuple(
                slice(2, None) if k == d else slice(1, -1)
                for k in range(self.ndim)
            )
            if d == 0:
                np.add(beta[inner], beta[hi_idx], out=diag)
                continue
            pair = np.add(beta[inner], beta[hi_idx], out=pair)
            diag += pair
        diag /= self.h * self.h
        np.divide(1.0, diag, out=diag)
        return lam

    # -- views and norms --------------------------------------------------------

    @property
    def interior(self) -> tuple[slice, ...]:
        return tuple(slice(1, -1) for _ in range(self.ndim))

    def interior_of(self, name: str) -> np.ndarray:
        return self.grids[name][self.interior]

    @property
    def dof(self) -> int:
        """Degrees of freedom (interior unknowns)."""
        return self.n**self.ndim

    def zero(self, *names: str) -> None:
        for name in names:
            self.grids[name].fill(0.0)

    def norm(self, name: str, kind: str = "l2") -> float:
        """Interior norm of a grid: discrete L2 (h-weighted) or max."""
        v = self.interior_of(name)
        if kind == "l2":
            return float(np.sqrt(np.sum(v * v) / v.size))
        if kind == "max":
            return float(np.max(np.abs(v)))
        raise ValueError(f"unknown norm kind {kind!r}")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Level(n={self.n}, ndim={self.ndim}, "
            f"coefficients={self.coefficients!r})"
        )
