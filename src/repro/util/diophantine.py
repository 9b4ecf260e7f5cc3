"""Linear Diophantine equation solvers over bounded (finite) domains.

This module is the numeric heart of Snowflake's dependence analysis
(paper SectionIII).  Dependence questions about strided stencil domains
reduce to the existence of *integer* solutions of linear equations whose
unknowns are loop counters constrained to finite intervals:

    s1 + t1*k1 == s2 + t2*k2 + delta,   0 <= k1 < n1,  0 <= k2 < n2

The classic theory (extended Euclid / extended gcd) decides solvability
over the integers; Snowflake's twist is restricting the solution family
to the finite iteration domain, which removes the false dependencies an
infinite-domain analysis (e.g. Halide's interval analysis) would report.

Everything here is implemented from first principles (no sympy); the test
suite cross-checks these routines against both brute force and sympy's
``diophantine`` solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "extended_gcd",
    "solve_linear_2var",
    "SolutionLine",
    "lattice_range_intersect",
    "lattice_ranges_intersect_nonempty",
    "solve_linear_nvar",
    "BoxedLinearSystem",
    "count_lattice_points",
    "first_lattice_point",
]


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y == g``.

    ``g`` is always non-negative; ``gcd(0, 0) == 0`` with witnesses (0, 0).
    Iterative to avoid recursion limits on adversarial inputs.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class SolutionLine:
    """The integer solutions of ``a*x + b*y == c`` form a line.

    ``(x, y) = (x0 + step_x * t, y0 + step_y * t)`` for all integers ``t``.
    """

    x0: int
    y0: int
    step_x: int
    step_y: int

    def at(self, t: int) -> tuple[int, int]:
        return (self.x0 + self.step_x * t, self.y0 + self.step_y * t)


def solve_linear_2var(a: int, b: int, c: int) -> SolutionLine | None:
    """General solution of ``a*x + b*y == c`` over the integers.

    Returns ``None`` when no integer solution exists.  Degenerate cases
    (``a == 0`` and/or ``b == 0``) are handled explicitly; when the
    solution set is the whole plane (``a == b == c == 0``) the returned
    line is the x-axis direction with a note that y is unconstrained —
    callers that need the full 2-D family should special-case this, and
    the bounded-existence helpers below do.
    """
    if a == 0 and b == 0:
        if c != 0:
            return None
        # Every (x, y) is a solution; represent the x-axis sweep.
        return SolutionLine(0, 0, 1, 0)
    if a == 0:
        if c % b != 0:
            return None
        return SolutionLine(0, c // b, 1, 0)
    if b == 0:
        if c % a != 0:
            return None
        return SolutionLine(c // a, 0, 0, 1)
    g, x, y = extended_gcd(a, b)
    if c % g != 0:
        return None
    scale = c // g
    return SolutionLine(x * scale, y * scale, b // g, -(a // g))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


#: the bound standing for "unbounded" in a ``t`` interval
T_UNBOUNDED = 1 << 62


def _t_interval(v0: int, step: int, lo: int, hi: int) -> tuple[int, int] | None:
    """Integer ``t`` interval with ``lo <= v0 + step*t <= hi`` (inclusive).

    Returns ``None`` for an empty interval.  ``step == 0`` means the value
    is fixed: the interval is all of Z (``±T_UNBOUNDED``) if
    ``lo <= v0 <= hi``, else empty.
    """
    if lo > hi:
        return None
    if step == 0:
        if lo <= v0 <= hi:
            return (-T_UNBOUNDED, T_UNBOUNDED)
        return None
    if step > 0:
        t_lo = _ceil_div(lo - v0, step)
        t_hi = _floor_div(hi - v0, step)
    else:
        t_lo = _ceil_div(hi - v0, step)
        t_hi = _floor_div(lo - v0, step)
    if t_lo > t_hi:
        return None
    return (t_lo, t_hi)


def lattice_range_intersect(
    s1: int, t1: int, n1: int, s2: int, t2: int, n2: int, delta: int = 0
) -> tuple[int, int] | None:
    """Find ``(k1, k2)`` with ``s1 + t1*k1 == s2 + t2*k2 + delta``.

    ``0 <= k1 < n1`` and ``0 <= k2 < n2``; strides may be zero (pinned
    index) but not negative.  Returns one witness pair or ``None``.

    This is the per-dimension dependence test: does the write lattice
    ``{s1 + t1*k1}`` meet the (shifted) read lattice ``{s2 + t2*k2 + delta}``
    inside the finite iteration bounds?
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("strides must be non-negative")
    if n1 <= 0 or n2 <= 0:
        return None
    c = s2 + delta - s1
    # t1*k1 - t2*k2 == c
    line = solve_linear_2var(t1, -t2, c)
    if line is None:
        return None
    if t1 == 0 and t2 == 0:
        # Both pinned: equality already verified by solve (c == 0 branch).
        return (0, 0) if c == 0 else None
    iv1 = _t_interval(line.x0, line.step_x, 0, n1 - 1)
    if iv1 is None:
        return None
    iv2 = _t_interval(line.y0, line.step_y, 0, n2 - 1)
    if iv2 is None:
        return None
    lo = max(iv1[0], iv2[0])
    hi = min(iv1[1], iv2[1])
    if lo > hi:
        return None
    k1, k2 = line.at(lo)
    return (k1, k2)


def lattice_ranges_intersect_nonempty(
    s1: int, t1: int, n1: int, s2: int, t2: int, n2: int, delta: int = 0
) -> bool:
    """Existence form of :func:`lattice_range_intersect`."""
    return lattice_range_intersect(s1, t1, n1, s2, t2, n2, delta) is not None


def solve_linear_nvar(coeffs: Sequence[int], c: int) -> list[int] | None:
    """One integer solution of ``sum(coeffs[i] * x[i]) == c`` or ``None``.

    Classic recursive extended-gcd construction: fold the coefficient list
    pairwise, keeping Bezout witnesses.  Unbounded variables — bounded
    existence is handled by :class:`BoxedLinearSystem`.
    """
    coeffs = list(coeffs)
    if not coeffs:
        return [] if c == 0 else None
    if len(coeffs) == 1:
        a = coeffs[0]
        if a == 0:
            return [0] if c == 0 else None
        if c % a != 0:
            return None
        return [c // a]
    # g = gcd of all; c must be divisible by it.
    g = 0
    for a in coeffs:
        g = math.gcd(g, a)
    if g == 0:
        return [0] * len(coeffs) if c == 0 else None
    if c % g != 0:
        return None
    # Reduce: solve a0*x0 + g_rest*y == c where g_rest = gcd(coeffs[1:]),
    # then distribute y across the tail recursively.
    a0 = coeffs[0]
    g_rest = 0
    for a in coeffs[1:]:
        g_rest = math.gcd(g_rest, a)
    if g_rest == 0:
        # Tail contributes nothing; x0 alone must absorb c.
        if a0 == 0:
            return [0] * len(coeffs) if c == 0 else None
        if c % a0 != 0:
            return None
        return [c // a0] + [0] * (len(coeffs) - 1)
    line = solve_linear_2var(a0, g_rest, c)
    if line is None:
        return None
    x0, y = line.x0, line.y0
    tail = solve_linear_nvar(coeffs[1:], g_rest * y)
    assert tail is not None
    return [x0] + tail


class BoxedLinearSystem:
    """Existence of integer solutions of ``A x == b`` with ``lo <= x <= hi``.

    Used for the multi-dimensional / multi-variable dependence questions
    that do not decompose per dimension (e.g. cross-grid affine maps with
    coupled scales).  The solver does exact integer Gaussian elimination
    to a triangular form and then a bounded backtracking search over the
    free variables, pruned with interval arithmetic.  Stencil systems are
    tiny (<= a handful of variables), so the search is instantaneous; a
    ``node_budget`` guards against pathological inputs.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        rhs: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        node_budget: int = 200_000,
    ) -> None:
        self.rows = [list(map(int, r)) for r in rows]
        self.rhs = list(map(int, rhs))
        self.lows = list(map(int, lows))
        self.highs = list(map(int, highs))
        self.node_budget = int(node_budget)
        if any(len(r) != len(self.lows) for r in self.rows):
            raise ValueError("row width mismatch")
        if len(self.rhs) != len(self.rows):
            raise ValueError("rhs length mismatch")
        if len(self.lows) != len(self.highs):
            raise ValueError("bounds length mismatch")

    def solve(self) -> list[int] | None:
        """Return a witness solution within bounds, or ``None``."""
        n = len(self.lows)
        if any(lo > hi for lo, hi in zip(self.lows, self.highs)):
            return None
        rows = [r[:] + [b] for r, b in zip(self.rows, self.rhs)]
        rows = _fraction_free_triangularize(rows, n)
        if rows is None:
            return None
        self._nodes = 0
        return self._search(rows, n, [None] * n, n - 1)

    # -- internals ---------------------------------------------------------

    def _search(
        self, rows: list[list[int]], n: int, assign: list[int | None], var: int
    ) -> list[int] | None:
        if var < 0:
            if _check_rows(rows, assign):
                return [int(v) for v in assign]  # type: ignore[arg-type]
            return None
        lo, hi = self.lows[var], self.highs[var]
        lo, hi = self._tighten(rows, assign, var, lo, hi)
        if lo > hi:
            return None
        for v in range(lo, hi + 1):
            self._nodes += 1
            if self._nodes > self.node_budget:
                raise RuntimeError("Diophantine search budget exhausted")
            assign[var] = v
            got = self._search(rows, n, assign, var - 1)
            if got is not None:
                return got
        assign[var] = None
        return None

    def _tighten(
        self,
        rows: list[list[int]],
        assign: list[int | None],
        var: int,
        lo: int,
        hi: int,
    ) -> tuple[int, int]:
        """Use rows whose only unassigned variable is ``var`` to pin it."""
        for row in rows:
            coeff = row[var]
            if coeff == 0:
                continue
            residual = row[-1]
            ok = True
            for j, a in enumerate(row[:-1]):
                if j == var or a == 0:
                    continue
                if assign[j] is None:
                    ok = False
                    break
                residual -= a * assign[j]
            if not ok:
                continue
            if residual % coeff != 0:
                return (1, 0)  # empty
            v = residual // coeff
            lo = max(lo, v)
            hi = min(hi, v)
        return (lo, hi)


def _fraction_free_triangularize(
    rows: list[list[int]], n: int
) -> list[list[int]] | None:
    """Integer row-reduce ``[A | b]``; ``None`` when inconsistent over Q."""
    rows = [r[:] for r in rows]
    pivot_row = 0
    for col in range(n):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        p = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            q = rows[r][col]
            if q == 0:
                continue
            l = p * q // math.gcd(p, q)
            f1, f2 = l // q, l // p
            rows[r] = [f1 * x - f2 * y for x, y in zip(rows[r], rows[pivot_row])]
            g = 0
            for x in rows[r]:
                g = math.gcd(g, x)
            if g > 1:
                rows[r] = [x // g for x in rows[r]]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    for row in rows:
        if all(a == 0 for a in row[:-1]) and row[-1] != 0:
            return None
    return rows


def _check_rows(rows: list[list[int]], assign: Sequence[int | None]) -> bool:
    for row in rows:
        s = row[-1]
        for a, v in zip(row[:-1], assign):
            assert v is not None
            s -= a * v
        if s != 0:
            return False
    return True


def count_lattice_points(start: int, stop: int, step: int) -> int:
    """Number of points of ``range(start, stop, step)`` with ``step >= 0``.

    ``step == 0`` denotes a pinned index: one point if ``start < stop``.
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    if stop <= start:
        return 0
    if step == 0:
        return 1
    return (stop - start + step - 1) // step


def first_lattice_point(
    s: int, t: int, n: int, value: int
) -> int | None:
    """Index ``k`` in ``[0, n)`` with ``s + t*k == value``, else ``None``."""
    if n <= 0:
        return None
    if t == 0:
        return 0 if s == value else None
    if (value - s) % t != 0:
        return None
    k = (value - s) // t
    if 0 <= k < n:
        return k
    return None

