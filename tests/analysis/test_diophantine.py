"""The from-scratch Diophantine solvers, cross-checked against brute
force and (as the paper does) against SymPy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.diophantine import (
    BoxedLinearSystem,
    count_lattice_points,
    extended_gcd,
    first_lattice_point,
    lattice_range_intersect,
    lattice_ranges_intersect_nonempty,
    solve_linear_2var,
    solve_linear_nvar,
)

ints = st.integers(-50, 50)
small = st.integers(-8, 8)


class TestExtendedGcd:
    @given(a=ints, b=ints)
    @settings(max_examples=300, deadline=None)
    def test_bezout_identity(self, a, b):
        g, x, y = extended_gcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g

    def test_zero_zero(self):
        g, x, y = extended_gcd(0, 0)
        assert g == 0 and 0 * x + 0 * y == 0

    def test_negative_inputs(self):
        g, x, y = extended_gcd(-12, 18)
        assert g == 6
        assert -12 * x + 18 * y == 6


class TestSolve2Var:
    @given(a=ints, b=ints, c=ints)
    @settings(max_examples=300, deadline=None)
    def test_solutions_verify(self, a, b, c):
        line = solve_linear_2var(a, b, c)
        if line is None:
            g = math.gcd(a, b)
            if g != 0:
                assert c % g != 0
            else:
                assert c != 0
        else:
            for t in (-3, 0, 5):
                x, y = line.at(t)
                if a == 0 and b == 0:
                    continue  # whole-plane case: checked separately
                assert a * x + b * y == c

    def test_whole_plane(self):
        line = solve_linear_2var(0, 0, 0)
        assert line is not None

    def test_inconsistent_degenerate(self):
        assert solve_linear_2var(0, 0, 5) is None
        assert solve_linear_2var(0, 4, 2) is None
        assert solve_linear_2var(4, 0, 2) is None

    def test_classic(self):
        line = solve_linear_2var(3, 5, 1)
        x, y = line.at(0)
        assert 3 * x + 5 * y == 1

    @pytest.mark.parametrize("a,b,c", [(2, 4, 7), (6, 9, 5), (10, 15, 4)])
    def test_gcd_obstruction(self, a, b, c):
        assert solve_linear_2var(a, b, c) is None

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.abc import x, y
        from sympy.solvers.diophantine import diophantine

        for a, b, c in [(3, 5, 1), (12, 18, 6), (7, -11, 13), (4, 6, 3)]:
            ours = solve_linear_2var(a, b, c)
            theirs = diophantine(a * x + b * y - c)
            assert (ours is None) == (len(theirs) == 0)


def brute_intersect(s1, t1, n1, s2, t2, n2, delta):
    a = {s1 + t1 * k for k in range(n1)} if t1 else {s1}
    b = {s2 + t2 * k + delta for k in range(n2)} if t2 else {s2 + delta}
    return bool(a & b)


class TestLatticeRangeIntersect:
    @given(
        s1=small, t1=st.integers(0, 5), n1=st.integers(1, 8),
        s2=small, t2=st.integers(0, 5), n2=st.integers(1, 8),
        delta=small,
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_brute_force(self, s1, t1, n1, s2, t2, n2, delta):
        n1e = n1 if t1 else 1
        n2e = n2 if t2 else 1
        got = lattice_range_intersect(s1, t1, n1e, s2, t2, n2e, delta)
        want = brute_intersect(s1, t1, n1e, s2, t2, n2e, delta)
        assert (got is not None) == want
        if got is not None:
            k1, k2 = got
            assert 0 <= k1 < n1e and 0 <= k2 < n2e
            assert s1 + t1 * k1 == s2 + t2 * k2 + delta

    def test_red_black_never_meet(self):
        # red lattice {1,3,...} vs black {2,4,...} shifted by +-1: meets;
        # but red vs red shifted by 1 never meets (the GSRB safety core).
        assert not lattice_ranges_intersect_nonempty(1, 2, 50, 1, 2, 50, 1)
        assert lattice_ranges_intersect_nonempty(1, 2, 50, 2, 2, 50, 1)

    def test_empty_ranges(self):
        assert lattice_range_intersect(0, 1, 0, 0, 1, 5) is None

    def test_negative_stride_rejected(self):
        with pytest.raises(ValueError):
            lattice_range_intersect(0, -1, 5, 0, 1, 5)

    def test_huge_domains_stay_fast(self):
        # The whole point: no enumeration. 10^9-point lattices, instant.
        assert lattice_ranges_intersect_nonempty(
            0, 2, 10**9, 1, 2, 10**9, 3
        )
        assert not lattice_ranges_intersect_nonempty(
            0, 2, 10**9, 1, 2, 10**9, 2
        )


class TestSolveNVar:
    @given(
        coeffs=st.lists(ints, min_size=1, max_size=5),
        c=ints,
    )
    @settings(max_examples=300, deadline=None)
    def test_solutions_verify(self, coeffs, c):
        sol = solve_linear_nvar(coeffs, c)
        g = 0
        for a in coeffs:
            g = math.gcd(g, a)
        solvable = (c == 0) if g == 0 else (c % g == 0)
        assert (sol is not None) == solvable
        if sol is not None:
            assert sum(a * x for a, x in zip(coeffs, sol)) == c

    def test_empty(self):
        assert solve_linear_nvar([], 0) == []
        assert solve_linear_nvar([], 1) is None


class TestBoxedLinearSystem:
    def test_simple_feasible(self):
        sys = BoxedLinearSystem([[1, 1]], [5], [0, 0], [5, 5])
        sol = sys.solve()
        assert sol is not None and sum(sol) == 5

    def test_bounds_exclude_solutions(self):
        sys = BoxedLinearSystem([[1, 1]], [50], [0, 0], [5, 5])
        assert sys.solve() is None

    def test_gcd_infeasible(self):
        sys = BoxedLinearSystem([[2, 4]], [3], [-10, -10], [10, 10])
        assert sys.solve() is None

    def test_multi_row(self):
        # x + y = 4, x - y = 2 -> (3, 1)
        sys = BoxedLinearSystem([[1, 1], [1, -1]], [4, 2], [0, 0], [10, 10])
        assert sys.solve() == [3, 1]

    def test_inconsistent_rows(self):
        sys = BoxedLinearSystem([[1, 1], [1, 1]], [4, 5], [0, 0], [10, 10])
        assert sys.solve() is None

    def test_empty_box(self):
        sys = BoxedLinearSystem([[1]], [0], [3], [2])
        assert sys.solve() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxedLinearSystem([[1, 2]], [0], [0], [5])
        with pytest.raises(ValueError):
            BoxedLinearSystem([[1]], [0, 1], [0], [5])

    @given(
        a=st.integers(-4, 4), b=st.integers(-4, 4), c2=st.integers(-4, 4),
        rhs=st.integers(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, a, b, c2, rhs):
        lo, hi = -3, 3
        sys = BoxedLinearSystem([[a, b, c2]], [rhs], [lo] * 3, [hi] * 3)
        got = sys.solve()
        want = any(
            a * x + b * y + c2 * z == rhs
            for x in range(lo, hi + 1)
            for y in range(lo, hi + 1)
            for z in range(lo, hi + 1)
        )
        assert (got is not None) == want
        if got:
            assert a * got[0] + b * got[1] + c2 * got[2] == rhs


class TestLatticeHelpers:
    def test_count(self):
        assert count_lattice_points(1, 7, 2) == 3
        assert count_lattice_points(1, 8, 2) == 4
        assert count_lattice_points(5, 5, 1) == 0
        assert count_lattice_points(5, 6, 0) == 1

    def test_count_rejects_negative(self):
        with pytest.raises(ValueError):
            count_lattice_points(0, 5, -1)

    def test_first_lattice_point(self):
        assert first_lattice_point(1, 2, 5, 7) == 3
        assert first_lattice_point(1, 2, 5, 8) is None
        assert first_lattice_point(1, 2, 3, 9) is None  # out of range
        assert first_lattice_point(4, 0, 1, 4) == 0
        assert first_lattice_point(4, 0, 1, 5) is None
