"""Simplex feasibility tests, cross-checked against scipy and a rational grid."""

from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from qccs.lp import LinearProgram, _pivot, convex_hull_member, feasible

from helpers import exact_hull_member


def verify(lp, witness, tol=1e-7):
    for coeffs, rhs in lp.constraints:
        lhs = sum(c * witness[v] for v, c in coeffs.items())
        assert abs(lhs - rhs) <= 10 * tol
    assert all(v >= -tol for v in witness.values())


class TestFeasible:
    def test_single_equation(self):
        lp = LinearProgram(["x"])
        lp.constrain({"x": 1.0}, 1.0)
        w = feasible(lp)
        assert w is not None and abs(w["x"] - 1.0) < 1e-9

    def test_infeasible_pair(self):
        lp = LinearProgram(["x", "y"])
        lp.constrain({"x": 1.0, "y": 1.0}, 1.0)
        lp.constrain({"x": 1.0, "y": -1.0}, 3.0)
        assert feasible(lp) is None  # needs y = -1 < 0

    def test_witness_reverifies(self):
        lp = LinearProgram(["a", "b", "c"])
        lp.constrain({"a": 1.0, "b": 2.0}, 2.0)
        lp.constrain({"b": 1.0, "c": 1.0}, 1.5)
        w = feasible(lp)
        assert w is not None
        verify(lp, w)

    def test_negative_rhs(self):
        lp = LinearProgram(["x", "y"])
        lp.constrain({"x": -1.0, "y": 1.0}, -2.0)
        w = feasible(lp)
        assert w is not None
        verify(lp, w)

    def test_no_constraints(self):
        lp = LinearProgram(["x"])
        assert feasible(lp) == {"x": 0.0}

    def test_empty_row_infeasible(self):
        lp = LinearProgram(["x"])
        lp.constrain({}, 0.5)
        assert feasible(lp) is None

    def test_redundant_rows(self):
        lp = LinearProgram(["x", "y"])
        lp.constrain({"x": 1.0, "y": 1.0}, 1.0)
        lp.constrain({"x": 2.0, "y": 2.0}, 2.0)
        w = feasible(lp)
        assert w is not None
        verify(lp, w)

    def test_objective_minimised(self):
        lp = LinearProgram(["x", "y"], objective={"x": 1.0})
        lp.constrain({"x": 1.0, "y": 1.0}, 1.0)
        w = feasible(lp)
        assert w is not None and abs(w["x"]) < 1e-9 and abs(w["y"] - 1.0) < 1e-9

    def test_agreement_with_scipy_on_random_systems(self):
        rng = np.random.default_rng(0)
        agree = 0
        for _ in range(120):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            a = np.round(rng.normal(size=(m, n)), 2)
            # half the time force feasibility by constructing b from a point
            if rng.random() < 0.5:
                x0 = np.abs(np.round(rng.normal(size=n), 2))
                b = a @ x0
            else:
                b = np.round(rng.normal(size=m), 2)
            lp = LinearProgram([f"x{j}" for j in range(n)])
            for i in range(m):
                lp.constrain({f"x{j}": a[i, j] for j in range(n)}, b[i])
            mine = feasible(lp)
            ref = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=[(0, None)] * n,
                          method="highs")
            assert (mine is not None) == ref.success
            if mine is not None:
                verify(lp, mine)
                agree += 1
        assert agree >= 30


class TestConvexHull:
    def test_target_is_a_point(self):
        w = convex_hull_member([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        assert w is not None and abs(w[0] - 1.0) < 1e-7

    def test_midpoint(self):
        w = convex_hull_member([[0.0], [1.0]], [0.5])
        assert w is not None and abs(w[0] - 0.5) < 1e-7 and abs(w[1] - 0.5) < 1e-7

    def test_outside_segment(self):
        assert convex_hull_member([[0.0], [1.0]], [1.5]) is None

    def test_no_points(self):
        assert convex_hull_member([], [0.5]) is None

    def test_weights_form_distribution(self):
        rng = np.random.default_rng(1)
        pts = [list(rng.random(3)) for _ in range(4)]
        target = np.average(pts, axis=0, weights=[0.1, 0.2, 0.3, 0.4])
        w = convex_hull_member(pts, list(target))
        assert w is not None
        assert abs(sum(w) - 1.0) < 1e-6
        np.testing.assert_allclose(np.array(w) @ np.array(pts), target, atol=1e-6)

    def test_agreement_with_exact_rational_oracle(self):
        # <= 3 points in <= 3 dimensions with small rational coordinates
        rng = np.random.default_rng(2)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            pts = [[Fraction(int(rng.integers(0, 5)), 4) for _ in range(dim)]
                   for _ in range(k)]
            target = [Fraction(int(rng.integers(0, 5)), 4) for _ in range(dim)]
            expect = exact_hull_member(pts, target)
            got = convex_hull_member([[float(x) for x in p] for p in pts],
                                     [float(x) for x in target]) is not None
            assert got == expect, (pts, target)


def pivot_by_rows(tableau, basis, row, col):
    """The per-row pivot loop that _pivot's rank-1 update replaced."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


class TestPivot:
    def test_matches_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            m, width = int(rng.integers(1, 12)), int(rng.integers(2, 30))
            tableau = rng.normal(size=(m, width))
            # sparse like the flow tableaux, with signed zeros among the zeros
            tableau[rng.random((m, width)) < 0.6] = 0.0
            tableau[rng.random((m, width)) < 0.1] = -0.0
            mine, ref = tableau.copy(), tableau.copy()
            basis_mine, basis_ref = list(range(m)), list(range(m))
            for _ in range(5):  # a run of pivots, each on the previous result
                row, col = int(rng.integers(0, m)), int(rng.integers(0, width))
                if ref[row, col] == 0:
                    continue
                _pivot(mine, basis_mine, row, col)
                pivot_by_rows(ref, basis_ref, row, col)
                assert np.array_equal(mine, ref)
                assert np.array_equal(np.signbit(mine), np.signbit(ref))
                assert basis_mine == basis_ref
