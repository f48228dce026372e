"""Simplex feasibility tests, cross-checked against scipy and a rational grid."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from qccs.lp import (
    MAX_PIVOTS, PIVOT_EPS, TOL, LinearProgram, NearTie, NumericalFailure, _phase1, _pivot,
    convex_hull_member, feasible,
)

from helpers import exact_hull_member


def verify(prog, witness, tol=1e-7):
    assert np.all(np.abs(prog.a @ witness - prog.b) <= 10 * tol)
    assert np.all(witness >= -tol)


class TestFeasible:
    def test_single_equation(self):
        w = feasible(LinearProgram([[1.0]], [1.0]))  # x = 1
        assert w is not None and abs(w[0] - 1.0) < 1e-9

    def test_infeasible_pair(self):
        prog = LinearProgram([[1.0, 1.0],    # x + y = 1
                              [1.0, -1.0]],  # x - y = 3
                             [1.0, 3.0])
        assert feasible(prog) is None  # needs y = -1 < 0

    def test_witness_reverifies(self):
        prog = LinearProgram([[1.0, 2.0, 0.0],   # a + 2b = 2
                              [0.0, 1.0, 1.0]],  # b + c = 1.5
                             [2.0, 1.5])
        w = feasible(prog)
        assert w is not None
        verify(prog, w)

    def test_negative_rhs(self):
        prog = LinearProgram([[-1.0, 1.0]], [-2.0])  # -x + y = -2
        w = feasible(prog)
        assert w is not None
        verify(prog, w)

    def test_no_constraints(self):
        w = feasible(LinearProgram(np.zeros((0, 1)), np.zeros(0)))
        assert w.tolist() == [0.0]

    def test_empty_row_infeasible(self):
        assert feasible(LinearProgram([[0.0]], [0.5])) is None  # 0 = 0.5

    def test_redundant_rows(self):
        prog = LinearProgram([[1.0, 1.0],   # x + y = 1
                              [2.0, 2.0]],  # 2x + 2y = 2
                             [1.0, 2.0])
        w = feasible(prog)
        assert w is not None
        verify(prog, w)

    def test_program_is_left_unchanged(self):
        a, b = np.array([[-1.0, 1.0], [1.0, 1.0]]), np.array([-0.5, 1.0])
        prog = LinearProgram(a.copy(), b.copy())
        assert feasible(prog) is not None
        assert np.array_equal(prog.a, a) and np.array_equal(prog.b, b)

    def test_tracer_views(self):
        # perfbench/tracer.py digests and counts programs through these
        prog = LinearProgram([[1.0, -0.0], [0.5, 2.0]], [1.0, 0.25])
        assert prog.variables == [0, 1]
        assert prog.constraints == [([1.0, -0.0], 1.0), ([0.5, 2.0], 0.25)]
        assert prog.objective is None

    def test_near_tie_is_decided_from_one_solve(self):
        # x + y = 1 and x + y = 1 + d: phase 1 leaves a residual of d
        for d, verdict in ((0.5 * TOL, "feasible"), (2 * TOL, "near tie"),
                           (20 * TOL, "infeasible")):
            prog = LinearProgram([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0 + d])
            assert (feasible(prog, TOL) is not None) == (verdict == "feasible")
            if verdict == "near tie":
                with pytest.raises(NearTie):
                    feasible(prog, TOL, 10 * TOL)
            else:
                assert (feasible(prog, TOL, 10 * TOL) is None) == (verdict == "infeasible")

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
            prog = LinearProgram(a, b)
            mine = feasible(prog)
            ref = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=[(0, None)] * n,
                          method="highs")
            assert (mine is not None) == ref.success
            if mine is not None:
                verify(prog, mine)
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


def bland_by_loops(tableau, basis, n, pivot, ties):
    """The phase-1 loops that _phase1's vectorized choice replaced: reduced
    costs row by row, the entering column by a scan of the reduced costs, the
    leaving row by a scan of the rows.  Counts ratio ties in ties[0]."""
    m, width = tableau.shape
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    z = cost.copy()
    for r, b in enumerate(basis):
        if abs(cost[b]) > 0:
            z -= cost[b] * tableau[r, :-1]
    count = 0
    while True:
        col = -1
        for j in range(width - 1):
            if z[j] < -PIVOT_EPS:
                col = j
                break
        if col < 0:
            return
        row, best = -1, np.inf
        for r in range(m):
            a = tableau[r, col]
            if a > PIVOT_EPS:
                ratio = tableau[r, -1] / a
                ties[0] += bool(row >= 0 and abs(ratio - best) <= PIVOT_EPS)
                if ratio < best - PIVOT_EPS or (
                    abs(ratio - best) <= PIVOT_EPS and (row < 0 or basis[r] < basis[row])
                ):
                    best = ratio
                    row = r
        if row < 0:
            raise NumericalFailure("objective unbounded below; malformed feasibility system")
        pivot(tableau, basis, row, col)
        z -= z[col] * tableau[row, :-1]
        count += 1
        if count > MAX_PIVOTS:
            raise NumericalFailure(f"pivot budget exhausted ({MAX_PIVOTS})")


class TestBland:
    def test_vectorized_choice_matches_loops_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(12)
        ties, pivots, signed_zeros = [0], 0, 0
        for _ in range(300):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
            # grid values make ratio ties; signed zeros among the zeros
            a = rng.choice([0.0, -0.0, 0.0, -0.0, 0.25, 0.5, 1.0, 2.0, -1.0, -0.5], size=(m, n))
            b = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=m)
            start = np.hstack([a, np.eye(m), b[:, None]])
            runs = []
            for choose in ("loops", "vectorized"):
                tableau, basis, steps = start.copy(), list(range(n, n + m)), []

                def recorded(tableau, basis, row, col):
                    _pivot(tableau, basis, row, col)
                    steps.append((row, col, list(basis)))

                if choose == "loops":
                    bland_by_loops(tableau, basis, n, recorded, ties)
                else:
                    with monkeypatch.context() as patch:
                        patch.setattr("qccs.lp._pivot", recorded)
                        _phase1(tableau, basis, n)
                runs.append((tableau, steps))
            (ref, ref_steps), (mine, my_steps) = runs
            assert my_steps == ref_steps
            assert np.array_equal(mine, ref)
            assert np.array_equal(np.signbit(mine), np.signbit(ref))
            pivots += len(ref_steps)
            signed_zeros += int(np.sum((ref == 0) & np.signbit(ref)))
        assert ties[0] > 200 and pivots > 800 and signed_zeros > 300, (ties, pivots, signed_zeros)


class TestHullSupport:
    def test_dropping_untouched_blocks_changes_no_bit(self):
        # the blocks that neither the target nor any point touches give rows
        # of zeros with a zero right-hand side; the weights without them are
        # the same floats, signed zeros included
        rng = np.random.default_rng(13)
        compared, negative_zeros, dropped = 0, 0, 0
        for _ in range(400):
            blocks, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            points = np.zeros((k, blocks))
            for p in points:
                touched = rng.choice(blocks, size=int(rng.integers(1, 4)), replace=True)
                np.add.at(p, touched, 1.0 / len(touched))
            if rng.random() < 0.7:
                weights = rng.integers(0, 3, size=k)
                weights[0] += weights.sum() == 0
                target = weights / weights.sum() @ points
            else:
                target = points[0].copy()
                target[int(rng.integers(0, blocks))] += 0.25
                target /= target.sum()
            keep = np.vstack([target, points]).any(axis=0)
            dropped += int(blocks - keep.sum())
            full = convex_hull_member(points, target)
            kept = convex_hull_member(points[:, keep], target[keep])
            assert (full is None) == (kept is None)
            if full is not None:
                assert np.array(full).tobytes() == np.array(kept).tobytes()
                compared += 1
                negative_zeros += sum(1 for w in full if w == 0 and np.signbit(w))
        assert compared > 250 and negative_zeros > 20 and dropped > 500, (
            compared, negative_zeros, dropped)
