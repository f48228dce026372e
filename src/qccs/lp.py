"""Linear feasibility: a @ x = b over nonnegative x.

Small dense phase-1 simplex with Bland's rule; problem sizes here are tens
of variables, so robustness is worth more than speed.  Every witness is
re-checked against a and b before it is returned.
"""

from __future__ import annotations

import numpy as np

# The verdict tolerance: the residual a witness may leave on each constraint,
# and so on class-vector masses.  `bisim --tol` and QCCS_TOL replace it.
TOL = 1e-7
# Not tolerances on answers: the simplex treats tableau entries within
# PIVOT_EPS of zero as zero, and gives up on one solve after MAX_PIVOTS pivots.
PIVOT_EPS = 1e-10
MAX_PIVOTS = 50_000


class LpError(Exception):
    pass


class NumericalFailure(LpError):
    pass


class NearTie(LpError):
    """Raised by feasible(prog, tol, loose) for a program that fails at tol
    but whose witness passes at loose: too close to call."""


class LinearProgram:
    """The equality constraints a @ x = b over nonnegative x: a is an m×n
    array and b has length m."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    # Read-only views for perfbench/tracer.py, which digests and counts each
    # program through them, outside the timed span.  The next change to the
    # benchmark hashes (a, b) there and deletes these three.
    @property
    def variables(self) -> list:
        return list(range(self.a.shape[1]))

    @property
    def constraints(self) -> list:
        return list(zip(self.a.tolist(), self.b.tolist()))

    objective = None


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    # one rank-1 update of the rows with a nonzero entry in col; rows with a
    # zero there are left alone, so no -0.0 turns into +0.0
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    tableau[rows] -= factors[rows, None] * tableau[row]
    basis[row] = col


def _phase1(tableau, basis, n):
    """Minimise the sum of the artificial columns n.. of the tableau in place,
    by Bland's rule: the lowest column with a negative reduced cost enters,
    and the row of least ratio leaves, ties going to the lowest basic
    column."""
    # reduced costs: a cost of 1 on each artificial column and 0 on the
    # others, less every row in turn.  That leaves 0 on the artificial
    # (identity) columns; subtract is not reduced pairwise, so the other
    # columns are reduced in row order.
    z = np.zeros(tableau.shape[1] - 1)
    z[:n] = np.subtract.reduce(tableau[:, :n], axis=0, initial=0.0)
    for _ in range(MAX_PIVOTS + 1):
        col = int((z < -PIVOT_EPS).argmax())
        if not z[col] < -PIVOT_EPS:
            return
        column = tableau[:, col]
        candidates = (column > PIVOT_EPS).nonzero()[0]
        if not candidates.size:
            raise NumericalFailure("objective unbounded below; malformed feasibility system")
        ratios = tableau[candidates, -1] / column[candidates]
        row, best = -1, np.inf
        for r, ratio in zip(candidates.tolist(), ratios.tolist()):
            if ratio < best - PIVOT_EPS or (
                abs(ratio - best) <= PIVOT_EPS and (row < 0 or basis[r] < basis[row])
            ):
                best = ratio
                row = r
        _pivot(tableau, basis, row, col)
        z -= z[col] * tableau[row, :-1]
    raise NumericalFailure(f"pivot budget exhausted ({MAX_PIVOTS})")


def feasible(prog: LinearProgram, tol: float = TOL, loose: float | None = None):
    """Phase-1 simplex verdict: a satisfying x >= 0, or None.

    The witness satisfies every constraint within tol; if the solver cannot
    certify that, NumericalFailure is raised rather than returning junk.
    With `loose`, a program whose phase-1 residual exceeds tol but not loose
    has its witness checked at loose, and then raises NearTie.
    """
    a, b = prog.a, prog.b
    m, n = a.shape
    if m == 0:
        return np.zeros(n)

    # phase 1: artificials form the starting basis
    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = a
    tableau[:, -1] = b
    neg = b < 0
    if neg.any():
        tableau[neg, :n] *= -1
        tableau[neg, -1] *= -1
    tableau[:, n:-1] = np.eye(m)
    basis = list(range(n, n + m))
    _phase1(tableau, basis, n)

    residual = sum(v for v, col in zip(tableau[:, -1].tolist(), basis) if col >= n)
    if residual > tol and (loose is None or residual > loose):
        return None
    check = tol if residual <= tol else loose

    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            nonzero = (np.abs(tableau[r, :n]) > PIVOT_EPS).nonzero()[0]
            if nonzero.size:
                _pivot(tableau, basis, r, int(nonzero[0]))

    x = np.zeros(n + m)
    x[basis] = tableau[:, -1]
    # not np.maximum, which turns a -0.0 weight into 0.0
    x = np.where(x[:n] < 0, 0.0, x[:n])

    error = np.abs(a @ x - b)
    bad = error > 10 * check * np.maximum(1.0, np.abs(b))
    if bad.any():
        raise NumericalFailure(f"witness violates a constraint by {error[bad.argmax()]:.3g}")
    if residual > tol:
        raise NearTie(f"phase-1 residual {residual:.3g} is above {tol:g}, within {loose:g}")
    return x


def convex_hull_member(points, target, tol: float = TOL, loose: float | None = None):
    """Weights expressing target as a convex combination of points, or None;
    `loose` as for feasible."""
    target = np.asarray(target, dtype=float)
    if not len(points):
        return None
    points = np.asarray(points, dtype=float)
    if points.shape[1:] != target.shape:
        raise LpError("points and target must share a dimension")
    prog = LinearProgram(np.vstack([np.ones(len(points)), points.T]),
                         np.concatenate([[1.0], target]))
    x = feasible(prog, tol, loose)
    return None if x is None else x.tolist()
