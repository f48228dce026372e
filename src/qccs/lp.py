"""Linear feasibility over named nonnegative variables.

Small dense two-phase simplex with Bland's rule; problem sizes here are tens
of variables, so robustness is worth more than speed.  Every witness is
re-checked against the raw constraints before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL = 1e-7
PIVOT_EPS = 1e-10
MAX_PIVOTS = 50_000


class LpError(Exception):
    pass


class NumericalFailure(LpError):
    pass


@dataclass
class LinearProgram:
    """Equality constraints over nonnegative variables, optional objective.

    constraints: list of (coefficients: {var: coeff}, rhs); objective, when
    present, is a {var: coeff} map to minimise.
    """

    variables: list
    constraints: list = field(default_factory=list)
    objective: dict | None = None

    def constrain(self, coeffs: dict, rhs: float) -> None:
        self.constraints.append((coeffs, rhs))


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    # one rank-1 update of the rows with a nonzero entry in col; rows with a
    # zero there are left alone, so no -0.0 turns into +0.0
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    tableau[rows] -= np.outer(factors[rows], tableau[row])
    basis[row] = col


def _bland_simplex(tableau, basis, cost, pivots_used):
    """Minimise cost over the tableau in place; returns pivots used."""
    m, width = tableau.shape
    n = width - 1
    # reduced costs: z row = cost - cost_B * tableau
    z = cost.copy()
    for r, b in enumerate(basis):
        if abs(cost[b]) > 0:
            z -= cost[b] * tableau[r, :-1]
            # note: constant part tracked separately by caller via basis values
    count = pivots_used
    while True:
        col = -1
        for j in range(n):
            if z[j] < -PIVOT_EPS:
                col = j
                break
        if col < 0:
            return count
        row, best = -1, np.inf
        for r in range(m):
            a = tableau[r, col]
            if a > PIVOT_EPS:
                ratio = tableau[r, -1] / a
                if ratio < best - PIVOT_EPS or (
                    abs(ratio - best) <= PIVOT_EPS and (row < 0 or basis[r] < basis[row])
                ):
                    best = ratio
                    row = r
        if row < 0:
            raise NumericalFailure("objective unbounded below; malformed feasibility system")
        _pivot(tableau, basis, row, col)
        z -= z[col] * tableau[row, :-1]
        count += 1
        if count > MAX_PIVOTS:
            raise NumericalFailure(f"pivot budget exhausted ({MAX_PIVOTS})")


def feasible(lp: LinearProgram, tol: float = TOL):
    """Phase-1 simplex verdict: a satisfying assignment or None.

    The witness satisfies every constraint within tol; if the solver cannot
    certify that, NumericalFailure is raised rather than returning junk.
    """
    names = list(lp.variables)
    index = {v: j for j, v in enumerate(names)}
    n = len(names)
    m = len(lp.constraints)

    if m == 0:
        return {v: 0.0 for v in names}

    a = np.zeros((m, n))
    b = np.zeros(m)
    for r, (coeffs, rhs) in enumerate(lp.constraints):
        for v, c in coeffs.items():
            a[r, index[v]] += float(c)
        b[r] = float(rhs)
    neg = b < 0
    a[neg] *= -1
    b[neg] *= -1

    # phase 1: artificials form the starting basis
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    pivots = _bland_simplex(tableau, basis, cost1, 0)

    infeas = sum(tableau[r, -1] for r, col in enumerate(basis) if col >= n)
    if infeas > tol:
        return None

    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if abs(tableau[r, j]) > PIVOT_EPS:
                    _pivot(tableau, basis, r, j)
                    break

    if lp.objective:
        cost2 = np.zeros(n + m)
        for v, c in lp.objective.items():
            cost2[index[v]] = float(c)
        # forbid re-entering artificial columns
        tableau[:, n : n + m] = 0.0
        _bland_simplex(tableau, basis, cost2, pivots)

    x = np.zeros(n + m)
    for r, col in enumerate(basis):
        x[col] = tableau[r, -1]
    witness = {v: float(max(x[j], 0.0)) for j, v in enumerate(names)}

    for coeffs, rhs in lp.constraints:
        lhs = sum(c * witness[v] for v, c in coeffs.items())
        if abs(lhs - rhs) > max(tol, 10 * tol * max(1.0, abs(rhs))):
            raise NumericalFailure(
                f"witness violates a constraint by {abs(lhs - rhs):.3g}"
            )
    return witness


def convex_hull_member(points, target, tol: float = TOL):
    """Weights expressing target as a convex combination of points, or None."""
    points = [np.asarray(p, dtype=float) for p in points]
    target = np.asarray(target, dtype=float)
    if not points:
        return None
    if any(p.shape != target.shape for p in points):
        raise LpError("points and target must share a dimension")
    names = [f"w{i}" for i in range(len(points))]
    lp = LinearProgram(names)
    lp.constrain({v: 1.0 for v in names}, 1.0)
    for d in range(target.size):
        lp.constrain({names[i]: points[i][d] for i in range(len(points))}, target[d])
    witness = feasible(lp, tol)
    if witness is None:
        return None
    return [witness[v] for v in names]
