"""Dense simplex for small linear programs with a feasible origin.

Solves  min c^T x  subject to  A x <= b,  x >= 0  with b >= 0, starting
from the slack basis, so no phase 1 is needed.  The entering column is
chosen by Dantzig's rule: the most negative reduced cost, the smallest
index on ties.  The leaving row is the smallest ratio, ties within
``PIVOT_TOL`` going to the smallest basic index.  Dantzig's rule can cycle
on a degenerate vertex, so after ``DEGENERATE_LIMIT`` consecutive
degenerate pivots (ratio at most ``PIVOT_TOL``) the solve finishes under
Bland's rule, the smallest eligible index, which cannot cycle.  On the
edge-curvature LPs Dantzig's rule takes fewer pivots than Bland's, and the
fallback has not been seen to trigger.  Those LPs are small, one row per
sender and receiver and one column per pair that gains by shipping
direct, so a dense tableau is the simplest robust choice.  ``_pivot``
skips rows whose entry in the pivot column is zero.  A vectorized pivot
(one outer product over the nonzero rows) measured about 9% slower per
edge on 12-vertex graphs and about 20% faster on 45-vertex ones.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
DEGENERATE_LIMIT = 50


class Unbounded(RuntimeError):
    pass


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, ncols: int) -> None:
    """Run simplex iterations on a tableau whose last row is the objective."""
    if ncols == 0:
        return  # an LP without variables or constraints: nothing can enter
    degenerate = 0
    while True:
        reduced = tableau[-1, :ncols]
        if degenerate < DEGENERATE_LIMIT:
            entering = int(np.argmin(reduced))  # Dantzig, first index on ties
            if reduced[entering] >= -PIVOT_TOL:
                return
        else:
            eligible = np.flatnonzero(reduced < -PIVOT_TOL)
            if eligible.size == 0:
                return
            entering = eligible[0]  # Bland: smallest eligible index
        col = tableau[:-1, entering]
        rhs = tableau[:-1, -1]
        leaving, best = -1, np.inf
        for r in range(col.size):
            if col[r] > PIVOT_TOL:
                ratio = rhs[r] / col[r]
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    leaving, best = r, ratio
        if leaving < 0:
            raise Unbounded("objective unbounded below")
        if degenerate < DEGENERATE_LIMIT:
            degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        _pivot(tableau, basis, leaving, entering)


def solve_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """min c.x s.t. a @ x <= b, x >= 0, for b >= 0.  Returns (optimal value, optimizer).

    With b >= 0 the origin is feasible and the slacks are its basis, so the
    simplex starts there; a negative entry of b raises ValueError."""
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (b < 0.0).any():
        raise ValueError("solve_lp needs a nonnegative right-hand side")
    m, n = a.shape
    # columns: n variables, then m slacks
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = c
    basis = n + np.arange(m)
    _iterate(tableau, basis, n + m)
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r, -1]
    return float(c @ x), x
