"""Dense two-phase simplex for small linear programs.

Solves  min c^T x  subject to  A x <= b,  x >= 0.  The entering column is
chosen by Dantzig's rule: the most negative reduced cost, the smallest
index on ties.  The leaving row is the smallest ratio, ties within
``PIVOT_TOL`` going to the smallest basic index.  Dantzig's rule can cycle
on a degenerate vertex, so after ``DEGENERATE_LIMIT`` consecutive
degenerate pivots (ratio at most ``PIVOT_TOL``) the phase finishes under
Bland's rule, the smallest eligible index, which cannot cycle.  On the
edge-curvature LPs Dantzig's rule takes fewer pivots than Bland's, and the
fallback has not been seen to trigger.  Those LPs are short and wide, one
row per free ball vertex and one column per sender-receiver pair, so a
dense tableau is the simplest robust choice.  ``_pivot`` skips rows whose
entry in the pivot column is zero, which pays on these tableaus; a
vectorized pivot and ratio test measured slower on them.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
DEGENERATE_LIMIT = 50


class Infeasible(RuntimeError):
    pass


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
    """min c.x s.t. a @ x <= b, x >= 0.  Returns (optimal value, optimizer)."""
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = a.shape
    # rows with negative rhs get their slack replaced by an artificial var
    a = a.copy()
    slack = np.eye(m)
    neg = b < 0
    a[neg] *= -1.0
    slack[neg] *= -1.0
    b[neg] *= -1.0
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    # columns: n variables, m slacks, then one artificial per art_rows entry
    ncols = n + m + n_art
    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = slack
    tableau[art_rows, n + m + np.arange(n_art)] = 1.0
    tableau[:m, -1] = b
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)

    if n_art:
        # phase 1: minimize the sum of artificials
        tableau[-1, :] = 0.0
        tableau[-1, n + m : ncols] = 1.0
        for r in art_rows:
            tableau[-1] -= tableau[r]
        _iterate(tableau, basis, ncols)
        if tableau[-1, -1] < -1e-8:
            raise Infeasible("phase 1 objective positive")
        # drive remaining artificials out of the basis where possible
        for r in range(m):
            if basis[r] >= n + m:
                for j in range(n + m):
                    if abs(tableau[r, j]) > PIVOT_TOL:
                        _pivot(tableau, basis, r, j)
                        break

    # phase 2
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    tableau[:, n + m : ncols] = 0.0  # artificials are frozen out
    for r in range(m):
        if basis[r] < n and abs(tableau[-1, basis[r]]) > 0.0:
            tableau[-1] -= tableau[-1, basis[r]] * tableau[r]
    _iterate(tableau, basis, n + m)
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r, -1]
    return float(c @ x), x
