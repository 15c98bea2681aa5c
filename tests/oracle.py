"""Independent brute-force references used by the test suite only.

Nothing here shares code with the production solvers: eigenvalues come from
bisection on the characteristic polynomial (root counting through leading
principal minors), linear programs from vertex enumeration, minimum cuts
from exhaustive bipartition search, and the Neumann operator from its
definition through the normal extension, one column at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

MAX_EIG_DIM = 6


class DimensionTooLarge(ValueError):
    pass


class TooLarge(ValueError):
    pass


class Infeasible(RuntimeError):
    pass


class Unbounded(RuntimeError):
    pass


def _count_below(s: np.ndarray, t: float) -> int:
    """Number of eigenvalues of symmetric ``s`` strictly below ``t``,
    counted as sign changes in the leading principal minors of s - tI."""
    n = s.shape[0]
    shift = s - t * np.eye(n)
    scale = max(1.0, float(np.abs(s).max()))
    eps = 1e-13 * scale
    for attempt in range(60):
        minors = [1.0]
        ok = True
        for k in range(1, n + 1):
            d = float(np.linalg.det(shift[:k, :k]))
            if d == 0.0:
                ok = False
                break
            minors.append(d)
        if ok:
            changes = sum(
                1 for a, b in zip(minors, minors[1:]) if (a > 0) != (b > 0)
            )
            return changes
        shift = s - (t + eps) * np.eye(n)
        eps *= 1.7
    raise RuntimeError("could not perturb away a zero minor")


def eigen_bruteforce(matrix: np.ndarray, measure: np.ndarray) -> np.ndarray:
    """Eigenvalues of a measure-self-adjoint matrix by characteristic
    polynomial bisection.  Refuses dimensions above MAX_EIG_DIM."""
    matrix = np.asarray(matrix, dtype=float)
    measure = np.asarray(measure, dtype=float)
    n = matrix.shape[0]
    if n > MAX_EIG_DIM:
        raise DimensionTooLarge(f"{n} > {MAX_EIG_DIM}")
    if n == 0:
        return np.empty(0)
    d = np.sqrt(measure)
    s = (d[:, None] * matrix) / d[None, :]
    s = 0.5 * (s + s.T)
    radius = float(np.abs(s).sum(axis=1).max())  # Gershgorin
    lo0, hi0 = -radius - 1.0, radius + 1.0
    out = []
    for k in range(1, n + 1):
        lo, hi = lo0, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _count_below(s, mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def neumann_by_extension(measure, weights, boundary) -> np.ndarray:
    """The negated Neumann Laplacian on Omega = V \\ B from its definition.

    Column j is (Lap of the normal extension of the indicator of the j-th
    interior vertex) read on Omega.  The normal extension keeps the interior
    values and gives each boundary vertex the weighted average of its
    neighbours, which makes the normal derivative vanish on B.  Plain loops
    over the raw weights; admissibility of B (no boundary-boundary edge, an
    interior neighbour for every boundary vertex) is assumed.
    """
    m = [float(x) for x in measure]
    w = [[float(x) for x in row] for row in weights]
    n = len(m)
    bset = {int(x) for x in boundary}
    omega = [v for v in range(n) if v not in bset]
    out = np.zeros((len(omega), len(omega)))
    for j, vj in enumerate(omega):
        u = [0.0] * n
        u[vj] = 1.0
        for x in bset:
            u[x] = sum(w[x][y] * u[y] for y in range(n)) / sum(w[x])
        for i, vi in enumerate(omega):
            out[i, j] = sum(w[vi][y] * (u[vi] - u[y]) for y in range(n)) / m[vi]
    return out


def lp_bruteforce(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, max_bases: int = 200_000
) -> tuple[float, np.ndarray]:
    """min c.x s.t. a @ x <= b, x >= 0 by basic-point enumeration.

    Every vertex of the feasible polytope is the intersection of n active
    constraints drawn from the rows of [a; -I]; enumerate them all.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if n > 12 or m > 40:
        raise TooLarge(f"{n} variables / {m} constraints")
    if math.comb(m + n, n) > max_bases:
        raise TooLarge("too many candidate bases")
    rows = np.vstack([a, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best, best_x = np.inf, None
    for subset in itertools.combinations(range(m + n), n):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if np.all(a @ x <= b + 1e-9) and np.all(x >= -1e-9):
            val = float(c @ x)
            if val < best:
                best, best_x = val, x
    if best_x is None:
        raise Infeasible("no feasible basic point")
    return best, best_x


def cut_bruteforce(weights: np.ndarray) -> int:
    """Minimum crossing-edge count over proper bipartitions (|V| <= 8,
    unit weights)."""
    n = weights.shape[0]
    if n > 8:
        raise TooLarge(f"{n} > 8")
    if n < 2:
        return 0
    adj = weights > 0
    best = None
    for mask in range(1, 2 ** (n - 1)):  # fix vertex n-1 on one side
        side = [(mask >> i) & 1 for i in range(n - 1)] + [0]
        crossing = 0
        for i in range(n):
            for j in range(i + 1, n):
                if adj[i, j] and side[i] != side[j]:
                    crossing += 1
        if best is None or crossing < best:
            best = crossing
    return int(best)


def rayleigh_min_bruteforce(
    q: np.ndarray, g: np.ndarray, rng: np.random.Generator,
    samples: int = 2000, descent_steps: int = 200,
) -> float:
    """min of f.Qf / f.Gf over f with f.Gf > 0 by dense sampling plus
    local descent (projected gradient on the unit sphere)."""
    n = q.shape[0]
    best = np.inf
    for _ in range(samples):
        f = rng.normal(size=n)
        denom = float(f @ g @ f)
        if denom <= 1e-10:
            continue
        best = min(best, float(f @ q @ f) / denom)
    # descent from the best random start
    f = None
    for _ in range(samples):
        cand = rng.normal(size=n)
        denom = float(cand @ g @ cand)
        if denom > 1e-10 and float(cand @ q @ cand) / denom <= best + 1e-12:
            f = cand
            break
    if f is None:
        return best
    step = 0.1
    for _ in range(descent_steps):
        denom = float(f @ g @ f)
        val = float(f @ q @ f) / denom
        grad = 2.0 * (q @ f - val * (g @ f)) / denom
        cand = f - step * grad
        cd = float(cand @ g @ cand)
        if cd > 1e-12 and float(cand @ q @ cand) / cd < val:
            f = cand
        else:
            step *= 0.5
            if step < 1e-12:
                break
        best = min(best, val)
    return best
