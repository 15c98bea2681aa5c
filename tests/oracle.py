"""Independent brute-force references used by the test suite only.

Nothing here shares code with the production solvers: eigenvalues come from
bisection on the characteristic polynomial (root counting through leading
principal minors), linear programs from vertex enumeration, minimum cuts
from exhaustive bipartition search, the Neumann operator from its
definition through the normal extension, one column at a time, the
Bakry-Emery forms from the definitions of Gamma and Gamma2 by polarization,
hop distances from a breadth-first search per vertex, the NeuVsLap quadratic
form on the mean-zero boundary functions through a basis read off the
eigenvectors of the orthogonal projector onto them, and CLI JSON text through
the standard library's encoder.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import deque

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


def bakry_emery_forms(measure, weights, x, n):
    """The Gamma and Gamma2 forms at ``x`` by polarization.

    Returns ``(ball, g, q)``: ``ball`` lists the vertices other than ``x``
    within two steps of it, and ``g``, ``q`` are the matrices of
    ``Gamma(f)(x)`` and ``Gamma2(f)(x) - (Lap f(x))^2 / n`` over the
    functions with ``f(x) = 0`` supported on ``ball``, each entry found by
    polarizing the forms' definitions on the raw weights.
    """
    m = np.asarray(measure, dtype=float)
    w = np.asarray(weights, dtype=float)
    lap = w / m[:, None]
    lap -= np.diag(lap.sum(axis=1))
    adj = w > 0.0
    near = adj[x] | (adj[adj[x]].any(axis=0))
    near[x] = False
    ball = np.flatnonzero(near)
    inv_n = 0.0 if math.isinf(n) else 1.0 / n

    def gamma(f, g):
        return 0.5 * (lap @ (f * g) - f * (lap @ g) - g * (lap @ f))

    def q_form(f):
        gamma2 = 0.5 * (lap @ gamma(f, f))[x] - gamma(f, lap @ f)[x]
        return float(gamma2) - inv_n * float((lap @ f)[x]) ** 2

    basis = np.eye(m.size)[:, ball]
    k = ball.size
    g_mat = np.empty((k, k))
    q_mat = np.empty((k, k))
    q_diag = [q_form(basis[:, i]) for i in range(k)]
    for i in range(k):
        for j in range(i, k):
            g_mat[i, j] = g_mat[j, i] = float(gamma(basis[:, i], basis[:, j])[x])
            q_mat[i, j] = q_mat[j, i] = 0.5 * (
                q_form(basis[:, i] + basis[:, j]) - q_diag[i] - q_diag[j]
            )
    return ball, g_mat, q_mat


def bakry_emery_by_polarization(measure, weights, x, n) -> float:
    """K(x, n) as the least eigenvalue of the Gamma2 form relative to Gamma.

    Gamma is diagonalized and its null directions are eliminated by a
    pseudo-inverse Schur complement (they must carry a nonnegative form,
    else K = -inf).  Unit-scale weights are assumed: the null tests are
    absolute.
    """
    ball, g_mat, q_mat = bakry_emery_forms(measure, weights, x, n)
    if ball.size == 0:
        raise ValueError(f"vertex {x} is isolated")
    g_eigs, g_vecs = np.linalg.eigh(g_mat)
    if float(g_eigs[-1]) <= 1e-12:
        raise ValueError(f"Gamma vanishes on the 2-ball of vertex {x}")
    pos = g_eigs > 1e-12 * float(g_eigs[-1])
    p_vecs = g_vecs[:, pos] / np.sqrt(g_eigs[pos])  # Gamma-orthonormal columns
    z_vecs = g_vecs[:, ~pos]
    q_pp = p_vecs.T @ q_mat @ p_vecs
    if z_vecs.shape[1]:
        q_zz = z_vecs.T @ q_mat @ z_vecs
        q_pz = p_vecs.T @ q_mat @ z_vecs
        zz_eigs, zz_vecs = np.linalg.eigh(0.5 * (q_zz + q_zz.T))
        zz_scale = max(1.0, float(np.abs(zz_eigs).max()))
        if float(zz_eigs[0]) < -1e-9 * zz_scale:
            return float("-inf")
        keep = zz_eigs > 1e-12 * zz_scale
        inv = zz_vecs[:, keep] / zz_eigs[keep]
        q_pp = q_pp - (q_pz @ zz_vecs[:, keep]) @ (inv.T @ q_pz.T)
    return float(np.linalg.eigvalsh(0.5 * (q_pp + q_pp.T))[0])


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


def quadratic_form_min_eig(measure, boundary, rho, mu_top) -> tuple[float, float]:
    """The least eigenvalue of the NeuVsLap quadratic form

        <rho f, f>_B - ((mu_top + Deg_b)/V_Omega) <f, f>_B
            - (V_G / (V_Omega Deg_b - V_B mu_top)) <rho, f>_B^2,

    Deg_b = <rho, 1>_B, on {f : <f, 1>_B = 0}, and the largest entry of the
    form (at least 1).  The least eigenvalue is -inf when the denominator is
    not positive.  The basis of the subspace is the eigenvectors of the
    projector I - m m^T / m^T m with eigenvalue 1, m the boundary measure.
    """
    measure = np.asarray(measure, dtype=float)
    boundary = sorted(int(x) for x in boundary)
    m_b = measure[boundary]
    v_b = float(m_b.sum())
    v_g = float(measure.sum())
    v_omega = v_g - v_b
    deg_b = float(np.dot(rho, m_b))
    denom = v_omega * deg_b - v_b * mu_top
    if denom <= 0.0:
        return float("-inf"), 1.0
    rm = np.asarray(rho, dtype=float) * m_b
    q = (np.diag(rm) - ((mu_top + deg_b) / v_omega) * np.diag(m_b)
         - (v_g / denom) * np.outer(rm, rm))
    nb = m_b.size
    proj = np.eye(nb) - np.outer(m_b, m_b) / np.dot(m_b, m_b)
    w, u = np.linalg.eigh(proj)
    cols = u[:, w > 0.5]
    reduced = cols.T @ q @ cols
    least = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
    return least, max(1.0, float(np.abs(q).max()))


def hop_distances_bfs(weights) -> np.ndarray:
    """All-pairs hop distances on the support of ``weights`` (``inf`` between
    components) by a breadth-first search from every vertex."""
    n = len(weights)
    neighbours = [[v for v in range(n) if weights[u][v] > 0.0] for u in range(n)]
    dist = np.full((n, n), np.inf)
    for source in range(n):
        dist[source, source] = 0.0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in neighbours[u]:
                if dist[source, v] == np.inf:
                    dist[source, v] = dist[source, u] + 1.0
                    queue.append(v)
    return dist


_FLOAT_TOKEN = re.compile(r'"@@f:([^"]*)@@"')


def _tokenize_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return repr(obj)
        return f"@@f:{obj:.17g}@@"
    if isinstance(obj, dict):
        return {k: _tokenize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tokenize_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_tokenize_floats(float(v)) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _tokenize_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dumps_json_reference(obj) -> str:
    """The CLI's JSON text by way of ``json.dumps(indent=2, sort_keys=True)``:
    each finite float becomes a placeholder string holding its 17-digit
    text, and a regex unquotes the placeholders in the encoded text.  (A
    string value that itself reads ``"@@f:...@@"`` would be unquoted too.)"""
    text = json.dumps(_tokenize_floats(obj), indent=2, sort_keys=True)
    return _FLOAT_TOKEN.sub(r"\1", text)
