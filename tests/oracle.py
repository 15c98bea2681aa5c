"""Independent brute-force references used by the test suite only.

Nothing here shares code with the production solvers: eigenvalues come from
bisection on the characteristic polynomial (root counting through leading
principal minors), linear programs from vertex enumeration, minimum cuts
from exhaustive bipartition search (and, beyond its reach, from the
Stoer-Wagner algorithm frozen as it stood before contraction), the Neumann
operator from its definition through the normal extension, one column at a
time, the boundary influence s(z) in exact rationals, the normal
derivative and the self-adjointness defect entry by entry from their
definitions, the Bakry-Emery forms from the definitions of Gamma and Gamma2 by polarization,
edge curvatures from their LP by vertex enumeration and by exhaustive search
over the integer 1-Lipschitz functions, sender-receiver gain problems
from their integral duals by enumeration and by the earlier boolean-matrix
form of the gain flow, hop distances from a breadth-first
search per vertex, the NeuVsLap quadratic form on the mean-zero boundary
functions through a basis read off the eigenvectors of the orthogonal
projector onto them, CLI JSON text through the standard library's encoder,
total support from the positive diagonals found by enumerating
permutations, graph documents through a parser that reads and checks
one record at a time, and graph validation through one test per
invariant, in order, with a breadth-first search from vertex 0.

The seeded random generator is frozen here as it stood with one numpy call
per spanning-tree edge and a convergence test after every Sinkhorn round,
the referee of the exact stream of draws.  It shares with the production
generator only the total-support test, which decides whether a draw is
kept and is refereed on its own.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import deque
from fractions import Fraction

import numpy as np

from graphspec.fixtures import NORMALIZE_ROUNDS, NORMALIZE_TOL, _has_total_support
from graphspec.graph import GraphFormatError, GraphValidationError, WeightedBoundaryGraph

MAX_EIG_DIM = 6
MAX_SUPPORT_DIM = 7


class DimensionTooLarge(ValueError):
    pass


class TooLarge(ValueError):
    pass


class Infeasible(RuntimeError):
    pass


def _count_below(s: np.ndarray, t: float) -> int:
    """Number of eigenvalues of symmetric ``s`` strictly below ``t``,
    counted as sign changes in the leading principal minors of s - tI.  A
    zero minor moves t up by 1e-13 times the largest |entry| of s (1e-13
    when s is 0), then by growing steps."""
    n = s.shape[0]
    shift = s - t * np.eye(n)
    eps = 1e-13 * (float(np.abs(s).max()) or 1.0)
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
            if not lo < mid < hi:
                break  # no float lies between lo and hi: later steps keep mid
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


def normal_derivative(measure, weights, boundary, u) -> np.ndarray:
    """(du/dn)(x) = (1/m_x) sum_y (u(x) - u(y)) w_xy at each x in B, in the
    order of ``boundary``, as plain sums over the raw weights."""
    n = len(measure)
    return np.array([
        sum((float(u[x]) - float(u[y])) * float(weights[x][y]) for y in range(n))
        / float(measure[x])
        for x in boundary
    ])


def boundary_influence_exact(graph) -> list[Fraction]:
    """s(z) = sum_{x in B} w_xz^2 / (W_x m_z) at each interior z, with
    W_x = sum_{y in Omega} w_xy, in exact rationals from the float weights
    and measures: nothing under- or overflows, and nothing is rounded."""
    b, omega = graph.boundary.tolist(), graph.interior.tolist()
    w = [[Fraction(v) for v in row] for row in graph.weights.tolist()]
    row_sums = {x: sum(w[x][y] for y in omega) for x in b}
    return [sum(w[x][z] ** 2 / row_sums[x] for x in b) / Fraction(graph.measure[z])
            for z in omega]


def self_adjointness_defect(matrix, measure) -> float:
    """max |m_i A_ij - m_j A_ji| over all pairs, relative to
    max |m_i A_ij|: 0 exactly when ``matrix`` is self-adjoint in the inner
    product weighted by ``measure``."""
    n = len(measure)
    entries = [[float(measure[i]) * float(matrix[i][j]) for j in range(n)] for i in range(n)]
    defect = max([0.0] + [abs(entries[i][j] - entries[j][i])
                          for i in range(n) for j in range(n)])
    return defect / max(abs(e) for row in entries for e in row) if defect else 0.0


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
    else K = -inf).  The tests on that null block are relative to its
    largest |eigenvalue|; the test that Gamma vanishes is absolute, which
    assumes unit-scale weights.
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
        zz_scale = float(np.abs(zz_eigs).max())
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


def _ollivier_ball(graph, x, y):
    """``(obj, dist, free)`` for the edge curvature kappa(x, y): the row
    Lap(y) - Lap(x) of the Laplacian formed from the raw weights, the hop
    distances, and the vertices of B_1(x) u B_1(y) other than x and y."""
    w = np.asarray(graph.weights, dtype=float)
    lap = (w - np.diag(w.sum(axis=1))) / np.asarray(graph.measure, dtype=float)[:, None]
    dist = hop_distances_bfs(w)
    ball = np.flatnonzero((dist[x] <= 1) | (dist[y] <= 1))
    free = [int(v) for v in ball if v != x and v != y]
    return lap[y] - lap[x], dist, free


def ollivier_bruteforce(graph, x, y) -> float:
    """kappa(x, y) = min Lap f(y) - Lap f(x) over 1-Lipschitz f on
    B_1(x) u B_1(y) with f(x) = 1 and f(y) = 0, as an LP solved by
    ``lp_bruteforce`` on g = f + d(y, .) >= 0.  Two rows per pair of ball
    vertices, so it refuses balls with five or more free vertices."""
    obj, dist, free = _ollivier_ball(graph, x, y)
    fixed = {x: 1.0, y: 0.0}
    const = sum(obj[v] * fv for v, fv in fixed.items())
    shift = np.array([dist[y, v] for v in free])
    c = np.array([obj[v] for v in free])
    const += float(-c @ shift)
    members = list(fixed) + free
    index = {v: i for i, v in enumerate(free)}
    rows, rhs = [], []
    for ai in range(len(members)):
        for bi in range(ai + 1, len(members)):
            u, v = members[ai], members[bi]
            d = dist[u, v]
            if not np.isfinite(d):
                continue
            row = np.zeros(len(free))
            offset = 0.0
            if u in fixed:
                offset += fixed[u]
            else:
                row[index[u]] = 1.0
                offset -= shift[index[u]]
            if v in fixed:
                offset -= fixed[v]
            else:
                row[index[v]] = -1.0
                offset += shift[index[v]]
            rows.append(row.copy())
            rhs.append(d - offset)
            rows.append(-row)
            rhs.append(d + offset)
    if not free:
        return float(const)
    value, _ = lp_bruteforce(c, np.vstack(rows), np.array(rhs))
    return float(value + const)


def ollivier_by_enumeration(graph, x, y) -> float:
    """The same minimum as ``ollivier_bruteforce``, over integer f only.

    The constraints f(u) - f(v) <= d(u, v) have a totally unimodular
    matrix and integral right-hand sides, so the LP has an integral
    optimum.  Being 1-Lipschitz to f(x) = 1 and f(y) = 0 leaves each free
    vertex at most three integer values, so at most 3^k candidates for k
    free vertices; every one is tried.
    """
    obj, dist, free = _ollivier_ball(graph, x, y)
    ranges = [range(int(max(1 - dist[x, v], -dist[y, v])),
                    int(min(1 + dist[x, v], dist[y, v])) + 1) for v in free]
    f = np.array(list(itertools.product(*ranges)), dtype=float).reshape(-1, len(free))
    lipschitz = np.ones(f.shape[0], dtype=bool)
    for i, j in itertools.combinations(range(len(free)), 2):
        lipschitz &= np.abs(f[:, i] - f[:, j]) <= dist[free[i], free[j]]
    return float(obj[x] + (f[lipschitz] @ obj[free]).min())


def gain_dual_bruteforce(supply, demand, gains) -> float:
    """Maximum of sum g_vw t_vw over t >= 0 with row sums at most
    ``supply`` and column sums at most ``demand``, for integer gains in
    {0, 1, 2}.

    By LP duality it is the minimum of sum supply_v p_v + sum demand_w q_w
    over p, q >= 0 with p_v + q_w >= g_vw.  The constraint matrix is
    totally unimodular, so the minimum is attained with p, q in {0, 1, 2};
    all 3^(senders + receivers) candidates are tried (at most 8 in all).
    """
    supply, demand = np.asarray(supply, float), np.asarray(demand, float)
    gains = np.asarray(gains)
    if supply.size + demand.size > 8:
        raise TooLarge(f"{supply.size + demand.size} > 8")
    p = np.array(list(itertools.product(range(3), repeat=supply.size))).reshape(-1, supply.size)
    q = np.array(list(itertools.product(range(3), repeat=demand.size))).reshape(-1, demand.size)
    # the least q_w each p allows is max_v (g_vw - p_v)
    need = (gains[None, :, :] - p[:, :, None]).max(axis=1)
    feasible = (q[None, :, :] >= need[:, None, :]).all(axis=2)
    cost = (p @ supply)[:, None] + q @ demand
    return float(cost[feasible].min())


def max_gain_by_levels(supply, demand, gain) -> float:
    """The gain flow of ``curvature._max_gain`` as its boolean-matrix form
    computed it, kept verbatim as a referee: the same one-pass start and
    the same shortest augmenting paths, leveled by boolean matrix products
    over a dense (2 senders x 2 receivers) arc matrix and a dense flow
    matrix.  Its total is the solver's to the bit, since both push the
    same paths in the same order with the same arithmetic.

    Sender copies are ``v2 = v`` and ``v1 = ns + v``, receiver copies
    ``w2 = w`` and ``w1 = nr + w``.  A gaining pair gives the arc
    ``v1 -> w1``, and a pair that gains 2 also ``v2 -> w1`` and
    ``v1 -> w2``; each sender copy is fed at ``supply`` and each receiver
    copy drains at ``demand``.
    """
    ns, nr = gain.shape
    one, two = gain > 0.0, gain > 1.0
    arcs = np.zeros((2 * ns, 2 * nr), dtype=bool)
    arcs[:ns, nr:] = arcs[ns:, :nr] = two
    arcs[ns:, nr:] = one
    flow, total = np.zeros(arcs.shape), 0.0
    left, right = supply.tolist() * 2, demand.tolist() * 2
    # the arcs block by block, v2 -> w1, v1 -> w2, then v1 -> w1, each by rows
    tc, hc, v, w = arcs.reshape(2, ns, 2, nr).transpose(0, 2, 1, 3).nonzero()
    for t, h in zip((tc * ns + v).tolist(), (hc * nr + w).tolist()):
        if left[t] > 0.0 and right[h] > 0.0:
            push = min(left[t], right[h])
            left[t] -= push
            right[h] -= push
            flow[t, h] = push
            total += push
    supplied, unfilled = np.array(left) > 0.0, np.array(right) > 0.0
    # a path needs a sender copy with supply left and a receiver copy with
    # demand left, each with an arc
    if not (np.count_nonzero(supplied @ arcs) and np.count_nonzero(arcs @ unfilled)):
        return total
    while True:
        fed = flow > 0.0
        receivers, senders = [unfilled], []
        reached, seen = receivers[0], np.zeros(2 * ns, dtype=bool)
        while True:
            new = arcs @ receivers[-1] & ~seen
            starts = new & supplied
            if np.count_nonzero(starts):
                break
            back = new @ fed & ~reached
            if not np.count_nonzero(back):
                return total
            seen, reached = seen | new, reached | back
            senders.append(new)
            receivers.append(back)
        # the first sender with a start, its v1 copy before its v2 copy
        v, copy = divmod(int(starts.reshape(2, ns)[::-1].T.argmax()), 2)
        ts, hs = [v + ns * (1 - copy)], []
        for k in range(len(receivers) - 1, -1, -1):
            hs.append(int((receivers[k] & arcs[ts[-1]]).argmax()))
            if k:
                ts.append(int((senders[k - 1] & fed[:, hs[-1]]).argmax()))
        # the path's arcs (ts[i], hs[i]) forward and (ts[i + 1], hs[i]) back
        forward, backward = list(zip(ts, hs)), list(zip(ts[1:], hs))
        push = float(min(left[ts[0]], right[hs[-1]], *(flow[arc] for arc in backward)))
        left[ts[0]] -= push
        right[hs[-1]] -= push
        for arc in forward:
            flow[arc] += push
        for arc in backward:
            flow[arc] -= push
        total += push
        supplied[ts[0]], unfilled[hs[-1]] = left[ts[0]] > 0.0, right[hs[-1]] > 0.0


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


def stoer_wagner_reference(weights: np.ndarray) -> float:
    """Global minimum cut weight by Stoer-Wagner, frozen as
    ``graphspec.combinatorial.stoer_wagner_min_cut`` stood before it
    contracted more than one pair per phase: |V| - 1 maximum-adjacency
    phases from vertex 0, each merging its last vertex into the one picked
    before it (Stoer and Wagner, J. ACM 1997).  0 when the graph is
    disconnected or has fewer than two vertices."""
    w = np.array(weights, dtype=float)
    best = math.inf if len(w) > 1 else 0.0
    for size in range(len(w), 1, -1):
        conn = w[0].copy()
        conn[0] = -math.inf
        s = t = 0
        for _ in range(size - 1):
            s, t = t, int(np.argmax(conn))
            cut = conn[t]
            conn += w[t]
            conn[t] = -math.inf
        best = min(best, float(cut))
        w[s] += w[t]
        w[:, s] += w[:, t]
        w[t] = w[:, t] = -math.inf
    return best


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

    Deg_b = <rho, 1>_B, on {f : <f, 1>_B = 0}, and the largest |entry| of
    the form.  The least eigenvalue is -inf when the denominator is
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
    return least, float(np.abs(q).max())


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


def total_support(weights: np.ndarray) -> bool:
    """Whether every positive entry of square ``weights`` lies on a positive
    diagonal, a permutation sigma with weights[i, sigma(i)] > 0 for every i.
    Enumerates all |V|! permutations, so |V| <= MAX_SUPPORT_DIM."""
    n = weights.shape[0]
    if n > MAX_SUPPORT_DIM:
        raise TooLarge(f"{n} vertices; at most {MAX_SUPPORT_DIM}")
    positive = weights > 0.0
    covered = np.zeros_like(positive)
    for sigma in itertools.permutations(range(n)):
        if all(positive[i, sigma[i]] for i in range(n)):
            covered[range(n), sigma] = True
    return bool(positive.any()) and bool(np.array_equal(covered, positive))


def _normalize_weights_reference(measure, weights):
    """``weights`` rescaled to D w D with every weighted degree 1, or ``None``:
    the symmetric Sinkhorn iteration x <- x / sqrt(Deg) with every Deg and
    every row sum of w * outer(x, x) tested after each round."""
    if not _has_total_support(weights):
        return None
    x = np.ones(measure.size)
    for _ in range(NORMALIZE_ROUNDS):
        deg = x * (weights @ x) / measure
        if np.all(np.abs(deg - 1.0) <= NORMALIZE_TOL):
            scaled = weights * np.outer(x, x)
            if np.all(np.abs(scaled.sum(axis=1) / measure - 1.0) <= NORMALIZE_TOL):
                return scaled
        x = x / np.sqrt(deg)
    return None


def random_graph_reference(rng, max_vertices: int = 12, weight_model=None):
    """``graphspec.fixtures.random_graph``, one numpy call at a time: the
    same graph and the same generator state after every draw."""
    models = ["unit", "lognormal", "normalized"]
    for _ in range(200):
        model = weight_model or models[rng.integers(len(models))]
        n = int(rng.integers(3, max_vertices + 1))
        nb = int(rng.integers(1, max(2, n // 2 + 1)))
        nom = n - nb
        w = np.zeros((n, n))
        # spanning tree on the interior keeps Omega's support connected
        interior = np.arange(nb, n)
        order = rng.permutation(interior)
        for i in range(1, nom):
            a, b = order[i], order[rng.integers(i)]
            w[a, b] = w[b, a] = 1.0
        p_edge = 0.4
        iu, iv = np.triu_indices(nom, 1)
        coin = rng.random(iu.size) < p_edge
        iu, iv = iu[coin] + nb, iv[coin] + nb
        w[iu, iv] = w[iv, iu] = 1.0
        for x in range(nb):
            nbrs = interior[rng.random(nom) < 0.5]
            if nbrs.size == 0:
                nbrs = interior[[rng.integers(nom)]]
            w[x, nbrs] = w[nbrs, x] = 1.0
        measure = np.exp(rng.normal(0.0, 0.5, n)) if model == "lognormal" else np.ones(n)
        if model != "unit":
            # lognormal weights on the support of w
            sigma = 0.7 if model == "lognormal" else 0.3
            iu, iv = np.nonzero(np.triu(w, k=1))
            w[iu, iv] = w[iv, iu] = np.exp(rng.normal(0.0, sigma, iu.size))
        if model == "normalized":
            w = _normalize_weights_reference(measure, w)
            if w is None:
                continue
        graph = WeightedBoundaryGraph(measure=measure, weights=w, boundary=np.arange(nb))
        validate_reference(graph)
        return graph
    raise RuntimeError("could not draw a valid random graph in 200 attempts")


def _first(mask: np.ndarray):
    flat = int(mask.argmax())
    return flat if mask.ndim == 1 else tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def validate_reference(graph: WeightedBoundaryGraph, require_boundary: bool = True) -> None:
    """``graphspec.graph.validate`` as it stood with one test per invariant:
    raise GraphValidationError on the first violated invariant, checked in
    the order NonfiniteValue (measure, then weight), SelfLoop,
    AsymmetricWeight, NegativeWeight, NonpositiveMeasure, NonfiniteValue
    (a degree that overflows, then one whose double does), EmptyBoundary,
    BoundaryEdge, IsolatedBoundaryVertex, Disconnected (the first vertex a
    breadth-first search from vertex 0 does not reach)."""
    m, w = graph.measure, graph.weights
    if not np.isfinite(m).all():
        raise GraphValidationError("NonfiniteValue", _first(~np.isfinite(m)))
    if not np.isfinite(w).all():
        raise GraphValidationError("NonfiniteValue", _first(~np.isfinite(w)))
    if w.diagonal().any():
        raise GraphValidationError("SelfLoop", _first(w.diagonal() != 0.0))
    if not (w == w.T).all():
        raise GraphValidationError("AsymmetricWeight", _first(w != w.T))
    if (w < 0.0).any():
        raise GraphValidationError("NegativeWeight", _first(w < 0.0))
    if not (m > 0.0).all():
        raise GraphValidationError("NonpositiveMeasure", _first(m <= 0.0))
    with np.errstate(over="ignore"):
        row_sums = w.sum(axis=1)
        deg = row_sums / m
        if not np.isfinite(2.0 * deg).all():
            bad = ~np.isfinite(deg)
            raise GraphValidationError(
                "NonfiniteValue", _first(bad if bad.any() else ~np.isfinite(2.0 * deg)))
    if require_boundary:
        b = graph.boundary
        if b.size == 0:
            raise GraphValidationError("EmptyBoundary")
        inside = w[b][:, b] > 0.0
        if inside.any():
            u, v = _first(inside)
            raise GraphValidationError("BoundaryEdge", (int(b[u]), int(b[v])))
        isolated = row_sums[b] == 0.0
        if isolated.any():
            raise GraphValidationError("IsolatedBoundaryVertex", int(b[_first(isolated)]))
    if graph.vertex_count:
        adj = w > 0.0
        reached = np.zeros(graph.vertex_count, dtype=bool)
        reached[0] = True
        frontier = reached
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reached
            reached |= frontier
        if not reached.all():
            raise GraphValidationError("Disconnected", _first(~reached))


_TOP_KEYS = ("vertices", "edges", "boundary")


def _number(value, what) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{what} must be a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise GraphFormatError(f"{what} is out of range: {value!r}") from None


def _vertex_index(value, n: int, what) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{what} must be an integer: {value!r}")
    if not 0 <= value < n:
        raise GraphFormatError(f"{what} out of range: {value!r}")
    return value


def _records(doc: dict, key: str, fields: set, name: str) -> list:
    items = doc[key]
    if not isinstance(items, list):
        raise GraphFormatError(f"{key} must be a list")
    for item in items:
        if not isinstance(item, dict) or set(item) != fields:
            raise GraphFormatError(f"bad {name} record: {item!r}")
    return items


def graph_from_json_sequential(doc: dict) -> WeightedBoundaryGraph:
    """The graph of a JSON document, read and checked one record at a time:
    each record's checks run in document order, and the first that fails
    raises its ``GraphFormatError``."""
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be an object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise GraphFormatError(f"unknown keys: {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise GraphFormatError(f"missing key: {key}")
    verts = _records(doc, "vertices", {"id", "measure"}, "vertex")
    n = len(verts)
    ids = [_vertex_index(v["id"], n, "vertex id") for v in verts]
    if len(set(ids)) < n:  # n ids, each in 0..n-1
        raise GraphFormatError("each vertex id must appear once")
    measure = np.empty(n)
    for i, v in zip(ids, verts):
        measure[i] = _number(v["measure"], f"measure of vertex {i}")
    weights = np.zeros((n, n))
    seen = set()
    for e in _records(doc, "edges", {"u", "v", "weight"}, "edge"):
        u = _vertex_index(e["u"], n, "edge endpoint")
        v = _vertex_index(e["v"], n, "edge endpoint")
        if u == v:
            raise GraphFormatError(f"bad edge endpoints: {e!r}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise GraphFormatError(f"duplicate edge records for the pair {pair}")
        seen.add(pair)
        weights[u, v] = weights[v, u] = _number(e["weight"], f"weight of edge {pair}")
    if not isinstance(doc["boundary"], list):
        raise GraphFormatError("boundary must be a list")
    boundary = [_vertex_index(b, n, "boundary index") for b in doc["boundary"]]
    return WeightedBoundaryGraph(
        measure=measure, weights=weights, boundary=np.asarray(boundary, dtype=np.intp)
    )
