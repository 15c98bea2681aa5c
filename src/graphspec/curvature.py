"""Curvature lower bounds and the Lichnerowicz-type certificates.

Two notions of curvature are computed on a plain weighted connected graph:

* a curvature-dimension constant per vertex, defined through the iterated
  gradient forms ``Gamma(f, g) = (Lap(fg) - f Lap g - g Lap f)/2`` and
  ``Gamma2(f) = (Lap Gamma(f, f))/2 - Gamma(f, Lap f)``: ``K(x, n)`` is the
  largest ``K`` with ``Gamma2(f)(x) >= (Lap f(x))^2 / n + K Gamma(f)(x)``
  for every ``f`` supported on the 2-ball of ``x``;
* an edge-wise transport curvature defined through 1-Lipschitz test
  functions: ``kappa(x, y) = inf { Lap f(y) - Lap f(x) }`` over ``f`` with
  Lipschitz constant at most 1 for the graph distance and
  ``f(x) - f(y) = 1``, a small linear program over the union of the unit
  balls around ``x`` and ``y``.

Positive lower bounds feed the spectral-gap certificates for the Neumann
and Dirichlet spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparisons import ComparisonCertificate, IndexRecord, _abs_tol, _certify
from .graph import (
    WeightedBoundaryGraph,
    boundary_degree_vector,
    component_count,
    degree_vector,
    interior_subgraph,
    validate,
)
from .operators import operator_by_label
from .simplex import solve_lp
from .spectra import spectrum, symmetric_eigh, weighted_singular_values

GAMMA_NULL_TOL = 1e-12


class DegenerateGamma(RuntimeError):
    """Gamma vanishes identically on the 2-ball quotient (isolated vertex)."""


@dataclass(frozen=True)
class CurvatureResult:
    kind: str  # "BakryEmery" | "Ollivier"
    dimension: float | None  # n for BakryEmery (may be inf), None for Ollivier
    per_location: dict  # vertex -> K(x) or edge (u, v) -> kappa
    global_min: float


def _graph_distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """All-pairs combinatorial distances on the support (BFS per vertex)."""
    n = graph.vertex_count
    adj = [np.flatnonzero(graph.weights[i] > 0.0) for i in range(n)]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0.0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[s, v] == np.inf:
                        dist[s, v] = d
                        nxt.append(v)
            frontier = nxt
    return dist


def _distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """Hop distances of ``graph``, computed once per graph object."""
    return graph.derived("distances", _graph_distances)


def _gamma(lap: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return 0.5 * (lap @ (f * g) - f * (lap @ g) - g * (lap @ f))


def _gamma2_at(lap: np.ndarray, f: np.ndarray, x: int) -> float:
    gff = _gamma(lap, f, f)
    return float(0.5 * (lap @ gff)[x] - _gamma(lap, f, lap @ f)[x])


def bakry_emery_curvature_at(
    graph: WeightedBoundaryGraph, x: int, n: float
) -> float:
    """K(x, n): the optimal local curvature-dimension constant at ``x``.

    Realized as a generalized eigenvalue problem over functions on the
    2-ball with f(x) = 0; directions with Gamma(f)(x) = 0 are eliminated by
    a Schur complement (they must carry a nonnegative form, else K = -inf).
    """
    lap = -operator_by_label(graph, "FullLaplacian").matrix  # the signed Laplacian Delta
    dist = _distances(graph)
    ball = np.flatnonzero((dist[x] <= 2) & (np.arange(graph.vertex_count) != x))
    k = ball.size
    if k == 0:
        raise DegenerateGamma(f"vertex {x} is isolated")
    inv_n = 0.0 if math.isinf(n) else 1.0 / n

    def q_form(f):
        val = _gamma2_at(lap, f, x)
        return val - inv_n * float((lap @ f)[x]) ** 2

    basis = np.zeros((graph.vertex_count, k))
    for j, v in enumerate(ball):
        basis[v, j] = 1.0
    g_mat = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            g_mat[i, j] = g_mat[j, i] = float(_gamma(lap, basis[:, i], basis[:, j])[x])
    q_diag = np.array([q_form(basis[:, i]) for i in range(k)])
    q_mat = np.empty((k, k))
    for i in range(k):
        q_mat[i, i] = q_diag[i]
        for j in range(i + 1, k):
            q_mat[i, j] = q_mat[j, i] = 0.5 * (
                q_form(basis[:, i] + basis[:, j]) - q_diag[i] - q_diag[j]
            )
    g_eigs, g_vecs = symmetric_eigh(g_mat)
    scale = max(float(g_eigs[-1]), 0.0)
    if scale <= GAMMA_NULL_TOL:
        raise DegenerateGamma(f"Gamma vanishes on the 2-ball of vertex {x}")
    pos = g_eigs > GAMMA_NULL_TOL * scale
    p_vecs = g_vecs[:, pos] / np.sqrt(g_eigs[pos])  # G-orthonormal columns
    z_vecs = g_vecs[:, ~pos]
    q_pp = p_vecs.T @ q_mat @ p_vecs
    if z_vecs.shape[1]:
        q_zz = z_vecs.T @ q_mat @ z_vecs
        q_pz = p_vecs.T @ q_mat @ z_vecs
        zz_eigs, zz_vecs = symmetric_eigh(0.5 * (q_zz + q_zz.T))
        zz_scale = max(1.0, float(np.abs(zz_eigs).max(initial=0.0)))
        if zz_eigs.size and float(zz_eigs[0]) < -1e-9 * zz_scale:
            return float("-inf")
        # pseudo-inverse Schur complement over the Gamma-null directions
        keep = zz_eigs > 1e-12 * zz_scale
        inv = zz_vecs[:, keep] / zz_eigs[keep]
        q_pp = q_pp - (q_pz @ zz_vecs[:, keep]) @ (inv.T @ q_pz.T)
    eigs, _ = symmetric_eigh(0.5 * (q_pp + q_pp.T))
    return float(eigs[0])


def bakry_emery_curvature(graph: WeightedBoundaryGraph, n: float) -> CurvatureResult:
    """Curvature-dimension constants K(x, n) at every vertex."""
    if n != float("inf") and n <= 1:
        raise ValueError("dimension parameter must exceed 1 (or be inf)")
    per = {x: bakry_emery_curvature_at(graph, x, n) for x in range(graph.vertex_count)}
    return CurvatureResult(
        kind="BakryEmery",
        dimension=n,
        per_location=per,
        global_min=min(per.values()),
    )


def ollivier_curvature(
    graph: WeightedBoundaryGraph, x: int, y: int
) -> float:
    """kappa(x, y) for an edge {x, y} via the Lipschitz-dual linear program."""
    if graph.weights[x, y] <= 0.0:
        raise ValueError(f"{{{x},{y}}} is not an edge")
    lap = -operator_by_label(graph, "FullLaplacian").matrix
    dist = _distances(graph)
    ball = np.flatnonzero((dist[x] <= 1) | (dist[y] <= 1))
    free = [v for v in ball if v != x and v != y]
    fixed = {x: 1.0, y: 0.0}
    # objective Lap f(y) - Lap f(x) as affine function of the free values
    obj_row = lap[y] - lap[x]
    const = sum(obj_row[v] * fv for v, fv in fixed.items())
    c = np.array([obj_row[v] for v in free])
    # shift each free value by its distance bound so variables are >= 0
    shift = np.array([dist[y, v] for v in free])
    const += float(-c @ shift)
    rows, rhs = [], []

    def add_pair(i_coeffs, bound):
        rows.append(i_coeffs)
        rhs.append(bound)

    nv = len(free)
    index = {v: i for i, v in enumerate(free)}
    members = list(fixed) + free
    for a_i in range(len(members)):
        for b_i in range(a_i + 1, len(members)):
            u, v = members[a_i], members[b_i]
            d = dist[u, v]
            if not np.isfinite(d):
                continue
            row = np.zeros(nv)
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
            # |f(u) - f(v)| <= d  ->  two one-sided constraints in g-space
            add_pair(row.copy(), d - offset)
            add_pair(-row, d + offset)
    if nv == 0:
        return float(const)
    a = np.vstack(rows)
    b = np.array(rhs)
    value, _ = solve_lp(c, a, b)
    return float(value + const)


def ollivier_curvature_all(graph: WeightedBoundaryGraph) -> CurvatureResult:
    per = {}
    for u, v, _w in graph.edges():
        per[(u, v)] = ollivier_curvature(graph, u, v)
    return CurvatureResult(
        kind="Ollivier",
        dimension=None,
        per_location=per,
        global_min=min(per.values()),
    )


# ---------------------------------------------------------------------------
# Lichnerowicz-type certificates

LICHNEROWICZ_VARIANTS = (
    "be-g-nu2",
    "ollivier-g-nu2",
    "be-interior",
    "ollivier-interior",
    "be-g-lambda2",
    "ollivier-g-lambda2",
)


class NotApplicable(RuntimeError):
    """Hypotheses of the corollary are not met (nonpositive curvature bound
    or a disconnected interior); distinct from a failed certificate."""


def _curvature_bound(graph, variant, n, tol):
    """The curvature lower bound of ``graph`` behind ``variant``.

    Curvature scales like the degrees, so a value within
    ``tol * max(1, max Deg)`` of zero counts as zero (not positive)."""
    zero_tol = tol * max(1.0, float(degree_vector(graph).max(initial=0.0)))
    if variant.startswith("be"):
        k_min = bakry_emery_curvature(graph, n).global_min
        if k_min <= zero_tol:
            raise NotApplicable(f"curvature-dimension bound {k_min} is not positive")
        return k_min if math.isinf(n) else n * k_min / (n - 1.0)
    kappa = ollivier_curvature_all(graph).global_min
    if kappa <= zero_tol:
        raise NotApplicable(f"edge curvature bound {kappa} is not positive")
    return kappa


def certify_lichnerowicz(
    graph: WeightedBoundaryGraph,
    variant: str,
    n: float = float("inf"),
    tol: float = 1e-9,
) -> ComparisonCertificate:
    """One of the six spectral-gap lower bounds from positive curvature.

    Variants: curvature of the whole graph bounding nu_2; curvature of the
    interior bounding both nu_2 and lambda_2 (with min boundary degree);
    curvature of the whole graph bounding lambda_2 (with the smallest
    squared singular value).  Raises NotApplicable when hypotheses fail.
    """
    if variant not in LICHNEROWICZ_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    validate(graph)
    records = []
    if variant.endswith("-interior"):
        sub = interior_subgraph(graph)
        if sub.vertex_count == 0 or component_count(sub) != 1:
            raise NotApplicable("interior subgraph is not connected")
        bound = _curvature_bound(sub, variant, n, tol)
        nu = spectrum(graph, "NeumannLaplacian")
        lam = spectrum(graph, "DirichletLaplacian")
        tol_abs = _abs_tol(tol, nu, lam)
        if nu.eigenvalues.size >= 2:
            nu2 = float(nu.eigenvalues[1])
            records.append(IndexRecord(1, nu2, bound, nu2 - bound, abs(nu2 - bound) <= tol_abs))
        lam2_bound = bound + float(boundary_degree_vector(graph).min())
        if lam.eigenvalues.size >= 2:
            lam2 = float(lam.eigenvalues[1])
            records.append(
                IndexRecord(2, lam2, lam2_bound, lam2 - lam2_bound, abs(lam2 - lam2_bound) <= tol_abs)
            )
        theorem_id = "LichnerowiczBE" if variant.startswith("be") else "LichnerowiczOllivier"
        return _certify(theorem_id, records, tol_abs, {"variant": variant, "bound": bound})
    bound = _curvature_bound(graph, variant, n, tol)
    theorem_id = "LichnerowiczBE" if variant.startswith("be") else "LichnerowiczOllivier"
    if variant.endswith("-nu2"):
        nu = spectrum(graph, "NeumannLaplacian")
        tol_abs = _abs_tol(tol, nu)
        if nu.eigenvalues.size < 2:
            raise NotApplicable("nu_2 does not exist (singleton interior)")
        nu2 = float(nu.eigenvalues[1])
        records.append(IndexRecord(1, nu2, bound, nu2 - bound, abs(nu2 - bound) <= tol_abs))
        return _certify(theorem_id, records, tol_abs, {"variant": variant, "bound": bound})
    # *-g-lambda2: lambda_2 >= bound + s_1^2
    lam = spectrum(graph, "DirichletLaplacian")
    tol_abs = _abs_tol(tol, lam)
    if lam.eigenvalues.size < 2:
        raise NotApplicable("lambda_2 does not exist (singleton interior)")
    rhs = bound + weighted_singular_values(graph).s1_squared
    lam2 = float(lam.eigenvalues[1])
    records.append(IndexRecord(1, lam2, rhs, lam2 - rhs, abs(lam2 - rhs) <= tol_abs))
    return _certify(theorem_id, records, tol_abs, {"variant": variant, "bound": bound})
