"""Curvature lower bounds and the Lichnerowicz-type certificates.

Two notions of curvature are computed on a plain weighted connected graph:

* a curvature-dimension constant per vertex, defined through the iterated
  gradient forms ``Gamma(f, g) = (Lap(fg) - f Lap g - g Lap f)/2`` and
  ``Gamma2(f) = (Lap Gamma(f, f))/2 - Gamma(f, Lap f)``: ``K(x, n)`` is the
  largest ``K`` with ``Gamma2(f)(x) >= (Lap f(x))^2 / n + K Gamma(f)(x)``
  for every ``f`` supported on the 2-ball of ``x``.  Both sides are
  quadratic forms in the values of ``f`` on the spheres ``S_1`` and ``S_2``
  around ``x``, assembled in closed form from the Laplacian's entries
  (Cushing-Liu-Peyerimhoff).  ``Gamma(f)(x)`` sees only ``S_1``, and for
  ``f`` supported on ``S_2`` both ``Lap f(x)`` and ``Gamma(f, Lap f)(x)``
  vanish, so the ``S_2`` block of the Gamma2 form is diagonal and positive;
  eliminating it leaves one symmetric eigenproblem on ``S_1`` (see
  ``bakry_emery_curvature_at``);
* an edge-wise transport curvature defined through 1-Lipschitz test
  functions: ``kappa(x, y) = inf { Lap f(y) - Lap f(x) }`` over ``f`` with
  Lipschitz constant at most 1 for the graph distance and
  ``f(x) - f(y) = 1``, a small linear program over the union of the unit
  balls around ``x`` and ``y`` (the Laplacian-based Ollivier curvature of
  Muench-Wojciechowski).  Its constraints are one pair per vertex pair of
  the ball, so the simplex is handed the LP dual instead, an optimal
  transport problem with one row per free ball vertex and the same optimum
  (see ``ollivier_curvature``).

Positive lower bounds feed the spectral-gap certificates for the Neumann
and Dirichlet spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparisons import ComparisonCertificate, _abs_tol, _one_sided
from .graph import (
    NotApplicable,
    WeightedBoundaryGraph,
    boundary_degree_vector,
    degree_vector,
    hop_distances,
    interior_subgraph,
    validate,
)
from .operators import operator_by_label
from .simplex import solve_lp
from .spectra import spectrum, symmetric_eigh, weighted_singular_values


@dataclass(frozen=True)
class CurvatureResult:
    kind: str  # "BakryEmery" | "Ollivier"
    dimension: float | None  # n for BakryEmery (may be inf), None for Ollivier
    per_location: dict  # vertex -> K(x) or edge (u, v) -> kappa
    global_min: float


def _graph_distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """All-pairs combinatorial distances on the support."""
    return hop_distances(graph.weights)


def _distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """Hop distances of ``graph``, computed once per graph object."""
    return graph.derived("distances", _graph_distances)


def _require_connected(graph: WeightedBoundaryGraph) -> None:
    """Both curvatures are defined on a connected graph with an edge."""
    if graph.vertex_count < 2 or not np.isfinite(_distances(graph)).all():
        raise NotApplicable("curvature needs a connected graph with an edge")


def bakry_emery_curvature_at(
    graph: WeightedBoundaryGraph, x: int, n: float
) -> float:
    """K(x, n): the optimal local curvature-dimension constant at ``x``.

    The forms are assembled in closed form (Cushing-Liu-Peyerimhoff) on the
    functions with ``f(x) = 0`` supported on the spheres ``S_1``, ``S_2`` of
    radius 1 and 2 around ``x``.  With ``L`` the Laplacian divided by a power
    of two ``s`` near ``Deg(x)``, ``p_zy`` its off-diagonal entries and
    ``l`` its row ``x``:

    * ``Gamma(f)(x) = f^T G f`` with ``G = diag(p_xv / 2)`` on ``S_1`` and 0
      on ``S_2``;
    * ``Gamma2(f)(x) - (Lap f(x))^2 / n = f^T Q f`` with
      ``Q = sum_z l_z Gamma_z / 2 - sym(Gamma_x L) - l l^T / n``, where
      ``Gamma_z = sum_y p_zy (e_y - e_z)(e_y - e_z)^T / 2`` is the form of
      ``Gamma(f)(z)``.

    On ``S_2`` both ``Lap f(x)`` and ``Gamma(f, Lap f)(x)`` vanish, so
    ``Q_22`` is diagonal with entries ``sum_{y in S_1} p_xy p_yz / 4 > 0``.
    Minimizing over the ``S_2`` values leaves the Schur complement
    ``Q_11 - Q_12 Q_22^{-1} Q_21``, and ``K`` is ``s`` times its least
    eigenvalue relative to ``G_11``.  Raises NotApplicable for an isolated
    ``x``, where ``Gamma`` vanishes identically, and when the scaled 2-ball
    block or the forms assembled from it are not finite, which happens only
    when the degrees in the 2-ball differ by more than the float range.
    """
    dist = _distances(graph)[x]
    s1 = np.flatnonzero(dist == 1)
    if s1.size == 0:
        raise NotApplicable(f"vertex {x} is isolated")
    ball = np.concatenate(([x], s1, np.flatnonzero(dist == 2)))
    lap = -operator_by_label(graph, "FullLaplacian").matrix
    # dividing by an exact power of two near Deg(x) keeps the forms of
    # moderate size at any weight scale, and K is scaled back exactly
    scale = 2.0 ** (math.frexp(-lap[x, x])[1] - 1)
    with np.errstate(all="ignore"):
        sub = lap[np.ix_(ball, ball)] / scale  # L on the 2-ball, x first
        deg = -np.diag(sub)
        p = sub + np.diag(deg)
        ell = sub[0]
        # sum_z l_z Gamma_z / 2, and half of Gamma_x L, whose row v != x is
        # p_xv (L_v - l) / 2
        half_lap_gamma = 0.25 * (np.diag(p.T @ ell + ell * deg) - (ell[:, None] * p + p.T * ell))
        half_gamma_x_lap = 0.25 * p[0][:, None] * (sub - ell)
        inv_n = 0.0 if math.isinf(n) else 1.0 / n
        q = half_lap_gamma - (half_gamma_x_lap + half_gamma_x_lap.T) - inv_n * np.outer(ell, ell)
        q = q[1:, 1:]  # f(x) = 0
        k = s1.size
        q12 = q[:k, k:]
        schur = q[:k, :k] - (q12 / np.diag(q)[k:]) @ q12.T
        d = 1.0 / np.sqrt(0.5 * p[0, 1 : k + 1])
        form = d[:, None] * schur * d
    # an entry of sub that overflows leaves a non-finite entry in q
    if not (np.isfinite(q).all() and np.isfinite(form).all()):
        raise NotApplicable(f"the curvature forms at vertex {x} overflow: the degrees "
                            "in its 2-ball differ by more than the float range")
    eigs, _ = symmetric_eigh(form)
    return scale * float(eigs[0])


def bakry_emery_curvature(graph: WeightedBoundaryGraph, n: float) -> CurvatureResult:
    """Curvature-dimension constants K(x, n) at every vertex."""
    if n != float("inf") and n <= 1:
        raise ValueError("dimension parameter must exceed 1 (or be inf)")
    _require_connected(graph)
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
    """kappa(x, y) for an edge {x, y}, solved through the LP's transport dual.

    The primal LP is over the free values of ``f`` on ``B_1(x) u B_1(y)``
    (all but ``f(x) = 1`` and ``f(y) = 0``), shifted to
    ``g = f + d(y, .) >= 0``: ``min c.g + const  s.t.  A g <= b,  g >= 0``
    with the row pair ``+-(f(u) - f(v)) <= d(u, v)`` for each vertex pair
    but {x, y}.  It is feasible (``f = 1 - d(x, .)``) and bounded (every
    free vertex is adjacent to ``x`` or ``y``, so ``|f| <= 2``), so by strong
    duality its optimum is ``-min { b.u : -A^T u <= c, u >= 0 }``.  That dual
    has one row per free vertex and one column per one-sided pair
    constraint, the transport variables, where the primal has a row for
    each; both give kappa up to round-off.
    """
    if graph.weights[x, y] <= 0.0:
        raise ValueError(f"{{{x},{y}}} is not an edge")
    lap = -operator_by_label(graph, "FullLaplacian").matrix
    dist = _distances(graph)
    ball = np.flatnonzero((dist[x] <= 1) | (dist[y] <= 1))
    free = ball[(ball != x) & (ball != y)]
    # objective Lap f(y) - Lap f(x) = c.g + const
    obj_row = lap[y] - lap[x]
    c = obj_row[free]
    shift = dist[y, free]
    const = float(obj_row[x] - c @ shift)
    nv = free.size
    if nv == 0:
        return const
    members = np.concatenate(([x, y], free))
    base = np.concatenate(([1.0, 0.0], -shift))  # f - g on the members
    i, j = np.triu_indices(members.size, 1)
    i, j = i[1:], j[1:]  # the (x, y) pair has no variable
    d = dist[members[i], members[j]]
    offset = base[i] - base[j]
    pair = np.zeros((i.size, members.size))
    pair[np.arange(i.size), i] = 1.0
    pair[np.arange(i.size), j] = -1.0
    # |f(u) - f(v)| <= d  ->  two one-sided rows in g-space, in pair order
    a = np.stack([pair[:, 2:], -pair[:, 2:]], axis=1).reshape(-1, nv)
    b = np.stack([d - offset, d + offset], axis=1).ravel()
    # c, the dual's right-hand side, carries the degree scale; dividing it
    # exactly by a power of two near Deg(x) + Deg(y) keeps the simplex's
    # absolute tolerances meaningful for weights of any magnitude
    scale = 2.0 ** (math.frexp(-lap[x, x] - lap[y, y])[1] - 1)
    value, _ = solve_lp(b, -a.T, c / scale)
    return const - scale * value


def ollivier_curvature_all(graph: WeightedBoundaryGraph) -> CurvatureResult:
    """Transport curvature kappa(u, v) on every edge."""
    _require_connected(graph)
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
    theorem_id = "LichnerowiczBE" if variant.startswith("be") else "LichnerowiczOllivier"
    if variant.endswith("-interior"):
        # the curvature guard leaves a connected interior of >= 2 vertices,
        # so nu_2 and lambda_2 exist
        bound = _curvature_bound(interior_subgraph(graph), variant, n, tol)
        nu = spectrum(graph, "NeumannLaplacian")
        lam = spectrum(graph, "DirichletLaplacian")
        tol_abs = _abs_tol(tol, nu, lam)
        lhs = [float(nu.eigenvalues[1]), float(lam.eigenvalues[1])]
        rhs = [bound, bound + float(boundary_degree_vector(graph).min())]
        return _one_sided(theorem_id, lhs, rhs, tol_abs, {"variant": variant, "bound": bound})
    bound = _curvature_bound(graph, variant, n, tol)
    if variant.endswith("-nu2"):
        nu = spectrum(graph, "NeumannLaplacian")
        tol_abs = _abs_tol(tol, nu)
        if nu.eigenvalues.size < 2:
            raise NotApplicable("nu_2 does not exist (singleton interior)")
        lhs, rhs = float(nu.eigenvalues[1]), bound
    else:  # *-g-lambda2: lambda_2 >= bound + s_1^2
        lam = spectrum(graph, "DirichletLaplacian")
        tol_abs = _abs_tol(tol, lam)
        if lam.eigenvalues.size < 2:
            raise NotApplicable("lambda_2 does not exist (singleton interior)")
        lhs, rhs = float(lam.eigenvalues[1]), bound + weighted_singular_values(graph).s1_squared
    return _one_sided(theorem_id, [lhs], [rhs], tol_abs, {"variant": variant, "bound": bound})
