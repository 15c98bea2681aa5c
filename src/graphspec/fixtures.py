"""Constructed graphs: named small fixtures, equality-case recipes, and the
seeded random generator used by the audit commands.

The two recipe builders realize the explicit equality constructions: one
produces graphs where every Neumann eigenvalue equals the corresponding
full-graph eigenvalue (factorized boundary weights, light interior), the
other produces graphs where the shifted full spectrum matches the Dirichlet
spectrum at every index but one (factorized boundary weights, heavy
interior with a prescribed number of components).
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedBoundaryGraph, validate, volumes
from .spectra import spectrum


def path_graph(n: int, boundary=(), weights=None, measure=None) -> WeightedBoundaryGraph:
    """Unit path v0 - v1 - ... - v(n-1); optional per-edge weights."""
    d = np.ones(n - 1) if weights is None else np.asarray(weights, dtype=float)
    w = np.diag(d, 1) + np.diag(d, -1)
    m = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
    return WeightedBoundaryGraph(measure=m, weights=w, boundary=np.asarray(boundary, dtype=np.intp))


def complete_bipartite(nb: int, nom: int, weight: float = 1.0) -> WeightedBoundaryGraph:
    """K_{B,Omega} with unit measures and the boundary listed first
    (vertices 0..nb-1)."""
    n = nb + nom
    w = np.zeros((n, n))
    w[:nb, nb:] = weight
    w[nb:, :nb] = weight
    return WeightedBoundaryGraph(measure=np.ones(n), weights=w, boundary=np.arange(nb))


def neumann_equality_recipe(nb: int, nom: int, rho: float = 1.0) -> WeightedBoundaryGraph:
    """Graph on which nu_i = mu_i at every index.

    Unit boundary measures, interior measures 2|B| / max(|Omega| - 1, 1),
    which make V_Omega > V_B, boundary weights w_xy = rho m_x m_y for all
    boundary-interior pairs, and a complete interior whose weights are
    scaled down until the top interior eigenvalue is at most
    rho (V_Omega - V_B).
    """
    interior_measure = 2.0 * nb / max(nom - 1, 1)
    n = nb + nom
    m = np.concatenate([np.ones(nb), np.full(nom, interior_measure)])
    w = np.zeros((n, n))
    w[:nb, nb:] = rho * m[:nb, None] * m[nb:]
    w[nb:, :nb] = w[:nb, nb:].T
    graph = WeightedBoundaryGraph(measure=m, weights=w, boundary=np.arange(nb))
    v_omega, v_b, _ = volumes(graph)
    budget = rho * (v_omega - v_b)
    if nom >= 2:
        # complete unit interior, then shrink until mu_top fits the budget
        w_int = np.ones((nom, nom)) - np.eye(nom)
        probe = WeightedBoundaryGraph(
            measure=m[nb:], weights=w_int, boundary=np.array([], dtype=np.intp)
        )
        mu_top = spectrum(probe, "FullLaplacian").eigenvalues[-1]
        interior_scale = 0.5 * budget / mu_top if mu_top > 0 else 1.0
        w2 = w.copy()
        w2[nb:, nb:] = interior_scale * w_int
        graph = WeightedBoundaryGraph(measure=m, weights=w2, boundary=np.arange(nb))
    validate(graph)
    return graph


def laplacian_dirichlet_recipe(j: int, nb: int, nom: int) -> WeightedBoundaryGraph:
    """Graph on which mu_{i+|B|} = lambda_i at every index except j.

    Interior split into j complete components with unit measures, all
    boundary-interior pairs carry w_xy = m_x m_y (rho = 1), V_Omega <= V_B,
    and the interior weights are scaled up until mu_{j+1}(Omega) >= V_Omega.
    """
    if not (1 <= j <= nom):
        raise ValueError("need 1 <= j <= |Omega|")
    boundary_measure = max(1.0, 1.5 * nom / nb)  # V_B > V_Omega with unit interior
    n = nb + nom
    m = np.concatenate([np.full(nb, boundary_measure), np.ones(nom)])
    w = np.zeros((n, n))
    w[:nb, nb:] = m[:nb, None] * m[nb:]
    w[nb:, :nb] = w[:nb, nb:].T
    # split interior vertices into j blocks, each a clique
    label = np.repeat(np.arange(j), [b.size for b in np.array_split(np.arange(nom), j)])
    clique = (label[:, None] == label) & ~np.eye(nom, dtype=bool)
    w[nb:, nb:] = clique
    graph = WeightedBoundaryGraph(measure=m, weights=w, boundary=np.arange(nb))
    v_omega = volumes(graph)[0]
    if j < nom:
        mu = spectrum(graph, "InteriorLaplacian").eigenvalues
        # j unit cliques leave exactly j zero eigenvalues, so mu[j] >= 2 > 0
        scale = 2.0 * v_omega / float(mu[j])
        w2 = w.copy()
        w2[nb:, nb:] = scale * clique
        graph = WeightedBoundaryGraph(measure=m, weights=w2, boundary=np.arange(nb))
    validate(graph)
    return graph


# ---------------------------------------------------------------------------
# seeded random generator for audits


# the Sinkhorn iteration's round cap and its tolerance on every degree
NORMALIZE_ROUNDS = 500
NORMALIZE_TOL = 1e-13


def _normalize_weights(measure, weights):
    """``weights`` rescaled to D w D with every weighted degree 1, or ``None``
    when the draw cannot be scaled.

    The symmetric Sinkhorn iteration runs on the scaling vector x: with
    Deg_x = x_x (w x)_x / m_x, it sets x <- x / sqrt(Deg) until every Deg is
    within ``NORMALIZE_TOL`` of 1, and w * outer(x, x) is formed only to
    confirm that its row sums are too.  That matrix is bitwise symmetric.

    A symmetric nonnegative matrix has such a scaling only when it has total
    support (Csima-Datta, "The DAD theorem for symmetric non-negative
    matrices", 1972).  The model's measure is 1, so a vertex with one
    neighbour denies it: its one edge must weigh 1, which leaves 0 for its
    neighbour's other edges, and a connected draw on three or more vertices
    has some.  Such draws are rejected before iterating.
    """
    if np.any(np.count_nonzero(weights, axis=1) == 1):
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


def random_graph(
    rng: np.random.Generator,
    max_vertices: int = 12,
    weight_model: str | None = None,
) -> WeightedBoundaryGraph:
    """One random valid graph with boundary.

    Interior: Erdos-Renyi (forced connected by a random spanning tree).
    Boundary: each boundary vertex attaches to a nonempty random interior
    subset.  Weight models: "unit" (unit measure and weights), "lognormal"
    (lognormal measure and weights) and "normalized" (unit measure, lognormal
    weights scaled symmetrically to Deg = 1 at every vertex); a normalized
    draw that cannot be scaled, such as any draw with a leaf, is redrawn.
    """
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
            w = _normalize_weights(measure, w)
            if w is None:
                continue
        graph = WeightedBoundaryGraph(measure=measure, weights=w, boundary=np.arange(nb))
        validate(graph)
        return graph
    raise RuntimeError("could not draw a valid random graph in 200 attempts")
