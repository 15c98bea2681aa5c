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
    w = np.zeros((n, n))
    for i in range(n - 1):
        wi = 1.0 if weights is None else weights[i]
        w[i, i + 1] = w[i + 1, i] = wi
    m = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
    return WeightedBoundaryGraph(measure=m, weights=w, boundary=np.asarray(boundary, dtype=np.intp))


def complete_bipartite(
    nb: int, nom: int, weight: float = 1.0, measure=None
) -> WeightedBoundaryGraph:
    """K_{B,Omega} with the boundary listed first (vertices 0..nb-1)."""
    n = nb + nom
    w = np.zeros((n, n))
    w[:nb, nb:] = weight
    w[nb:, :nb] = weight
    m = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
    return WeightedBoundaryGraph(measure=m, weights=w, boundary=np.arange(nb))


def star_graph(leaves: int, boundary_leaves: bool = True) -> WeightedBoundaryGraph:
    """Star with the center last; boundary is the leaf set by default."""
    return complete_bipartite(leaves, 1) if boundary_leaves else complete_bipartite(1, leaves)


def neumann_equality_recipe(
    nb: int,
    nom: int,
    rho: float = 1.0,
    interior_scale: float | None = None,
    boundary_measure: float = 1.0,
    interior_measure: float | None = None,
) -> WeightedBoundaryGraph:
    """Graph on which nu_i = mu_i at every index.

    Boundary weights w_xy = rho m_x m_y for all boundary-interior pairs with
    V_Omega > V_B, and a complete interior whose weights are scaled down until
    the top interior eigenvalue is at most rho (V_Omega - V_B).
    """
    if interior_measure is None:
        # make V_Omega comfortably larger than V_B
        interior_measure = 2.0 * boundary_measure * nb / max(nom - 1, 1)
    n = nb + nom
    m = np.concatenate([np.full(nb, boundary_measure), np.full(nom, interior_measure)])
    w = np.zeros((n, n))
    for x in range(nb):
        for y in range(nb, n):
            w[x, y] = w[y, x] = rho * m[x] * m[y]
    graph = WeightedBoundaryGraph(measure=m, weights=w, boundary=np.arange(nb))
    v_omega, v_b, _ = volumes(graph)
    if v_omega <= v_b:
        raise ValueError("recipe requires V_Omega > V_B; enlarge interior measures")
    budget = rho * (v_omega - v_b)
    if nom >= 2:
        if interior_scale is None:
            # complete unit interior, then shrink until mu_top fits the budget
            w_int = np.ones((nom, nom)) - np.eye(nom)
            probe = WeightedBoundaryGraph(
                measure=m[nb:], weights=w_int, boundary=np.array([], dtype=np.intp)
            )
            mu_top = spectrum(probe, "FullLaplacian").eigenvalues[-1]
            interior_scale = 0.5 * budget / mu_top if mu_top > 0 else 1.0
        w2 = w.copy()
        w2[nb:, nb:] = interior_scale * (np.ones((nom, nom)) - np.eye(nom))
        graph = WeightedBoundaryGraph(measure=m, weights=w2, boundary=np.arange(nb))
    validate(graph)
    return graph


def laplacian_dirichlet_recipe(
    j: int,
    nb: int,
    nom: int,
    rho: float = 1.0,
    boundary_measure: float | None = None,
) -> WeightedBoundaryGraph:
    """Graph on which mu_{i+|B|} = lambda_i at every index except j.

    Interior split into j complete components, all boundary-interior pairs
    carry w_xy = rho m_x m_y, V_Omega <= V_B, and the interior weights are
    scaled up until mu_{j+1}(Omega) >= rho V_Omega.
    """
    if not (1 <= j <= nom):
        raise ValueError("need 1 <= j <= |Omega|")
    if boundary_measure is None:
        boundary_measure = max(1.0, 1.5 * nom / nb)  # V_B >= V_Omega with unit interior
    n = nb + nom
    m = np.concatenate([np.full(nb, boundary_measure), np.ones(nom)])
    w = np.zeros((n, n))
    for x in range(nb):
        for y in range(nb, n):
            w[x, y] = w[y, x] = rho * m[x] * m[y]
    # split interior vertices into j blocks, each a clique
    blocks = np.array_split(np.arange(nb, n), j)
    for block in blocks:
        for a in block:
            for b in block:
                if a != b:
                    w[a, b] = 1.0
    graph = WeightedBoundaryGraph(measure=m, weights=w, boundary=np.arange(nb))
    v_omega, v_b, _ = volumes(graph)
    if v_omega > v_b:
        raise ValueError("recipe requires V_Omega <= V_B; enlarge boundary measures")
    target = rho * v_omega
    if j < nom:
        mu = spectrum(graph, "InteriorLaplacian").eigenvalues
        mu_next = float(mu[j])
        if mu_next <= 0:
            raise ValueError("interior block structure inconsistent with j")
        scale = 2.0 * target / mu_next
        w2 = w.copy()
        for block in blocks:
            for a in block:
                for b in block:
                    if a != b:
                        w2[a, b] = scale
        graph = WeightedBoundaryGraph(measure=m, weights=w2, boundary=np.arange(nb))
    validate(graph)
    return graph


# ---------------------------------------------------------------------------
# seeded random generator for audits


class NormalizationFailed(RuntimeError):
    """Iterative scaling did not reach Deg = 1 on this draw."""


def _normalize_weights(measure, weights, max_iter=500, tol=1e-10):
    """Scale weights so every weighted degree is 1 (iterative proportional
    fitting); raises NormalizationFailed when the draw cannot be scaled."""
    w = weights.copy()
    for _ in range(max_iter):
        deg = w.sum(axis=1) / measure
        if np.all(np.abs(deg - 1.0) <= tol):
            return w
        scale = 1.0 / np.sqrt(np.maximum(deg, 1e-300))
        w = w * scale[:, None] * scale[None, :]
    raise NormalizationFailed("degree normalization did not converge")


def random_graph(
    rng: np.random.Generator,
    max_vertices: int = 12,
    weight_model: str | None = None,
) -> WeightedBoundaryGraph:
    """One random valid graph with boundary.

    Interior: Erdos-Renyi (forced connected by a random spanning tree).
    Boundary: each boundary vertex attaches to a nonempty random interior
    subset.  Weight models: "unit", "lognormal", "normalized"; normalized
    draws that cannot be rescaled to Deg = 1 are rejected and retried.
    """
    models = ["unit", "lognormal", "normalized"]
    for _ in range(200):
        model = weight_model or models[rng.integers(len(models))]
        n = int(rng.integers(3, max_vertices + 1))
        nb = int(rng.integers(1, max(2, n // 2 + 1)))
        nom = n - nb
        if nom < 1:
            continue
        w = np.zeros((n, n))
        # spanning tree on the interior keeps Omega's support connected
        interior = np.arange(nb, n)
        order = rng.permutation(interior)
        for i in range(1, nom):
            a, b = order[i], order[rng.integers(i)]
            w[a, b] = w[b, a] = 1.0
        p_edge = 0.4
        for i in range(nb, n):
            for k in range(i + 1, n):
                if rng.random() < p_edge:
                    w[i, k] = w[k, i] = 1.0
        for x in range(nb):
            nbrs = interior[rng.random(nom) < 0.5]
            if nbrs.size == 0:
                nbrs = interior[[rng.integers(nom)]]
            w[x, nbrs] = 1.0
            w[nbrs, x] = 1.0
        support = w > 0
        if model == "unit":
            measure = np.ones(n)
            weights = support.astype(float)
        elif model == "lognormal":
            measure = np.exp(rng.normal(0.0, 0.5, n))
            weights = np.zeros((n, n))
            iu, iv = np.nonzero(np.triu(support, k=1))
            vals = np.exp(rng.normal(0.0, 0.7, iu.size))
            weights[iu, iv] = vals
            weights[iv, iu] = vals
        else:
            measure = np.ones(n)
            raw = np.zeros((n, n))
            iu, iv = np.nonzero(np.triu(support, k=1))
            vals = np.exp(rng.normal(0.0, 0.3, iu.size))
            raw[iu, iv] = vals
            raw[iv, iu] = vals
            try:
                weights = _normalize_weights(measure, raw)
            except NormalizationFailed:
                continue
        graph = WeightedBoundaryGraph(
            measure=measure, weights=weights, boundary=np.arange(nb)
        )
        try:
            validate(graph)
        except Exception:
            continue
        return graph
    raise RuntimeError("could not draw a valid random graph in 200 attempts")
