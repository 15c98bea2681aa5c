"""Constructed fixtures for the equality characterizations.

For each biconditional theorem a positive builder produces a graph that
satisfies the structural condition exactly, and the matching negative
builder perturbs one quantity so the condition fails.
"""

from __future__ import annotations

import numpy as np

from graphspec.fixtures import neumann_equality_recipe
from graphspec.graph import WeightedBoundaryGraph, validate


def random_connected_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric positive weights on a connected support (tree plus extras)."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = order[i], order[rng.integers(i)]
        w[a, b] = w[b, a] = float(rng.uniform(0.5, 2.0))
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0.0 and rng.random() < 0.3:
                w[i, j] = w[j, i] = float(rng.uniform(0.5, 2.0))
    return w


def pendant_graph(
    rng: np.random.Generator,
    nom: int,
    pendant_weights: np.ndarray,
    interior_measure: np.ndarray | None = None,
    boundary_measure: np.ndarray | None = None,
) -> WeightedBoundaryGraph:
    """Connected random interior on ``nom`` vertices, plus one pendant
    boundary vertex per interior vertex.  Boundary vertex ``z`` (index
    ``nom + z``) attaches to interior vertex ``z`` with ``pendant_weights[z]``."""
    n = 2 * nom
    w = np.zeros((n, n))
    w[:nom, :nom] = random_connected_weights(rng, nom)
    for z in range(nom):
        w[z, nom + z] = w[nom + z, z] = pendant_weights[z]
    if interior_measure is None:
        interior_measure = rng.uniform(0.5, 2.0, nom)
    if boundary_measure is None:
        boundary_measure = rng.uniform(0.5, 2.0, nom)
    m = np.concatenate([interior_measure, boundary_measure])
    g = WeightedBoundaryGraph(measure=m, weights=w, boundary=np.arange(nom, n))
    validate(g)
    return g


# --- DiriVsInteriorTwoSided: equality iff Deg_b constant over the interior


def dirichlet_interior_positive(rng) -> WeightedBoundaryGraph:
    nom = int(rng.integers(2, 6))
    c = float(rng.uniform(0.5, 2.0))
    m_int = rng.uniform(0.5, 2.0, nom)
    # Deg_b(z) = w_z / m_z, so w_z = c m_z makes it constant
    return pendant_graph(rng, nom, c * m_int, interior_measure=m_int)


def dirichlet_interior_negative(rng) -> WeightedBoundaryGraph:
    g = dirichlet_interior_positive(rng)
    w = g.weights.copy()
    nom = g.interior.size
    w[0, nom] *= 1.1
    w[nom, 0] = w[0, nom]
    return WeightedBoundaryGraph(measure=g.measure, weights=w, boundary=g.boundary)


# --- NeuVsInterior: equality iff every boundary vertex has one interior
# neighbour


def neumann_interior_positive(rng) -> WeightedBoundaryGraph:
    nom = int(rng.integers(2, 6))
    return pendant_graph(rng, nom, rng.uniform(0.5, 2.0, nom))


def neumann_interior_negative(rng) -> WeightedBoundaryGraph:
    g = neumann_interior_positive(rng)
    w = g.weights.copy()
    nom = g.interior.size
    # give the first boundary vertex a second interior neighbour
    w[nom, 1] = w[1, nom] = 1.0
    return WeightedBoundaryGraph(measure=g.measure, weights=w, boundary=g.boundary)


# --- DiriVsNeuTwoSided: equality iff one interior neighbour each and the
# boundary influence s(z) is constant over the interior


def dirichlet_neumann_positive(rng) -> WeightedBoundaryGraph:
    nom = int(rng.integers(2, 6))
    c = float(rng.uniform(0.5, 2.0))
    m_int = rng.uniform(0.5, 2.0, nom)
    # a single pendant on z contributes s(z) = w_z / m_z
    return pendant_graph(rng, nom, c * m_int, interior_measure=m_int)


def dirichlet_neumann_negative(rng) -> WeightedBoundaryGraph:
    g = dirichlet_neumann_positive(rng)
    w = g.weights.copy()
    nom = g.interior.size
    w[0, nom] *= 1.3
    w[nom, 0] = w[0, nom]
    return WeightedBoundaryGraph(measure=g.measure, weights=w, boundary=g.boundary)


# --- NeuVsLap: equality iff factorized boundary weights and a small enough
# top interior eigenvalue


def neumann_laplacian_positive(rng) -> WeightedBoundaryGraph:
    nb = int(rng.integers(1, 4))
    nom = int(rng.integers(2, 5))
    rho = float(rng.uniform(0.5, 2.0))
    return neumann_equality_recipe(nb, nom, rho=rho)


def neumann_laplacian_negative(rng) -> WeightedBoundaryGraph:
    g = neumann_laplacian_positive(rng)
    w = g.weights.copy()
    if rng.random() < 0.5:
        # break the factorization on one boundary-interior pair
        x = int(g.boundary[0])
        y = int(g.interior[0])
        w[x, y] *= 1.5
        w[y, x] = w[x, y]
    else:
        # keep the factorization but blow up the interior spectrum
        omega = g.interior
        w[np.ix_(omega, omega)] *= 1e3
    out = WeightedBoundaryGraph(measure=g.measure, weights=w, boundary=g.boundary)
    validate(out)
    return out


def rho_factorized_graph(rng, measure_model: str) -> WeightedBoundaryGraph:
    """Boundary weights w_xy = rho_x m_x m_y on every boundary-interior pair,
    with distinct rho_x, so NeuVsLap takes its strict-bound and
    quadratic-form branch.  |B| in 2..6, |Omega| in 2..5, unit or lognormal
    measures, and a random interior whose weights lie in [1e-3, 10]."""
    nb = int(rng.integers(2, 7))
    nom = int(rng.integers(2, 6))
    n = nb + nom
    m = np.ones(n) if measure_model == "unit" else rng.lognormal(0.0, 0.5, n)
    rho = rng.uniform(0.2, 3.0, nb)
    w = np.zeros((n, n))
    w[:nb, nb:] = rho[:, None] * m[:nb, None] * m[None, nb:]
    w[nb:, :nb] = w[:nb, nb:].T
    scale = 10.0 ** rng.uniform(-2.0, 1.0)
    interior = np.triu(rng.uniform(0.1, 1.0, (nom, nom)) * (rng.random((nom, nom)) < 0.6), 1)
    w[nb:, nb:] = scale * (interior + interior.T)
    g = WeightedBoundaryGraph(measure=m, weights=w, boundary=np.arange(nb))
    validate(g)
    return g


BICONDITIONAL_BUILDERS = {
    "DiriVsInteriorTwoSided": (dirichlet_interior_positive, dirichlet_interior_negative),
    "NeuVsInterior": (neumann_interior_positive, neumann_interior_negative),
    "DiriVsNeuTwoSided": (dirichlet_neumann_positive, dirichlet_neumann_negative),
    "NeuVsLap": (neumann_laplacian_positive, neumann_laplacian_negative),
}
