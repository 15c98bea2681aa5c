"""Constructed graphs for the tests: named small graphs, the scale graphs,
the equality-case recipes, and fixtures for the equality characterizations.

The two recipe builders realize the explicit equality constructions: one
produces graphs where every Neumann eigenvalue equals the corresponding
full-graph eigenvalue (factorized boundary weights, light interior), the
other produces graphs where the shifted full spectrum matches the Dirichlet
spectrum at every index but one (factorized boundary weights, heavy
interior with a prescribed number of components).

For each biconditional theorem a positive builder produces a graph that
satisfies the structural condition exactly, and the matching negative
builder perturbs one quantity so the condition fails.

Two recipes span the float range: a family of rho-factorized draws, and
the graphs G1 and G2 of the same shape, on which the NeuVsLap quadratic
form overflows.
"""

from __future__ import annotations

import numpy as np

from graphspec.graph import GraphValidationError, WeightedBoundaryGraph, validate, volumes
from graphspec.spectra import spectrum


def path_graph(n: int, boundary=(), weights=None, measure=None) -> WeightedBoundaryGraph:
    """Unit path v0 - v1 - ... - v(n-1); optional per-edge weights."""
    d = np.ones(n - 1) if weights is None else np.asarray(weights, dtype=float)
    w = np.diag(d, 1) + np.diag(d, -1)
    m = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
    return WeightedBoundaryGraph(measure=m, weights=w, boundary=np.asarray(boundary, dtype=np.intp))


def scale_graph(n: int, model: str = "unit", seed: int = 1) -> WeightedBoundaryGraph:
    """A graph at the sizes beyond the corpus (ROADMAP's scale-graph recipe):
    the first n // 4 vertices are the boundary B; pairs are drawn with
    probability 0.4, every B-B pair is removed, the path through Omega
    (vertices n // 4 .. n - 1) is added, and a boundary vertex left with no
    Omega neighbour is joined to the first Omega vertex.  Unit measures;
    ``model`` "lognormal" multiplies each 0/1 weight by a lognormal(0, 1)
    draw.  With seed 1 it has 789, 3,129 and 12,386 edges at n = 64, 128
    and 256."""
    rng = np.random.default_rng(seed)
    nb = n // 4
    upper = np.triu(rng.random((n, n)) < 0.4, 1)
    adjacent = upper | upper.T
    adjacent[:nb, :nb] = False
    omega = np.arange(nb, n - 1)
    adjacent[omega, omega + 1] = adjacent[omega + 1, omega] = True
    lonely = np.flatnonzero(~adjacent[:nb, nb:].any(axis=1))
    adjacent[lonely, nb] = adjacent[nb, lonely] = True
    w = adjacent.astype(float)
    if model == "lognormal":
        factor = np.triu(rng.lognormal(0.0, 1.0, (n, n)), 1)
        w *= factor + factor.T
    elif model != "unit":
        raise ValueError(f"unknown weight model {model!r}")
    graph = WeightedBoundaryGraph(measure=np.ones(n), weights=w, boundary=np.arange(nb))
    validate(graph)
    return graph


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
        mu_top = spectrum(probe, "FullLaplacian")[-1]
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
        mu = spectrum(graph, "InteriorLaplacian")
        # j unit cliques leave exactly j zero eigenvalues, so mu[j] >= 2 > 0
        scale = 2.0 * v_omega / float(mu[j])
        w2 = w.copy()
        w2[nb:, nb:] = scale * clique
        graph = WeightedBoundaryGraph(measure=m, weights=w2, boundary=np.arange(nb))
    validate(graph)
    return graph


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


def float_range_rho_graph(rng) -> WeightedBoundaryGraph | None:
    """Boundary weights w_xy = r_x m_y on every boundary-interior pair, with
    measures, r and interior weights spread across the float range; None
    when ``validate`` refuses the draw (a degree that overflows, say).

    |V| in 4..7, |B| in 2..|V|/2 and B the first |B| vertices.  With
    probability 0.7 each measure is 10^U(-150, 150), otherwise every
    measure is 1; r_x = 10^U(-150, 150), and each interior pair is an edge
    with probability 0.3 and weight 10^U(-150, 150)."""
    n = int(rng.integers(4, 8))
    nb = int(rng.integers(2, n // 2 + 1))
    m = 10.0 ** rng.uniform(-150.0, 150.0, n) if rng.random() < 0.7 else np.ones(n)
    r = 10.0 ** rng.uniform(-150.0, 150.0, nb)
    w = np.zeros((n, n))
    w[:nb, nb:] = r[:, None] * m[None, nb:]
    nom = n - nb
    edges = rng.random((nom, nom)) < 0.3
    w[nb:, nb:] = np.triu(10.0 ** rng.uniform(-150.0, 150.0, (nom, nom)) * edges, 1)
    g = WeightedBoundaryGraph(measure=m, weights=w + w.T, boundary=np.arange(nb))
    try:
        validate(g)
    except GraphValidationError:
        return None
    return g


def rigidity_overflow_graph(name: str) -> WeightedBoundaryGraph:
    """G1 or G2: B = {0, 1} joined to both interior vertices 2 and 3, which
    share no edge.  The boundary weights
    factor with distinct rho_x, and NeuVsLap's quadratic form overflows.
    On G2, V_G - V_B cancels to 0 while V_Omega = 2e-200."""
    measure, (w0, w1) = {
        "G1": ((1e15, 2e15, 1.0, 1.0), (1e293, 3e293)),
        "G2": ((1e100, 1e150, 1e-200, 1e-200), (1e-100, 2e-50)),
    }[name]
    w = np.zeros((4, 4))
    w[0, 2:] = w0
    w[1, 2:] = w1
    g = WeightedBoundaryGraph(measure=np.array(measure), weights=w + w.T,
                              boundary=np.array([0, 1]))
    validate(g)
    return g


BICONDITIONAL_BUILDERS = {
    "DiriVsInteriorTwoSided": (dirichlet_interior_positive, dirichlet_interior_negative),
    "NeuVsInterior": (neumann_interior_positive, neumann_interior_negative),
    "DiriVsNeuTwoSided": (dirichlet_neumann_positive, dirichlet_neumann_negative),
    "NeuVsLap": (neumann_laplacian_positive, neumann_laplacian_negative),
}
