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

Three recipes span the float range: a family of rho-factorized draws,
seeded draws with every measure and weight redrawn across the range, and
the graphs G1 and G2 of the same shape, on which the NeuVsLap quadratic
form overflows.  ``float_range_graphs`` names the valid graphs at the ends
of the float range that the CLI tests and the replay share.
"""

from __future__ import annotations

import numpy as np

from graphspec.fixtures import random_graph
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


def float_range_graph(rng) -> WeightedBoundaryGraph | None:
    """A ``random_graph(rng, 8)`` draw with its boundary and edges kept, and
    each measure, then each edge's weight, redrawn as 10^U(-300, 300) from
    the same ``rng``; None when ``validate`` refuses it (a degree that
    overflows)."""
    g = random_graph(rng, 8)
    n = g.vertex_count
    m = 10.0 ** rng.uniform(-300.0, 300.0, n)
    w = np.triu(np.where(g.weights > 0.0, 10.0 ** rng.uniform(-300.0, 300.0, (n, n)), 0.0), 1)
    out = WeightedBoundaryGraph(measure=m, weights=w + w.T, boundary=g.boundary)
    try:
        validate(out)
    except GraphValidationError:
        return None
    return out


def bakry_emery_overflow_graph() -> WeightedBoundaryGraph:
    """Valid draw 1,867 of ``float_range_graph(default_rng(5))``: B = {0, 1},
    max Deg 1.7e297.  Every Bakry-Emery form is finite, but K at vertex 4,
    its power-of-two scale times its form's least eigenvalue, lies beyond
    the float range, at n = 4 and at n = inf."""
    measure = (4.795415354098765e42, 6.213715202555165e-127, 1.4691258978735704e-139,
               2.4620258020285877e122, 408.6804017657928)
    w = np.zeros((5, 5))
    for (u, v), weight in {
        (0, 2): 2.0573789472979446e86, (0, 3): 1.3729987064489078e229,
        (0, 4): 3.00449480758298e187, (1, 2): 62.56118906331588,
        (1, 4): 1.0627214139200336e171, (2, 4): 6.011340951907599e-94,
        (3, 4): 8.042457791986353e162,
    }.items():
        w[u, v] = w[v, u] = weight
    g = WeightedBoundaryGraph(measure=np.array(measure), weights=w, boundary=np.array([0, 1]))
    validate(g)
    return g


def graph_from_edges(measure, edges, boundary) -> WeightedBoundaryGraph:
    """The graph with the vertex masses ``measure``, an edge of weight ``w``
    for each ``(u, v, w)`` of ``edges``, and the boundary ``boundary``."""
    w = np.zeros((len(measure), len(measure)))
    for u, v, weight in edges:
        w[u, v] = w[v, u] = weight
    return WeightedBoundaryGraph(measure=np.asarray(measure, dtype=float), weights=w,
                                 boundary=np.asarray(boundary))


def float_range_graphs() -> dict:
    """The named valid graphs at the ends of the float range, which the CLI
    tests and the replay (``tests/replay.py``) run, by name.

    * overflowing-degree: finite entries, but Deg(1) = 2e300 / 1e-320 is not;
    * doubled-degree: every Deg at most 1.5e308, but 2 Deg(0) overflows;
    * span-A, span-B: B = {0, 1} joined to both of the interior vertices 2
      and 3 (edge 2-3 of weight 1) with weight a from 0 and b from 1,
      (a, b) = (1e-10, 8e297) or (1e300, 1e-300); span-P: the path 0-1-2
      with B = {0, 2} and the weights of span-A;
    * rho: B = {0} joined to both interior vertices with weight 1e300, all
      measures 1e-5, so rho = 1e310 overflows while rho m_x does not;
    * full-equality: the path with B = {0} and interior measures 1e-8;
    * be-heavy, be-light, ollivier-heavy, be-overflow: the path with
      B = {0, 2} and both weights 1e200, 1e-13 or 4e307, or 1e10 and 1e-315;
    * ends-coupling, ends-spread: the path 0-1-2 with B = {0}, w_01 = 1e-30
      and m_0 or m_1 = 1e300; ends-rho_fit: the triangle with B = {0} and
      m = (1, 1e-300, 1e300).
    """
    def path(weights, measure=None, boundary=(0, 2)):
        return path_graph(3, boundary=boundary, weights=weights, measure=measure)

    span = [(0, 2), (0, 3), (1, 2), (1, 3)]
    return {
        "overflowing-degree": path([1e300, 1e300], [1.0, 1e-320, 1.0]),
        "doubled-degree": graph_from_edges([1.0] * 4, [(u, v, 5e307) for u, v in
                                                       [*span, (2, 3)]], [0]),
        **{name: graph_from_edges([1.0] * 4, [(u, v, a if u == 0 else b) for u, v in span]
                                  + [(2, 3, 1.0)], [0, 1])
           for name, (a, b) in {"span-A": (1e-10, 8e297), "span-B": (1e300, 1e-300)}.items()},
        "span-P": path([1e-10, 8e297]),
        "rho": graph_from_edges([1e-5] * 3, [(0, 1, 1e300), (0, 2, 1e300), (1, 2, 1e-10)], [0]),
        "full-equality": path([1.0, 1.0], [1.0, 1e-8, 1e-8], boundary=[0]),
        "be-heavy": path([1e200, 1e200]),
        "be-light": path([1e-13, 1e-13]),
        "ollivier-heavy": path([4e307, 4e307]),
        "be-overflow": path([1e10, 1e-315]),
        **{f"ends-{name}": graph_from_edges(measure, [(0, 1, w01), (0, 2, w02), (1, 2, 1.0)],
                                            [0])
           for name, (measure, w01, w02) in {
               "coupling": ((1e300, 1.0, 1.0), 1e-30, 0.0),
               "spread": ((1.0, 1e300, 1.0), 1e-30, 0.0),
               "rho_fit": ((1.0, 1e-300, 1e300), 1.0, 1.0),
           }.items()},
    }


def rigidity_overflow_graph(name: str) -> WeightedBoundaryGraph:
    """G1, G2, G3 or G4: B = {0, 1} joined to both interior vertices 2 and
    3, which share no edge.  On G1 and G2 the boundary weights factor with
    distinct rho_x, and NeuVsLap's quadratic form overflows.  On G2,
    V_G - V_B cancels to 0 while V_Omega = 2e-200.  On G3, rho = 1 at both
    boundary vertices, whose measures 1e-300 and 1e300 span more than the
    float range, so m_0 / m_1 underflows and V_G / m_0 overflows.  On G4,
    rho = 1e-410 at both boundary vertices, below the float range, and
    r_x = rho_x m_x = 1e-410 underflows too."""
    measure, (w0, w1) = {
        "G1": ((1e15, 2e15, 1.0, 1.0), (1e293, 3e293)),
        "G2": ((1e100, 1e150, 1e-200, 1e-200), (1e-100, 2e-50)),
        "G3": ((1e-300, 1e300, 1.0, 1.0), (1e-300, 1e300)),
        "G4": ((1.0, 1.0, 1e100, 1e100), (1e-310, 1e-310)),
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
