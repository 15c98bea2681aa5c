"""Edge-connectivity based spectral lower bounds for unit-weight graphs.

The Fiedler-type bounds control nu_2 and lambda_2 through the edge
connectivity of the graph (or of its interior subgraph); the Friedman-type
bounds control nu_i and lambda_i for every i through first Dirichlet
eigenvalues of weighted paths.
"""

from __future__ import annotations

import math

import numpy as np

from .comparisons import DEFAULT_TOL, ComparisonCertificate, certificate
from .graph import (
    NotApplicable,
    WeightedBoundaryGraph,
    boundary_degree_vector,
    component_count,
    degree_vector,
    interior_subgraph,
)
from .spectra import spectrum, symmetric_eigvalsh, weighted_singular_values


def _require_unit(graph: WeightedBoundaryGraph) -> None:
    if not graph.is_unit_weight():
        raise NotApplicable("operation requires unit measures and 0/1 weights")


def stoer_wagner_min_cut(weights: np.ndarray) -> float:
    """Global minimum cut weight of an undirected weighted graph: 0 when it
    is disconnected or has fewer than two vertices.

    The cut comes from ``contraction_min_cut``, Nagamochi-Ono-Ibaraki
    contraction over Stoer-Wagner's maximum-adjacency phases.  The name
    stays while perfbench's tracer patches this function by name (ROADMAP
    item 12).
    """
    return contraction_min_cut(weights)[0]


def contraction_min_cut(weights: np.ndarray) -> tuple[float, int]:
    """The global minimum cut weight of symmetric nonnegative ``weights``,
    and the number of phases that found it (at most |V| - 1; none when
    |V| < 2 or a vertex is isolated).  The diagonal is never read but in
    the first degrees, where it can only raise the bound.

    The bound lam starts at the least weighted degree, the cut of one
    vertex.  Each phase orders the vertices of the contracted graph by
    maximum adjacency from vertex 0, as a Stoer-Wagner phase does, keeping
    each vertex's attachment to the ordered set when it is picked.  The last
    vertex's attachment is its degree, a cut, and lowers lam.  A vertex v
    picked right after t with attachment q >= lam has edge connectivity
    lambda(t, v) >= q (the order restricted to the vertices up to t, and v,
    is a maximum-adjacency order whose last cut separates t and v), so every
    cut that separates them weighs at least lam: v is merged into t.  The
    last vertex always is, as its attachment now reaches lam.  The minimum
    cut is lam or a cut of the contracted graph, which is therefore exact;
    each phase merges at least one pair (Nagamochi, Ono and Ibaraki, Math.
    Programming 1994).

    Every phase contracts the same way: the rows and columns of the
    ordered block are summed over each run of merged vertices by two
    ``np.add.reduceat``, so each run becomes the vertex it starts from, and
    the diagonal collects weights that no attachment reads.  On integer
    weights every sum is exact, so the cut equals Stoer-Wagner's; on other
    weights the sums are taken in another order, which may move the last
    bits.  A cycle merges one pair a phase, so it takes |V| - 1 phases,
    each of which copies the whole block.
    """
    w = np.array(weights, dtype=float)
    size = len(w)
    if size < 2:
        return 0.0, 0
    lam = float(w.sum(axis=1).min())
    phases = 0
    while size > 1 and lam > 0.0:
        phases += 1
        conn = w[0].copy()
        conn[0] = -math.inf
        order, attached = [0], [-math.inf]
        for _ in range(size - 1):
            t = int(conn.argmax())
            order.append(t)
            attached.append(conn[t])
            conn += w[t]
            conn[t] = -math.inf
        lam = min(lam, float(attached[-1]))
        attached[-1] = math.inf  # so every phase merges, even on NaN weights
        merged = np.array(attached) >= lam  # into the vertex picked before
        runs = np.flatnonzero(~merged)  # each run goes into its first vertex
        w = np.add.reduceat(w[np.ix_(order, order)], runs, axis=0)
        w = np.add.reduceat(w, runs, axis=1)
        size = len(w)
    return lam, phases


def edge_connectivity(graph: WeightedBoundaryGraph) -> int:
    """Minimum number of edges disconnecting ``graph``: the minimum cut,
    which is 0 when ``graph`` is already disconnected or has fewer than two
    vertices; for the interior's, pass ``interior_subgraph(graph)``, the one
    subgraph object kept on ``graph``."""
    _require_unit(graph)
    return int(round(stoer_wagner_min_cut(graph.weights)))


def fiedler_bounds(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """The five edge-connectivity lower bounds on nu_2 and lambda_2 (none
    when |Omega| = 1, where neither exists)."""
    n_v = graph.vertex_count
    n_om = graph.interior.size
    e_g = edge_connectivity(graph)
    e_om = edge_connectivity(interior_subgraph(graph))
    items = []
    if n_om >= 2:
        s1sq = weighted_singular_values(graph)[0]
        min_deg_b = float(boundary_degree_vector(graph).min())
        bound_g = 2.0 * e_g * (1.0 - math.cos(math.pi / n_v))
        bound_om = 2.0 * e_om * (1.0 - math.cos(math.pi / n_om))
        nu2 = float(spectrum(graph, "NeumannLaplacian")[1])
        lam2 = float(spectrum(graph, "DirichletLaplacian")[1])
        items = [
            ("item1_nu2_vs_eG", nu2, bound_g),
            ("item2_lambda2_vs_eG_s1", lam2, bound_g + s1sq),
            ("item3_nu2_vs_eOmega", nu2, bound_om),
            ("item4_lambda2_vs_eOmega_s1", lam2, bound_om + s1sq),
            ("item5_lambda2_vs_eOmega_degb", lam2, bound_om + min_deg_b),
        ]
    return _items_certificate("FiedlerType", graph, tol, items, e_graph=e_g, e_interior=e_om)


def _items_certificate(theorem_id, graph, tol, items, **extra) -> ComparisonCertificate:
    """Certify ``lhs >= rhs`` for each ``(name, lhs, rhs)``, listing the names."""
    names, lhs, rhs = zip(*items) if items else ((), (), ())
    return certificate(theorem_id, degree_vector(graph)[graph.interior], tol, lhs, rhs,
                       extra={"items": list(names), **extra})


def max_path_eigenvalue(i: int) -> float:
    """Largest Laplacian eigenvalue of the unit path on ``i >= 2`` vertices."""
    return 2.0 * (1.0 + math.cos(math.pi / i))


def path_dirichlet_value(k: int, lam: float) -> float:
    """First Dirichlet eigenvalue of the path 0-1-...-k with boundary {0},
    unit measures, unit interior weights and first-edge weight ``lam``."""
    if k < 1 or lam <= 0:
        raise ValueError("need k >= 1 and lam > 0")
    # the Dirichlet Laplacian on 1..k: degree lam + 1 at vertex 1 (lam alone
    # when k = 1), 2 inside, 1 at the free end, and -1 beside the diagonal
    degrees = np.full(k, 2.0)
    degrees[-1] = 1.0
    degrees[0] = lam + 1.0 if k >= 2 else lam
    matrix = np.diag(degrees) - np.eye(k, k=1) - np.eye(k, k=-1)
    return float(symmetric_eigvalsh(matrix)[0])


def friedman_bounds(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """Path-comparison lower bounds on nu_i and lambda_i for i = 2..|Omega|.

    Items over the whole vertex count always apply; the interior-based items
    require a connected interior and are skipped (recorded in ``extra``)
    otherwise.
    """
    _require_unit(graph)
    nu = spectrum(graph, "NeumannLaplacian")
    lam = spectrum(graph, "DirichletLaplacian")
    s1sq = weighted_singular_values(graph)[0]
    min_deg_b = float(boundary_degree_vector(graph).min())
    n_v = graph.vertex_count
    n_om = graph.interior.size
    interior_connected = n_om >= 1 and component_count(interior_subgraph(graph)) == 1

    def lower_bound(i: int, total: int) -> float:
        k = total // i
        if total % i == 0:
            return path_dirichlet_value(k, max_path_eigenvalue(i))
        return 2.0 * (1.0 - math.cos(math.pi / (2 * k + 1)))

    items = []
    for i in range(2, n_om + 1):
        b_v = lower_bound(i, n_v)
        items += [
            (f"i{i}_item1_nu", float(nu[i - 1]), b_v),
            (f"i{i}_item2_lambda_s1", float(lam[i - 1]), b_v + s1sq),
        ]
        if interior_connected:
            b_om = lower_bound(i, n_om)
            items += [
                (f"i{i}_item3_nu", float(nu[i - 1]), b_om),
                (f"i{i}_item4_lambda_s1", float(lam[i - 1]), b_om + s1sq),
                (f"i{i}_item5_lambda_degb", float(lam[i - 1]), b_om + min_deg_b),
            ]
    return _items_certificate("FriedmanType", graph, tol, items,
                              interior_connected=interior_connected)
