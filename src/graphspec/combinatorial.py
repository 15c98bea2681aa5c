"""Edge-connectivity based spectral lower bounds for unit-weight graphs.

The Fiedler-type bounds control nu_2 and lambda_2 through the edge
connectivity of the graph (or of its interior subgraph); the Friedman-type
bounds control nu_i and lambda_i for every i through first Dirichlet
eigenvalues of weighted paths.
"""

from __future__ import annotations

import math

import numpy as np

from .comparisons import ComparisonCertificate, _abs_tol, _one_sided
from .graph import (
    NotApplicable,
    WeightedBoundaryGraph,
    boundary_degree_vector,
    component_count,
    interior_subgraph,
)
from .spectra import spectrum, weighted_singular_values
from .fixtures import path_graph


def _require_unit(graph: WeightedBoundaryGraph) -> None:
    if not graph.is_unit_weight():
        raise NotApplicable("operation requires unit measures and 0/1 weights")


def stoer_wagner_min_cut(weights: np.ndarray) -> float:
    """Global minimum cut weight of an undirected weighted graph."""
    n = weights.shape[0]
    if n < 2:
        return 0.0
    w = weights.copy().astype(float)
    active = list(range(n))
    best = math.inf
    while len(active) > 1:
        # maximum adjacency (minimum cut phase)
        a = [active[0]]
        in_a = {active[0]}
        conn = {v: w[active[0], v] for v in active if v != active[0]}
        while len(a) < len(active):
            nxt = max(conn, key=lambda v: conn[v])
            a.append(nxt)
            in_a.add(nxt)
            del conn[nxt]
            for v in conn:
                conn[v] += w[nxt, v]
        s, t = a[-2], a[-1]
        cut_of_phase = float(w[t, [v for v in active if v != t]].sum())
        best = min(best, cut_of_phase)
        # merge t into s
        for v in active:
            if v != s and v != t:
                w[s, v] += w[t, v]
                w[v, s] = w[s, v]
        active.remove(t)
        w[t, :] = 0.0
        w[:, t] = 0.0
    return best


def edge_connectivity(graph: WeightedBoundaryGraph, which: str = "graph") -> int:
    """Minimum number of edges disconnecting G (``which="graph"``) or its
    interior subgraph (``which="interior"``; 0 when already disconnected)."""
    _require_unit(graph)
    if which == "interior":
        target = interior_subgraph(graph)
    elif which == "graph":
        target = graph
    else:
        raise ValueError("which must be 'graph' or 'interior'")
    if target.vertex_count < 2:
        return 0
    if component_count(target) != 1:
        return 0
    cut = stoer_wagner_min_cut(target.weights)
    return int(round(cut))


def fiedler_bounds(
    graph: WeightedBoundaryGraph, tol: float = 1e-9
) -> ComparisonCertificate:
    """The five edge-connectivity lower bounds on nu_2 and lambda_2."""
    _require_unit(graph)
    nu = spectrum(graph, "NeumannLaplacian")
    lam = spectrum(graph, "DirichletLaplacian")
    tol_abs = _abs_tol(tol, nu, lam)
    n_v = graph.vertex_count
    n_om = graph.interior.size
    e_g = edge_connectivity(graph, "graph")
    e_om = edge_connectivity(graph, "interior")
    s1sq = weighted_singular_values(graph).s1_squared
    min_deg_b = float(boundary_degree_vector(graph).min())
    bound_g = 2.0 * e_g * (1.0 - math.cos(math.pi / n_v))
    bound_om = 2.0 * e_om * (1.0 - math.cos(math.pi / n_om)) if n_om >= 1 else 0.0
    items = []
    nu2 = float(nu.eigenvalues[1]) if nu.eigenvalues.size >= 2 else None
    lam2 = float(lam.eigenvalues[1]) if lam.eigenvalues.size >= 2 else None
    if nu2 is not None:
        items.append(("item1_nu2_vs_eG", nu2, bound_g))
    if lam2 is not None:
        items.append(("item2_lambda2_vs_eG_s1", lam2, bound_g + s1sq))
    if nu2 is not None:
        items.append(("item3_nu2_vs_eOmega", nu2, bound_om))
    if lam2 is not None:
        items.append(("item4_lambda2_vs_eOmega_s1", lam2, bound_om + s1sq))
        items.append(("item5_lambda2_vs_eOmega_degb", lam2, bound_om + min_deg_b))
    names, lhs, rhs = zip(*items) if items else ((), (), ())
    return _one_sided(
        "FiedlerType", lhs, rhs, tol_abs,
        {"items": list(names), "e_graph": e_g, "e_interior": e_om},
    )


def max_path_eigenvalue(i: int) -> float:
    """Largest Laplacian eigenvalue of the unit path on ``i`` vertices."""
    if i < 2:
        return 0.0
    return 2.0 * (1.0 + math.cos(math.pi / i))


def path_dirichlet_value(k: int, lam: float) -> float:
    """First Dirichlet eigenvalue of the path 0-1-...-k with boundary {0},
    unit measures, unit interior weights and first-edge weight ``lam``."""
    if k < 1 or lam <= 0:
        raise ValueError("need k >= 1 and lam > 0")
    weights = [lam] + [1.0] * (k - 1)
    graph = path_graph(k + 1, boundary=[0], weights=weights)
    spec = spectrum(graph, "DirichletLaplacian")
    return float(spec.eigenvalues[0])


def friedman_bounds(
    graph: WeightedBoundaryGraph, tol: float = 1e-9
) -> ComparisonCertificate:
    """Path-comparison lower bounds on nu_i and lambda_i for i = 2..|Omega|.

    Items over the whole vertex count always apply; the interior-based items
    require a connected interior and are skipped (recorded in ``extra``)
    otherwise.
    """
    _require_unit(graph)
    nu_spec = spectrum(graph, "NeumannLaplacian")
    lam_spec = spectrum(graph, "DirichletLaplacian")
    tol_abs = _abs_tol(tol, nu_spec, lam_spec)
    nu, lam = nu_spec.eigenvalues, lam_spec.eigenvalues
    s1sq = weighted_singular_values(graph).s1_squared
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
    names, lhs, rhs = zip(*items) if items else ((), (), ())
    return _one_sided(
        "FriedmanType", lhs, rhs, tol_abs,
        {"items": list(names), "interior_connected": interior_connected},
    )
