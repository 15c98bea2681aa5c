"""The seeded random generator used by the audit commands.

The named small graphs and the equality-case recipes that only tests use
live in ``tests/builders.py``.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedBoundaryGraph, validate

# the Sinkhorn iteration's round cap and its tolerance on every degree
NORMALIZE_ROUNDS = 500
NORMALIZE_TOL = 1e-13


def _perfect_matching(positive: np.ndarray):
    """``col_of`` with ``positive[i, col_of[i]]`` for every row ``i`` and no
    column twice, or ``None`` when the bipartite graph rows x columns of the
    square boolean ``positive`` has no perfect matching.  Each row in turn is
    matched along an augmenting path found by breadth-first search."""
    n = positive.shape[0]
    neighbours = [np.flatnonzero(row).tolist() for row in positive]
    row_of, col_of = [-1] * n, [-1] * n
    for root in range(n):
        came_from, queue, free = {}, [root], -1
        for row in queue:  # the queue grows as matched rows are reached
            for col in neighbours[row]:
                if col in came_from:
                    continue
                came_from[col] = row
                if row_of[col] < 0:
                    free = col
                    break
                queue.append(row_of[col])
            if free >= 0:
                break
        if free < 0:
            return None
        col = free
        while col >= 0:  # flip the path: each row takes the column it reached
            row = came_from[col]
            row_of[col], col_of[row], col = row, col, col_of[row]
    return col_of


def _has_total_support(weights: np.ndarray) -> bool:
    """Whether every positive entry of square ``weights`` lies on a positive
    diagonal, a permutation sigma with every ``weights[i, sigma(i)] > 0``.

    Take one such sigma (a perfect matching).  An entry ``(i, sigma(k))``
    lies on a positive diagonal exactly when it closes a cycle of the
    digraph with an arc i -> k for each positive ``weights[i, sigma(k)]``,
    that is when k reaches i (the Dulmage-Mendelsohn decomposition: no arc
    joins two of its strong components)."""
    positive = weights > 0.0
    sigma = _perfect_matching(positive)
    if sigma is None:
        return False
    arcs = positive[:, sigma]  # arcs[i, k]: row i meets the column matched to row k
    reach = arcs.astype(float)
    while True:  # square the reachability until it stops growing
        longer = (reach @ reach > 0.0).astype(float)
        if np.array_equal(longer, reach):
            break
        reach = longer
    return bool((reach.T > 0.0)[arcs].all())


def _normalize_weights(measure, weights):
    """``weights`` rescaled to D w D with every weighted degree 1, or ``None``
    when the draw cannot be scaled.

    The symmetric Sinkhorn iteration runs on the scaling vector x: with
    Deg_x = x_x (w x)_x / m_x, it sets x <- x / sqrt(Deg) until every Deg is
    within ``NORMALIZE_TOL`` of 1, and w * outer(x, x) is formed only to
    confirm that its row sums are too.  That matrix is bitwise symmetric.

    A symmetric nonnegative matrix has such a scaling only when it has total
    support (Csima-Datta, "The DAD theorem for symmetric non-negative
    matrices", 1972), so a draw without it, such as any connected draw on
    three or more vertices with a leaf, is rejected before iterating.
    """
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
