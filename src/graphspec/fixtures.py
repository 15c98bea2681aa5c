"""The seeded random generator used by the audit commands.

The named small graphs and the equality-case recipes that only tests use
live in ``tests/builders.py``.
"""

from __future__ import annotations

import functools

import numpy as np

from .graph import WeightedBoundaryGraph, _hop_distances, validate

# the Sinkhorn iteration's round cap and its tolerance on every degree
NORMALIZE_ROUNDS = 500
NORMALIZE_TOL = 1e-13
# Sinkhorn rounds computed between two convergence tests
_NORMALIZE_BLOCK = 25


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
    joins two of its strong components).  Who reaches whom comes from the
    hop search from every vertex; it counts each vertex as reaching itself,
    which changes nothing here, as every i has its own arc i -> i."""
    positive = weights > 0.0
    sigma = _perfect_matching(positive)
    if sigma is None:
        return False
    arcs = positive[:, sigma]  # arcs[i, k]: row i meets the column matched to row k
    reaches = np.isfinite(_hop_distances(arcs, np.eye(arcs.shape[0], dtype=bool)))
    return bool(reaches.T[arcs].all())


def _normalize_weights(weights):
    """``weights`` rescaled to D w D with every weighted degree 1, or ``None``
    when the draw cannot be scaled.

    The symmetric Sinkhorn iteration runs on the scaling vector x: with
    Deg_x = x_x (w x)_x, it sets x <- x / sqrt(Deg) until every Deg is within
    ``NORMALIZE_TOL`` of 1, and w * outer(x, x) is formed only to confirm
    that its row sums are too.  That matrix is bitwise symmetric.  The
    normalized model's measure is 1 everywhere, and t / 1.0 == t in IEEE
    arithmetic, so Deg carries no division by it and is bitwise the same.
    Each round's x and Deg are kept, and the Deg test runs on a block of
    ``_NORMALIZE_BLOCK`` rounds at once.  The first round of the
    block that passes it and the row-sum test is returned: the round that
    testing after every round would return.  Rounds computed past it are
    dropped.

    A symmetric nonnegative matrix has such a scaling only when it has total
    support (Csima-Datta, "The DAD theorem for symmetric non-negative
    matrices", 1972), so a draw without it, such as any connected draw on
    three or more vertices with a leaf, is rejected before iterating.
    """
    if not _has_total_support(weights):
        return None
    x = np.ones(weights.shape[0])
    for start in range(0, NORMALIZE_ROUNDS, _NORMALIZE_BLOCK):
        xs, degs = [], []  # x and Deg of each round of the block
        for _ in range(min(_NORMALIZE_BLOCK, NORMALIZE_ROUNDS - start)):
            deg = x * (weights @ x)
            xs.append(x)
            degs.append(deg)
            x = x / np.sqrt(deg)
        passed = (np.abs(np.array(degs) - 1.0) <= NORMALIZE_TOL).all(axis=1)
        for r in np.flatnonzero(passed):
            scaled = weights * np.outer(xs[r], xs[r])
            if np.all(np.abs(scaled.sum(axis=1) - 1.0) <= NORMALIZE_TOL):
                return scaled
    return None


@functools.cache
def _upper_pairs(size: int):
    """``np.triu_indices(size, 1)``, read-only: the pairs i < j in row-major
    order, one copy per size."""
    pairs = np.triu_indices(size, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


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

    The benchmark inputs, the replay digest and every random-audit report
    depend on the exact stream, so each draw takes from ``rng`` the values
    that one call per spanning-tree edge took: ``rng.integers`` with the
    array of bounds 1 .. |Omega| - 1 draws each element as a call with that
    bound alone would, and each boundary row is drawn in place with the
    values of ``rng.random(|Omega|)``.  ``tests/oracle.py`` keeps the older
    form as the referee of every draw and of the generator state after it.

    Every draw is valid by construction, and ``validate`` still checks it.
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
        a, b = order[1:], order[rng.integers(np.arange(1, nom))]
        w[a, b] = w[b, a] = 1.0
        p_edge = 0.4
        iu, iv = _upper_pairs(nom)
        coin = rng.random(iu.size) < p_edge
        iu, iv = iu[coin] + nb, iv[coin] + nb
        w[iu, iv] = w[iv, iu] = 1.0
        # each boundary row attaches where its draw is below 1/2; a row with
        # none takes one more draw, so the rows are drawn one at a time
        draws = np.empty((nb, nom))
        for row in draws:
            rng.random(out=row)
            if row.min() >= 0.5:
                row[rng.integers(nom)] = 0.0
        attach = draws < 0.5
        w[:nb, nb:] = attach
        w[nb:, :nb] = attach.T
        measure = np.exp(rng.normal(0.0, 0.5, n)) if model == "lognormal" else np.ones(n)
        if model != "unit":
            # lognormal weights on the support of w
            sigma = 0.7 if model == "lognormal" else 0.3
            iu, iv = _upper_pairs(n)
            support = w[iu, iv] > 0.0
            iu, iv = iu[support], iv[support]
            w[iu, iv] = w[iv, iu] = np.exp(rng.normal(0.0, sigma, iu.size))
        if model == "normalized":
            w = _normalize_weights(w)
            if w is None:
                continue
        graph = WeightedBoundaryGraph(measure=measure, weights=w, boundary=np.arange(nb))
        validate(graph)
        return graph
    raise RuntimeError("could not draw a valid random graph in 200 attempts")
