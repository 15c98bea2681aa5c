import math

import numpy as np
import pytest

from graphspec.combinatorial import (
    NotApplicable,
    edge_connectivity,
    fiedler_bounds,
    friedman_bounds,
    max_path_eigenvalue,
    path_dirichlet_value,
    stoer_wagner_min_cut,
)
from graphspec.fixtures import random_graph
from graphspec.graph import WeightedBoundaryGraph, interior_subgraph
from graphspec.operators import full_laplacian
from graphspec.spectra import eigensolve

from builders import complete_bipartite, path_graph
from oracle import cut_bruteforce


def unit_graph(weights, boundary=()):
    w = np.asarray(weights, dtype=float)
    return WeightedBoundaryGraph(
        measure=np.ones(w.shape[0]), weights=w, boundary=np.asarray(boundary, dtype=np.intp)
    )


def cycle_weights(n):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    return w


class TestMinCut:
    def test_p3_cut_is_one(self):
        g = path_graph(3)
        assert stoer_wagner_min_cut(g.weights) == pytest.approx(1.0)
        assert cut_bruteforce(g.weights) == 1

    def test_c4_cut_is_two(self):
        w = cycle_weights(4)
        assert stoer_wagner_min_cut(w) == pytest.approx(2.0)
        assert cut_bruteforce(w) == 2

    def test_k4_cut_is_three(self):
        w = np.ones((4, 4)) - np.eye(4)
        assert stoer_wagner_min_cut(w) == pytest.approx(3.0)
        assert cut_bruteforce(w) == 3

    def test_random_unit_graphs_match_bruteforce(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            g = random_graph(rng, 8, weight_model="unit")
            got = edge_connectivity(g)
            assert got == cut_bruteforce(g.weights)
            sub_w = g.weights[np.ix_(g.interior, g.interior)]
            assert edge_connectivity(interior_subgraph(g)) == cut_bruteforce(sub_w)

    def test_disconnected_graph_cut_is_zero(self):
        # a triangle, an edge and an isolated vertex
        w = np.zeros((6, 6))
        for u, v in ((0, 1), (1, 2), (0, 2), (3, 4)):
            w[u, v] = w[v, u] = 1.0
        assert stoer_wagner_min_cut(w) == 0.0
        assert cut_bruteforce(w) == 0
        assert edge_connectivity(unit_graph(w, boundary=[0])) == 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_cut_is_zero(self, n):
        w = np.zeros((n, n))
        assert stoer_wagner_min_cut(w) == 0.0
        assert cut_bruteforce(w) == 0
        assert edge_connectivity(unit_graph(w)) == 0

    # cut_bruteforce stops at 8 vertices, so these cuts were computed once by
    # a dict-based Stoer-Wagner implementation and are fixed here
    @pytest.mark.parametrize(
        "n, cut", [(16, 1), (24, 2), (32, 3), (40, 3), (48, 4), (56, 4), (64, 5)]
    )
    def test_large_unit_graphs_keep_their_cut(self, n, cut):
        # two seeded Erdos-Renyi halves (p = 1/2) joined by n // 16 + 1 random
        # edges, so the cut is sometimes below the least degree
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        half, bridges = n // 2, n // 16 + 1
        upper[:half, half:] = False
        upper[rng.integers(half, size=bridges), rng.integers(half, n, size=bridges)] = True
        w = (upper | upper.T).astype(float)
        assert stoer_wagner_min_cut(w) == cut
        assert edge_connectivity(unit_graph(w, boundary=[0])) == cut

    def test_weighted_graph_rejected(self):
        g = path_graph(3, boundary=[0], weights=[2.0, 1.0])
        with pytest.raises(NotApplicable):
            edge_connectivity(g)


class TestPathValues:
    @pytest.mark.parametrize("i", range(2, 13))
    def test_top_path_eigenvalue_closed_form(self, i):
        w = eigensolve(full_laplacian(path_graph(i))).eigenvalues
        assert abs(w[-1] - max_path_eigenvalue(i)) <= 1e-10

    def test_first_dirichlet_value_k1(self):
        # single interior vertex attached by weight 2: lambda_1 = 2
        assert path_dirichlet_value(1, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_first_dirichlet_value_k2(self):
        # P3 with boundary one end: lambda_1 = (3 - sqrt(5)) / 2
        want = (3.0 - math.sqrt(5.0)) / 2.0
        assert path_dirichlet_value(2, 1.0) == pytest.approx(want, abs=1e-12)

    def test_positivity(self):
        for k in range(1, 6):
            for lam in (0.5, 1.0, 3.0):
                assert path_dirichlet_value(k, lam) > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            path_dirichlet_value(0, 1.0)
        with pytest.raises(ValueError):
            path_dirichlet_value(2, 0.0)


class TestFiedler:
    def test_paths_hold(self):
        for n in range(3, 9):
            g = path_graph(n, boundary=[n - 1])
            cert = fiedler_bounds(g)
            assert cert.holds, (n, cert.failing_indices)

    def test_k22_holds(self, k22):
        cert = fiedler_bounds(k22)
        assert cert.holds
        assert cert.extra["e_graph"] == 2
        assert cert.extra["e_interior"] == 0

    def test_tightness_on_full_path(self):
        # mu_2 of the unit path equals 2 e (1 - cos(pi/n)) with e = 1
        for n in range(3, 9):
            mu2 = eigensolve(full_laplacian(path_graph(n))).eigenvalues[1]
            bound = 2.0 * (1.0 - math.cos(math.pi / n))
            assert abs(mu2 - bound) <= 1e-10

    def test_weighted_rejected(self):
        g = path_graph(3, boundary=[0], weights=[2.0, 1.0])
        with pytest.raises(NotApplicable):
            fiedler_bounds(g)


class TestFriedman:
    def test_paths_hold(self):
        for n in range(3, 9):
            g = path_graph(n, boundary=[n - 1])
            cert = friedman_bounds(g)
            assert cert.holds, (n, cert.failing_indices)
            assert cert.extra["interior_connected"]

    def test_k22_skips_interior_items(self, k22):
        cert = friedman_bounds(k22)
        assert cert.holds
        assert not cert.extra["interior_connected"]
        assert all("item3" not in name and "item4" not in name and "item5" not in name
                   for name in cert.extra["items"])

    def test_corpus_unit_graphs_hold(self, corpus):
        for g in corpus:
            if not g.is_unit_weight():
                continue
            assert fiedler_bounds(g).holds
            assert friedman_bounds(g).holds

    def test_star_boundary_center(self):
        g = complete_bipartite(1, 4)  # center boundary, 4 interior leaves
        cert = friedman_bounds(g)
        assert cert.holds
