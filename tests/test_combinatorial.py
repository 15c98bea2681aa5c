import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphspec.combinatorial import (
    NotApplicable,
    contraction_min_cut,
    edge_connectivity,
    fiedler_bounds,
    friedman_bounds,
    max_path_eigenvalue,
    path_dirichlet_value,
    stoer_wagner_min_cut,
)
from graphspec.fixtures import random_graph
from graphspec.graph import WeightedBoundaryGraph, interior_subgraph
from graphspec.spectra import spectrum

from builders import complete_bipartite, graph_from_edges, path_graph, scale_graph
from oracle import cut_bruteforce, stoer_wagner_reference


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
        assert stoer_wagner_reference(w) == cut
        assert stoer_wagner_min_cut(w) == cut
        assert edge_connectivity(unit_graph(w, boundary=[0])) == cut

    def test_weighted_graph_rejected(self):
        g = path_graph(3, boundary=[0], weights=[2.0, 1.0])
        with pytest.raises(NotApplicable):
            edge_connectivity(g)


def assert_matches_referee(w):
    """The contraction's cut is the frozen Stoer-Wagner cut, in at most
    |V| - 1 phases, and ``stoer_wagner_min_cut`` returns it."""
    cut, phases = contraction_min_cut(w)
    assert cut == stoer_wagner_reference(w)
    assert stoer_wagner_min_cut(w) == cut
    assert 0 <= phases <= max(len(w) - 1, 0)
    return cut, phases


def two_cliques(m, bridges):
    """Two unit cliques on m vertices each, joined by ``bridges`` disjoint
    edges i -- m + i."""
    w = np.zeros((2 * m, 2 * m))
    w[:m, :m] = w[m:, m:] = 1.0 - np.eye(m)
    i = np.arange(bridges)
    w[i, m + i] = w[m + i, i] = 1.0
    return w


class TestContraction:
    @settings(max_examples=150)
    @given(
        n=st.integers(0, 40),
        density=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 1.0]),
        top=st.integers(1, 4),
        parts=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=12, density=0.0, top=1, parts=1, seed=0)  # edgeless
    @example(n=30, density=1.0, top=4, parts=3, seed=1)  # three complete parts
    def test_integer_weights_match_stoer_wagner(self, n, density, top, parts, seed):
        # weights 0..top on each pair with probability ``density``, and none
        # between ``parts`` blocks of consecutive vertices: density 0 is
        # edgeless, and parts > 1 disconnected
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, top + 1, (n, n)) * (rng.random((n, n)) < density), 1)
        block = np.arange(n) * parts // max(n, 1)
        w = (upper + upper.T) * (block[:, None] == block)
        assert_matches_referee(w.astype(float))

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
    def test_path_is_one_phase(self, n):
        assert assert_matches_referee(path_graph(n).weights) == (1.0, 1)

    @pytest.mark.parametrize("n", [3, 4, 9, 32, 64])
    def test_cycle_merges_one_pair_per_phase(self, n):
        # no attachment but the last reaches the least degree 2
        assert assert_matches_referee(cycle_weights(n)) == (2.0, n - 1)

    @pytest.mark.parametrize("leaves", [1, 2, 7, 40])
    @pytest.mark.parametrize("center", ["first", "last"])
    def test_star_is_one_phase(self, leaves, center):
        g = complete_bipartite(1, leaves) if center == "first" else complete_bipartite(leaves, 1)
        assert assert_matches_referee(g.weights) == (1.0, 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30])
    def test_complete_graph(self, n):
        cut, _ = assert_matches_referee(np.ones((n, n)) - np.eye(n))
        assert cut == n - 1

    @pytest.mark.parametrize("m, bridges", [(3, 1), (5, 2), (8, 3), (16, 5), (20, 19)])
    def test_two_cliques_joined_by_bridges(self, m, bridges):
        cut, _ = assert_matches_referee(two_cliques(m, bridges))
        assert cut == min(bridges, m - 1)

    @pytest.mark.parametrize("n", [64, 128])
    def test_scale_graphs(self, n):
        g = scale_graph(n)
        cut, phases = assert_matches_referee(g.weights)
        assert phases <= 6
        sub = interior_subgraph(g)
        assert edge_connectivity(g) == cut
        assert edge_connectivity(sub) == assert_matches_referee(sub.weights)[0]

    # on other weights the sums run in another order than Stoer-Wagner's,
    # so the cut may move in its last bits: measured at most 2 ulps on the
    # corpus and on lognormal draws at |V| = 16..32
    def test_float_weights_within_a_few_ulps(self, corpus):
        rng = np.random.default_rng(3)
        graphs = [g for g in corpus if not g.is_unit_weight()]
        graphs += [random_graph(rng, 32, "lognormal") for _ in range(40)]
        graphs += [scale_graph(n, "lognormal") for n in (64, 128)]
        for g in graphs:
            for w in (g.weights, interior_subgraph(g).weights):
                want = stoer_wagner_reference(w)
                cut, phases = contraction_min_cut(w)
                assert abs(cut - want) <= 4 * math.ulp(want), (cut, want)
                assert phases <= max(len(w) - 1, 0)


class TestPathValues:
    @pytest.mark.parametrize("i", range(2, 13))
    def test_top_path_eigenvalue_closed_form(self, i):
        w = spectrum(path_graph(i), "FullLaplacian")
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
            mu2 = spectrum(path_graph(n), "FullLaplacian")[1]
            bound = 2.0 * (1.0 - math.cos(math.pi / n))
            assert abs(mu2 - bound) <= 1e-10

    @pytest.mark.parametrize("n, cycle", [(5, False), (6, False), (9, False), (5, True), (7, True)])
    def test_right_sides_match_closed_forms(self, n, cycle):
        # unit paths with both ends in B (e_G = e_Omega = 1, Omega a path on
        # n - 2 vertices) and unit cycles with B = {0} (e_G = 2, Omega a path
        # on n - 1 vertices); |Omega| > |B| makes s_1^2 = 0, and an interior
        # vertex without boundary neighbour makes min Deg_b = 0
        if cycle:
            g = graph_from_edges(np.ones(n), [(i, (i + 1) % n, 1.0) for i in range(n)], [0])
            e_g, n_om = 2, n - 1
        else:
            g = path_graph(n, boundary=[0, n - 1])
            e_g, n_om = 1, n - 2
        want_g = 2.0 * e_g * (1.0 - math.cos(math.pi / n))
        want_om = 2.0 * (1.0 - math.cos(math.pi / n_om))
        rhs = [r.rhs for r in fiedler_bounds(g).per_index]
        assert rhs == pytest.approx([want_g] * 2 + [want_om] * 3, abs=1e-12)

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
