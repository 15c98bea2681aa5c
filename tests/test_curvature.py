import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspec import curvature
from graphspec import graph as graph_module
from graphspec.curvature import (
    LICHNEROWICZ_VARIANTS,
    NotApplicable,
    bakry_emery_curvature,
    certify_lichnerowicz,
    ollivier_curvature,
    ollivier_curvature_all,
)
from graphspec.fixtures import random_graph
from graphspec.graph import WeightedBoundaryGraph, degree_vector, interior_subgraph
from graphspec.operators import full_laplacian
from graphspec.spectra import symmetric_eigvalsh

from builders import bakry_emery_overflow_graph, complete_bipartite, path_graph
from oracle import (
    bakry_emery_by_polarization,
    bakry_emery_forms,
    gain_dual_bruteforce,
    hop_distances_bfs,
    max_gain_by_levels,
    ollivier_bruteforce,
    ollivier_by_enumeration,
    rayleigh_min_bruteforce,
)


def unit_graph(weights):
    w = np.asarray(weights, dtype=float)
    return WeightedBoundaryGraph(
        measure=np.ones(w.shape[0]), weights=w, boundary=np.array([], dtype=np.intp)
    )


def single_edge():
    return unit_graph([[0, 1], [1, 0]])


def triangle():
    return unit_graph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def complete_graph(n):
    return unit_graph(np.ones((n, n)) - np.eye(n))


def hypercube(d):
    w = np.zeros((2**d, 2**d))
    for v in range(2**d):
        for k in range(d):
            w[v, v ^ (1 << k)] = 1.0
    return unit_graph(w)


def cycle(n):
    w = np.zeros((n, n))
    for v in range(n):
        w[v, (v + 1) % n] = w[(v + 1) % n, v] = 1.0
    return unit_graph(w)


def spy_flows(monkeypatch):
    """Record (supply, demand, gain) of every gain problem the edge
    curvature hands its max-gain solver."""
    flows = []
    max_gain = curvature._max_gain

    def spy(supply, demand, gain):
        flows.append((supply, demand, gain))
        return max_gain(supply, demand, gain)

    monkeypatch.setattr(curvature, "_max_gain", spy)
    return flows


def spy_form_blocks(monkeypatch):
    """Record the vertices of every block whose Bakry-Emery forms are
    assembled at once."""
    blocks = []
    forms = curvature._bakry_emery_forms

    def spy(lap, near, x, *args):
        blocks.append(x.tolist())
        return forms(lap, near, x, *args)

    monkeypatch.setattr(curvature, "_bakry_emery_forms", spy)
    return blocks


def gains_two(flow):
    """Whether a gain problem has a pair that gains 2."""
    _supply, _demand, gain = flow
    return bool((gain > 1.0).any())


CAPACITIES = st.one_of(st.integers(1, 4).map(float),
                       st.floats(1e-3, 4.0, allow_nan=False, allow_infinity=False))


class TestMaxFlow:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_dual_on_random_gain_networks(self, data):
        ns, nr = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        supply = np.array(data.draw(st.lists(CAPACITIES, min_size=ns, max_size=ns)))
        demand = np.array(data.draw(st.lists(CAPACITIES, min_size=nr, max_size=nr)))
        gains = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=nr, max_size=nr),
                                            min_size=ns, max_size=ns)), dtype=float)
        want = gain_dual_bruteforce(supply, demand, gains)
        tol = 1e-12 * max(supply.sum(), demand.sum())
        assert curvature._max_gain(supply, demand, gains) == pytest.approx(want, abs=tol)
        # the start pushes in sender and receiver order, and any order must
        # end at the maximum
        senders = np.array(data.draw(st.permutations(range(ns))))
        receivers = np.array(data.draw(st.permutations(range(nr))))
        permuted = curvature._max_gain(supply[senders], demand[receivers],
                                       gains[np.ix_(senders, receivers)])
        assert permuted == pytest.approx(want, abs=tol)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_boolean_matrix_flow(self, data):
        # the bitset flow pushes the same paths in the same order as the
        # boolean-matrix flow it replaced, so the totals are the same number;
        # capacities from a pool of two or three values make equal supplies
        # and demands, and so pushes that spend both ends at once, common
        ns, nr = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        pool = data.draw(st.lists(CAPACITIES, min_size=2, max_size=3))
        supply = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=ns, max_size=ns)))
        demand = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=nr, max_size=nr)))
        gains = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=nr, max_size=nr),
                                            min_size=ns, max_size=ns)), dtype=float)
        assert curvature._max_gain(supply, demand, gains) == max_gain_by_levels(supply, demand,
                                                                                gains)

    def test_equals_the_boolean_matrix_flow_on_seeded_graphs(self, monkeypatch):
        # every gain problem of the seeded graphs and of a 64-vertex
        # lognormal graph, rounding included
        max_gain = curvature._max_gain
        flows = spy_flows(monkeypatch)
        for g in seeded_graphs() + lognormal_graphs(25, (64,)):
            ollivier_curvature_all(g)
        assert len(flows) > 1000
        for supply, demand, gain in flows:
            assert max_gain(supply, demand, gain) == max_gain_by_levels(supply, demand, gain)

    def test_repairs_a_start_that_is_not_maximum(self):
        # senders a, b and receivers u, w, each of size 1; a gains 1 with u
        # and with w, b only with u.  The start pushes 1 from a to u, which
        # uses up a's supply and fills u, the receiver that both senders
        # reach, so b to u and a to w stay empty.  The maximum is 2 (a to w,
        # b to u): an augmenting path must reroute a's unit away from u
        supply, demand = np.array([1.0, 1.0]), np.array([1.0, 1.0])
        gains = np.array([[1.0, 1.0], [1.0, 0.0]])
        want = gain_dual_bruteforce(supply, demand, gains)
        assert want == 2.0
        assert curvature._max_gain(supply, demand, gains) == want


    def test_start_that_fills_only_the_receivers(self):
        # senders a (supply 2) and b (1), one receiver u (demand 1) that
        # gains 2 with a and 1 with b.  The start fills both copies of u from
        # a's copies, and a and b keep supply with nowhere left to send it,
        # so the start is maximum: u's unit at gain 2
        supply, demand = np.array([2.0, 1.0]), np.array([1.0])
        gains = np.array([[2.0], [1.0]])
        want = gain_dual_bruteforce(supply, demand, gains)
        assert want == 2.0
        assert curvature._max_gain(supply, demand, gains) == want


def lognormal_graphs(seed, sizes):
    """One lognormal graph with exactly ``n`` vertices per size."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in sizes:
        g = random_graph(rng, n, weight_model="lognormal")
        while g.vertex_count != n:
            g = random_graph(rng, n, weight_model="lognormal")
        graphs.append(g)
    return graphs


def seeded_graphs():
    rng = np.random.default_rng(23)
    return [random_graph(rng, 12) for _ in range(30)] + lognormal_graphs(24, (40, 49))


class TestOneLocationAndWholeGraph:
    """The one-edge entry point and the whole-graph transport pass compute
    each value by the same arithmetic, so they agree to the bit, and neither
    whole-graph pass depends on which locations share its blocks."""

    def test_ollivier_edge_equals_the_whole_graph_pass(self):
        for g in seeded_graphs():
            per = ollivier_curvature_all(g).per_location
            assert len(per) == len(list(g.edges()))
            for (u, v), kappa in per.items():
                assert ollivier_curvature(g, u, v) == kappa

    def test_ollivier_pass_does_not_depend_on_its_blocks(self, monkeypatch):
        # the sums run left to right along each edge's row, so an edge's
        # kappa is the same whichever edges share its pass
        graphs = seeded_graphs()[-3:]
        whole = [ollivier_curvature_all(g).per_location for g in graphs]
        monkeypatch.setattr(curvature, "_PASS_ENTRIES", 1)
        for g, per in zip(graphs, whole):
            fresh = WeightedBoundaryGraph(g.measure, g.weights, g.boundary)
            assert ollivier_curvature_all(fresh).per_location == per

    def test_one_location_rejects_vertices_outside_the_graph(self):
        # numpy would read -1 as the last vertex and reject 4 with an
        # IndexError; the entry point takes 0..|V|-1 only
        g = path_graph(4)
        for x, y in ((-1, 2), (2, -1), (3, 4), (4, 3), (-4, 0)):
            with pytest.raises(ValueError, match=r"not in 0\.\.3"):
                ollivier_curvature(g, x, y)
        with pytest.raises(TypeError):
            ollivier_curvature(g, 1.5, 2)
        assert ollivier_curvature(g, np.int64(3), 2) == ollivier_curvature(g, 3, 2)

    @pytest.mark.parametrize("entries", [1, 5000])
    def test_bakry_emery_pass_does_not_depend_on_its_blocks(self, monkeypatch, entries):
        # a vertex's S_1 is padded to a width set by |S_1| and the graph's
        # largest |S_1|, not by its block, so its form and K are the same
        # numbers whichever vertices share its block
        graphs = seeded_graphs()[-2:]
        ns = (4.0, float("inf"))
        whole = [[bakry_emery_curvature(g, n).per_location for n in ns] for g in graphs]
        blocks = spy_form_blocks(monkeypatch)
        monkeypatch.setattr(curvature, "_FORM_ENTRIES", entries)
        for g, pers in zip(graphs, whole):
            blocks.clear()
            for n, per in zip(ns, pers):
                assert bakry_emery_curvature(g, n).per_location == per
            assert len(blocks) >= 2 * 4  # two passes of at least four blocks


class TestBakryEmery:
    def test_single_edge_curvature(self):
        g = single_edge()
        assert bakry_emery_curvature(g, float("inf")).per_location[0] == pytest.approx(
            2.0, abs=1e-9
        )
        for n in (2.0, 3.0, 5.0):
            want = 2.0 * (n - 1.0) / n
            assert bakry_emery_curvature(g, n).per_location[0] == pytest.approx(want, abs=1e-9)

    def test_triangle_curvature_at_infinity(self):
        g = triangle()
        assert bakry_emery_curvature(g, float("inf")).per_location[0] == pytest.approx(
            2.5, abs=1e-9
        )

    def test_global_min_collects_all_vertices(self):
        g = path_graph(3)
        res = bakry_emery_curvature(g, float("inf"))
        assert set(res.per_location) == {0, 1, 2}
        assert res.global_min == min(res.per_location.values())

    def test_rejects_dimension_at_most_one(self):
        with pytest.raises(ValueError):
            bakry_emery_curvature(single_edge(), 1.0)
        g = path_graph(4, boundary=[0])
        for n in (1.0, 0.5, -3.0, -math.inf):
            with pytest.raises(ValueError, match="must exceed 1"):
                bakry_emery_curvature(g, n)

    def test_rejects_nan_dimension(self):
        # NaN compares false with everything, so it must fail the n > 1 test
        # rather than reach the forms
        g = path_graph(4, boundary=[0])
        with pytest.raises(ValueError, match="must exceed 1"):
            bakry_emery_curvature(g, float("nan"))
        with pytest.raises(ValueError, match="must exceed 1"):
            certify_lichnerowicz(g, "be-g-nu2", n=float("nan"))

    # exact K(x, inf) at every vertex of vertex-transitive unit graphs
    @pytest.mark.parametrize(
        "graph, k",
        [(complete_graph(n), (n + 2) / 2) for n in (4, 6, 10)]
        + [(hypercube(d), 2.0) for d in (3, 4)]
        + [(cycle(n), 0.0) for n in (5, 6, 8)],
        ids=["K4", "K6", "K10", "Q3", "Q4", "C5", "C6", "C8"],
    )
    def test_exact_values_on_symmetric_graphs(self, graph, k):
        values = bakry_emery_curvature(graph, float("inf")).per_location.values()
        assert len(values) == graph.vertex_count
        for got in values:
            assert got == pytest.approx(k, abs=1e-9 * max(1.0, k))

    @pytest.mark.parametrize("model", ["unit", "lognormal", "normalized"])
    def test_matches_polarization_oracle(self, model):
        # each draw and its interior, as `curvature --on interior` sees it,
        # at every vertex
        rng = np.random.default_rng(17)
        for _ in range(15):
            drawn = random_graph(rng, 8, weight_model=model)
            for g in (drawn, interior_subgraph(drawn)):
                tol = 1e-12 * max(1.0, float(degree_vector(g).max()))
                for n in (2.0, 4.0, float("inf")):
                    per = bakry_emery_curvature(g, n).per_location
                    assert len(per) == g.vertex_count
                    for x, k in per.items():
                        want = bakry_emery_by_polarization(g.measure, g.weights, x, n)
                        assert k == pytest.approx(want, abs=tol)

    def test_bounded_by_sampled_rayleigh_quotients(self):
        # x adjacent to every other vertex: Gamma is nonsingular on the
        # 2-ball, and every sampled quotient bounds K(x, n) from above
        rng = np.random.default_rng(18)
        for _ in range(4):
            g = random_graph(rng, 6, weight_model="lognormal")
            w = g.weights.copy()
            missing = w[0, 1:] == 0.0
            w[0, 1:][missing] = rng.lognormal(size=int(missing.sum()))
            w[1:, 0] = w[0, 1:]
            g = WeightedBoundaryGraph(measure=g.measure, weights=w, boundary=g.boundary)
            tol = 1e-9 * max(1.0, float(degree_vector(g).max()))
            for n in (2.0, 4.0, float("inf")):
                ball, gamma, q = bakry_emery_forms(g.measure, g.weights, 0, n)
                assert ball.size == g.vertex_count - 1
                sampled = rayleigh_min_bruteforce(q, gamma, rng)
                assert bakry_emery_curvature(g, n).per_location[0] <= sampled + tol

    def test_scales_with_weights_and_inverse_measure(self):
        g = random_graph(np.random.default_rng(19), 12, weight_model="lognormal")
        base = bakry_emery_curvature(g, 4.0).per_location
        deg = float(degree_vector(g).max())
        # far from unit scale, nothing may overflow, underflow or vanish
        for t in (1e-200, 1e-13, 1e13, 1e200):
            heavier = WeightedBoundaryGraph(measure=g.measure, weights=t * g.weights,
                                            boundary=g.boundary)
            lighter = WeightedBoundaryGraph(measure=g.measure / t, weights=g.weights,
                                            boundary=g.boundary)
            for scaled in (heavier, lighter):
                for x, k in bakry_emery_curvature(scaled, 4.0).per_location.items():
                    assert k == pytest.approx(t * base[x], abs=1e-12 * t * deg)

    @pytest.mark.parametrize("eps", [1e-20, 1e-160, 1e-200])
    def test_wide_weight_ratio_inside_one_ball(self, eps):
        # path 0 - 1 - 2 - 3 with weights 1, eps, 1: at x = 1 (and at 2 by
        # symmetry) p = (1, eps), the S_2 term is eps / eps, and the form is
        # diag(1 - eps/2, eps - 1) + (1 - 2/n) [[1, sqrt eps], [sqrt eps, eps]],
        # so K = -1 + O(eps); p_u p_v alone would underflow from about 1e-154
        g = path_graph(4, boundary=[3], weights=(1.0, eps, 1.0))
        for n in (4.0, float("inf")):
            per = bakry_emery_curvature(g, n).per_location
            for x in (1, 2):
                assert per[x] == pytest.approx(-1.0, abs=1e-13)

    @pytest.mark.parametrize("weights", [(1e10, 1e-315), (1e-10, 8e297)])
    def test_overflowing_forms_are_not_applicable(self, weights):
        # valid graphs whose degrees in one 2-ball differ by more than the
        # float range: the scaled block overflows at 1e10 / 1e-315, and the
        # block is finite but the forms built from it overflow at 1e-10 / 8e297
        g = path_graph(3, boundary=[0, 2], weights=weights)
        with pytest.raises(NotApplicable, match="vertex 0"):
            bakry_emery_curvature(g, 4.0)

    def test_overflowing_second_sphere_sum_is_not_applicable(self):
        # vertex 0's four neighbours share the one vertex 5 of S_2: each term
        # of (L^2)_{0,5} is finite but their sum overflows, while the form,
        # whose S_2 term it would silently zero, stays finite
        w = np.zeros((6, 6))
        w[0, 1:5] = 0.99 * 2.0**-12
        w[1:5, 5] = 1e308 * 2.0**-11
        g = WeightedBoundaryGraph(measure=np.ones(6), weights=w + w.T, boundary=np.array([5]))
        with pytest.raises(NotApplicable, match="vertex 0"):
            bakry_emery_curvature(g, 4.0)

    @pytest.mark.parametrize("n", [4.0, math.inf])
    def test_curvature_beyond_the_float_range_is_not_applicable(self, n):
        # every form is finite, but the scale times the least eigenvalue at
        # vertex 4 overflows: refused without a warning, not K = -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotApplicable, match="curvature at vertex 4 overflows"):
                bakry_emery_curvature(bakry_emery_overflow_graph(), n)

    def test_one_stacked_eigensolve_per_sphere_size(self, monkeypatch):
        # every vertex's form is solved once, in the one stacked call of
        # its block for its |S_1|, without padding
        calls = []

        def spy(forms):
            calls.append(forms.shape)
            return symmetric_eigvalsh(forms)

        monkeypatch.setattr(curvature, "symmetric_eigvalsh", spy)
        g = random_graph(np.random.default_rng(20), 12)
        sizes = np.count_nonzero(graph_module.distances(g) == 1, axis=1).tolist()
        bakry_emery_curvature(g, 4.0)  # one block
        assert [(k, m) for m, k, _k in calls] == sorted(Counter(sizes).items())
        assert len(calls) < g.vertex_count
        calls.clear()
        monkeypatch.setattr(curvature, "_FORM_ENTRIES", 1)  # one vertex per block
        bakry_emery_curvature(g, 4.0)
        assert sorted(calls) == sorted((1, k, k) for k in sizes)

    def test_matches_polarization_oracle_across_blocks(self, monkeypatch):
        # a 49-vertex lognormal graph, |S_1| 15 to 28, its vertices split
        # over at least three blocks of forms
        g = seeded_graphs()[-1]
        blocks = spy_form_blocks(monkeypatch)
        monkeypatch.setattr(curvature, "_FORM_ENTRIES", 5000)
        tol = 1e-12 * float(degree_vector(g).max())
        sampled = np.random.default_rng(26).choice(g.vertex_count, 8, replace=False).tolist()
        for n in (4.0, float("inf")):
            per = bakry_emery_curvature(g, n).per_location
            for x in sampled:
                want = bakry_emery_by_polarization(g.measure, g.weights, x, n)
                assert per[x] == pytest.approx(want, abs=tol)
        assert len(blocks) >= 2 * 3  # two passes of at least three blocks

    def test_monotone_in_dimension(self):
        rng = np.random.default_rng(11)
        grid = [2.0, 3.0, 5.0, 10.0, 1e6, float("inf")]
        for _ in range(5):
            g = random_graph(rng, 7, weight_model="unit")
            pers = [bakry_emery_curvature(g, n).per_location for n in grid]
            for x in range(g.vertex_count):
                vals = [per[x] for per in pers]
                for a, b in zip(vals, vals[1:]):
                    assert a <= b + 1e-8


def test_distances_computed_once_per_graph(monkeypatch):
    calls = []
    compute = graph_module._graph_distances

    def counted(graph):
        calls.append(graph)
        return compute(graph)

    monkeypatch.setattr(graph_module, "_graph_distances", counted)
    g = random_graph(np.random.default_rng(14), 8)
    bakry_emery_curvature(g, 4)
    assert len(calls) == 1
    ollivier_curvature_all(g)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        graph_module.distances(g)[0, 0] = 1.0


class TestOllivier:
    def test_single_edge(self):
        g = single_edge()
        assert ollivier_curvature(g, 0, 1) == pytest.approx(2.0, abs=1e-9)
        assert ollivier_bruteforce(g, 0, 1) == pytest.approx(2.0, abs=1e-9)

    def test_p3_edge(self):
        g = path_graph(3)
        assert ollivier_curvature(g, 0, 1) == pytest.approx(1.0, abs=1e-9)
        assert ollivier_bruteforce(g, 0, 1) == pytest.approx(1.0, abs=1e-9)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            ollivier_curvature(path_graph(3), 0, 2)

    def test_matches_bruteforce_on_random_graphs(self, monkeypatch):
        flows = spy_flows(monkeypatch)
        rng = np.random.default_rng(12)
        lp_free = gain_two = 0
        for model in ("unit", "lognormal", "normalized"):
            checked = 0
            while checked < 15:
                g = random_graph(rng, 6, weight_model=model)
                for u, v, _w in g.edges():
                    flows.clear()
                    got = ollivier_curvature(g, u, v)
                    want = ollivier_bruteforce(g, u, v)
                    assert got == pytest.approx(want, abs=1e-9)
                    assert ollivier_by_enumeration(g, u, v) == pytest.approx(want, abs=1e-9)
                    checked += 1
                    lp_free += not flows
                    gain_two += any(gains_two(flow) for flow in flows)
        # the checked edges reach both ends of the reduction: an edge priced
        # in closed form, and a pair that gains 2 by shipping direct
        assert lp_free > 0 and gain_two > 0

    def test_matches_enumeration_on_large_balls(self):
        # the LP oracle refuses balls with five or more free vertices; the
        # enumeration over integer 1-Lipschitz functions referees them
        rng = np.random.default_rng(42)
        large = 0
        for _ in range(40):
            g = random_graph(rng, 12)
            tol = 1e-13 * max(1.0, float(degree_vector(g).max()))
            dist = hop_distances_bfs(g.weights)
            for u, v, _w in g.edges():
                want = ollivier_by_enumeration(g, u, v)
                assert ollivier_curvature(g, u, v) == pytest.approx(want, abs=tol)
                large += int(np.count_nonzero((dist[u] <= 1) | (dist[v] <= 1))) - 2 >= 5
        assert large > 0

    # exact values on graphs whose unit balls are too large for the LP oracle,
    # and on C5, whose edges rest on a pair that gains 1 (a sender and a
    # receiver at distance 2): Lin-Lu-Yau's curvature 1/2 times the degree
    @pytest.mark.parametrize(
        "graph, kappa",
        [(complete_graph(n), n) for n in (10, 30, 45)]
        + [(hypercube(d), 2.0) for d in (3, 4, 5)]
        + [(cycle(n), 0.0) for n in (6, 8, 12)]
        + [(cycle(5), 1.0)],
        ids=["K10", "K30", "K45", "Q3", "Q4", "Q5", "C6", "C8", "C12", "C5"],
    )
    def test_exact_values_on_symmetric_graphs(self, graph, kappa):
        values = ollivier_curvature_all(graph).per_location.values()
        assert len(values) == len(list(graph.edges()))
        for got in values:
            assert got == pytest.approx(kappa, abs=1e-9 * max(1.0, kappa))

    def test_scales_with_weights_and_inverse_measure(self):
        rng = np.random.default_rng(15)
        g = random_graph(rng, 40, weight_model="lognormal")
        while g.vertex_count < 36:
            g = random_graph(rng, 40, weight_model="lognormal")
        base = ollivier_curvature_all(g).per_location
        # far from unit scale, nothing may overflow, underflow or lose digits
        for t in (1e-8, 1e8):
            heavier = WeightedBoundaryGraph(measure=g.measure, weights=t * g.weights,
                                            boundary=g.boundary)
            lighter = WeightedBoundaryGraph(measure=g.measure / t, weights=g.weights,
                                            boundary=g.boundary)
            tol = 1e-9 * t * max(1.0, float(degree_vector(g).max()))
            for scaled in (heavier, lighter):
                for edge, kappa in ollivier_curvature_all(scaled).per_location.items():
                    assert kappa == pytest.approx(t * base[edge], abs=tol)

    def test_lp_has_one_row_per_free_ball_vertex(self, monkeypatch):
        # one supply per sender and one demand per receiver, so at most one
        # per free ball vertex, each |c_v| up to one power-of-two scale; x and
        # y have none
        flows = spy_flows(monkeypatch)
        g = random_graph(np.random.default_rng(16), 12)
        lap = -full_laplacian(g).matrix
        dist = hop_distances_bfs(g.weights)
        solved = 0
        for u, v, _w in g.edges():
            flows.clear()
            ollivier_curvature(g, u, v)
            ball = np.flatnonzero((dist[u] <= 1) | (dist[v] <= 1))
            free = ball[(ball != u) & (ball != v)]
            c = (lap[v] - lap[u])[free]
            if not flows:
                continue
            (supply, demand, gain), = flows
            senders, receivers = -c[c < 0], c[c > 0]
            assert gain.shape == (senders.size, receivers.size)
            ratio = supply[0] / senders[0]
            assert math.frexp(ratio)[0] == 0.5
            assert supply.tolist() == (senders * ratio).tolist()
            assert demand.tolist() == (receivers * ratio).tolist()
            solved += 1
        assert solved > 0

    def test_lp_columns_run_from_senders_to_receivers(self, monkeypatch):
        flows = spy_flows(monkeypatch)
        rng = np.random.default_rng(16)
        free_edges = 0
        for model in ("unit", "lognormal"):
            g = random_graph(rng, 12, weight_model=model)
            lap = -full_laplacian(g).matrix
            dist = hop_distances_bfs(g.weights)
            for x, y, _w in g.edges():
                flows.clear()
                ollivier_curvature(g, x, y)
                ball = np.flatnonzero((dist[x] <= 1) | (dist[y] <= 1))
                free = ball[(ball != x) & (ball != y)]
                c = (lap[y] - lap[x])[free]
                senders, receivers = np.flatnonzero(c < 0), np.flatnonzero(c > 0)
                # a sender's cheapest outlet is x or y, a receiver's cheapest
                # fill is x or y, and a direct shipment gains their sum less
                # its own cost
                want = []
                for v in senders:
                    dvx, dvy = dist[x, free[v]], dist[y, free[v]]
                    for w in receivers:
                        dwx, dwy = dist[x, free[w]], dist[y, free[w]]
                        gain = (min(dvx + dvy + 1, 2 * dvy) + min(0, dwx - 1 - dwy)
                                - (dist[free[v], free[w]] + dvy - dwy))
                        if gain > 0:
                            want.append((v, w, gain))
                if not want:
                    assert flows == []
                    free_edges += 1
                    continue
                (supply, demand, gain), = flows
                assert gain.shape == (senders.size, receivers.size)
                got = [(v, w, gain[i, j]) for i, v in enumerate(senders)
                       for j, w in enumerate(receivers) if gain[i, j] > 0]
                assert got == want
                assert all(k in (1, 2) for _v, _w, k in got)
                assert np.all((0.0 < supply) & (supply < math.inf))
                assert np.all((0.0 < demand) & (demand < math.inf))
        assert free_edges > 0
        # K10: every free vertex is balanced, so there is no flow
        flows.clear()
        assert ollivier_curvature(complete_graph(10), 0, 1) == pytest.approx(10.0, abs=1e-9)
        assert flows == []

    @pytest.mark.parametrize("delta", [1e-11, 9e-11])
    def test_near_tie_matches_bruteforce(self, delta):
        # the 4-cycle 0-1-2-3-0 with w_03 = 1 + delta: sender 3 and receiver 2
        # gain 2 per unit, capped by the smaller of |c_3| = 1 + delta and
        # c_2 = 1, so kappa(0, 1) = 2 - delta
        w = np.zeros((4, 4))
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            w[a, b] = w[b, a] = 1.0
        w[0, 3] = w[3, 0] = 1.0 + delta
        g = unit_graph(w)
        want = ollivier_bruteforce(g, 0, 1)
        assert want == pytest.approx(2.0 - delta, abs=1e-14)
        assert ollivier_curvature(g, 0, 1) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("model, n, count", [
        ("unit", 12, 10), ("lognormal", 12, 10), ("lognormal", 49, 2),
    ])
    def test_symmetric_in_the_edge_ends(self, model, n, count):
        # kappa(x, y) and kappa(y, x) solve different LPs: senders and
        # receivers trade places and x, y are priced differently
        rng = np.random.default_rng(21)
        done = 0
        while done < count:
            g = random_graph(rng, n, weight_model=model)
            if n > 12 and g.vertex_count < 40:
                continue
            tol = 1e-12 * max(1.0, float(degree_vector(g).max()))
            for u, v, _w in g.edges():
                assert ollivier_curvature(g, u, v) == pytest.approx(
                    ollivier_curvature(g, v, u), abs=tol)
            done += 1

    def test_relabelling_the_vertices_keeps_every_kappa(self):
        # relabelling reorders the senders, the receivers and the pairs, so
        # the start and the augmenting paths differ; no referee reaches
        # balls this large, so kappa must agree with itself
        rng = np.random.default_rng(22)
        done = 0
        while done < 3:
            g = random_graph(rng, 49, weight_model="lognormal")
            if g.vertex_count < 36:
                continue
            order = rng.permutation(g.vertex_count)  # new vertex i is old order[i]
            label = np.argsort(order)  # old vertex v is new vertex label[v]
            relabelled = WeightedBoundaryGraph(measure=g.measure[order],
                                               weights=g.weights[np.ix_(order, order)],
                                               boundary=label[g.boundary])
            tol = 4e-13 * float(degree_vector(g).max())
            for u, v, _w in g.edges():
                assert ollivier_curvature(relabelled, label[u], label[v]) == pytest.approx(
                    ollivier_curvature(g, u, v), abs=tol)
            done += 1

    def test_distant_pendant_does_not_change_edge_curvature(self):
        g = path_graph(5)
        base = ollivier_curvature(g, 0, 1)
        w = np.zeros((6, 6))
        w[:5, :5] = g.weights
        w[4, 5] = w[5, 4] = 1.0  # pendant two steps beyond both unit balls
        extended = unit_graph(w)
        assert ollivier_curvature(extended, 0, 1) == pytest.approx(base, abs=1e-12)

    def test_edges_beside_a_second_component(self, corpus):
        # the hop distance between the two copies is inf, and only the cap
        # at 2 keeps 0 * inf (a nan, with a warning that fails this suite)
        # out of the row sums.  Equal bits cannot be asked for: Deg sums a
        # row pairwise, and twice the row length moves its last bits
        for g in corpus:
            n = g.vertex_count
            w = np.zeros((2 * n, 2 * n))
            w[:n, :n] = w[n:, n:] = g.weights
            twice = WeightedBoundaryGraph(np.concatenate((g.measure, g.measure)), w,
                                          np.concatenate((g.boundary, g.boundary + n)))
            tol = 1e-13 * float(degree_vector(g).max())
            for u, v, _ in g.edges():
                alone = ollivier_curvature(g, u, v)
                for shift in (0, n):
                    kappa = ollivier_curvature(twice, u + shift, v + shift)
                    assert math.isfinite(kappa)
                    assert abs(kappa - alone) <= tol

    def test_all_edges_summary(self):
        res = ollivier_curvature_all(triangle())
        assert set(res.per_location) == {(0, 1), (0, 2), (1, 2)}
        assert res.global_min == min(res.per_location.values())


class TestConnectivityGuard:
    @pytest.mark.parametrize("weights", [
        [[0]],                                                  # one vertex
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # two components
    ])
    def test_needs_a_connected_graph_with_an_edge(self, weights):
        g = unit_graph(weights)
        for compute in (lambda g: bakry_emery_curvature(g, 4.0), ollivier_curvature_all):
            with pytest.raises(NotApplicable, match="^curvature needs a connected graph "
                                                    "with an edge$"):
                compute(g)


class TestLichnerowicz:
    def test_all_variants_on_a_curved_fixture(self):
        # K_{2,2}: whole graph and interior are positively curved enough
        g = complete_bipartite(2, 2)
        for variant in LICHNEROWICZ_VARIANTS:
            try:
                cert = certify_lichnerowicz(g, variant, n=4.0)
            except NotApplicable:
                continue
            assert cert.holds, variant

    def test_interior_variant_requires_connected_interior(self):
        # two interior vertices with no interior edge
        g = complete_bipartite(2, 2)
        with pytest.raises(NotApplicable):
            certify_lichnerowicz(g, "be-interior", n=4.0)

    def test_single_interior_vertex_not_applicable(self):
        # K_{3,1}: the interior is one vertex, so it has no edge, and nu_2
        # and lambda_2 of the whole graph do not exist
        g = complete_bipartite(3, 1)
        for variant in LICHNEROWICZ_VARIANTS:
            with pytest.raises(NotApplicable):
                certify_lichnerowicz(g, variant, n=4.0)

    @pytest.mark.parametrize("graph", [path_graph(2, boundary=[0]),
                                       path_graph(3, boundary=[0, 2])], ids=["P2", "P3"])
    def test_single_interior_vertex_rejected_before_any_curvature(self, monkeypatch, graph):
        # nu_2 and lambda_2 need two interior vertices; no curvature is
        # computed to find that out
        def no_curvature(*args):
            raise AssertionError("curvature computed")

        monkeypatch.setattr(curvature, "bakry_emery_curvature", no_curvature)
        monkeypatch.setattr(curvature, "ollivier_curvature_all", no_curvature)
        for variant in LICHNEROWICZ_VARIANTS:
            with pytest.raises(NotApplicable, match="singleton interior"):
                certify_lichnerowicz(graph, variant, n=4.0)

    def test_unknown_variant_rejected(self, k22):
        with pytest.raises(ValueError):
            certify_lichnerowicz(k22, "bogus")

    def test_nonpositive_curvature_not_applicable(self):
        g = path_graph(6, boundary=[0])
        with pytest.raises(NotApplicable):
            certify_lichnerowicz(g, "ollivier-g-nu2")
        # the path's Bakry-Emery minimum is 0 up to round-off, which must
        # not count as positive whichever sign the round-off takes
        with pytest.raises(NotApplicable):
            certify_lichnerowicz(path_graph(5, boundary=[0]), "be-g-nu2", n=4.0)
