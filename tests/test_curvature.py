import numpy as np
import pytest

from graphspec import curvature
from graphspec.curvature import (
    LICHNEROWICZ_VARIANTS,
    NotApplicable,
    bakry_emery_curvature,
    bakry_emery_curvature_at,
    certify_lichnerowicz,
    ollivier_curvature,
    ollivier_curvature_all,
)
from graphspec.fixtures import complete_bipartite, path_graph, random_graph
from graphspec.graph import WeightedBoundaryGraph, degree_vector
from graphspec.operators import full_laplacian
from graphspec.simplex import solve_lp
from graphspec.spectra import symmetric_eigh

from oracle import (
    bakry_emery_by_polarization,
    bakry_emery_forms,
    hop_distances_bfs,
    lp_bruteforce,
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


def ollivier_bruteforce(graph, x, y):
    """Independent re-derivation of kappa(x, y) solved by the enumeration
    oracle instead of the production simplex."""
    lap = -full_laplacian(graph).matrix
    dist = hop_distances_bfs(graph.weights)
    ball = np.flatnonzero((dist[x] <= 1) | (dist[y] <= 1))
    free = [v for v in ball if v != x and v != y]
    fixed = {x: 1.0, y: 0.0}
    obj = lap[y] - lap[x]
    const = sum(obj[v] * fv for v, fv in fixed.items())
    shift = np.array([dist[y, v] for v in free])
    c = np.array([obj[v] for v in free])
    const += float(-c @ shift)
    members = list(fixed) + free
    index = {v: i for i, v in enumerate(free)}
    rows, rhs = [], []
    for ai in range(len(members)):
        for bi in range(ai + 1, len(members)):
            u, v = members[ai], members[bi]
            d = dist[u, v]
            if not np.isfinite(d):
                continue
            row = np.zeros(len(free))
            offset = 0.0
            if u in fixed:
                offset += fixed[u]
            else:
                row[index[u]] = 1.0
                offset -= shift[index[u]]
            if v in fixed:
                offset -= fixed[v]
            else:
                row[index[v]] = -1.0
                offset += shift[index[v]]
            rows.append(row.copy())
            rhs.append(d - offset)
            rows.append(-row)
            rhs.append(d + offset)
    if not free:
        return float(const)
    value, _ = lp_bruteforce(c, np.vstack(rows), np.array(rhs))
    return float(value + const)


class TestBakryEmery:
    def test_single_edge_curvature(self):
        g = single_edge()
        assert bakry_emery_curvature_at(g, 0, float("inf")) == pytest.approx(
            2.0, abs=1e-9
        )
        for n in (2.0, 3.0, 5.0):
            want = 2.0 * (n - 1.0) / n
            assert bakry_emery_curvature_at(g, 0, n) == pytest.approx(want, abs=1e-9)

    def test_triangle_curvature_at_infinity(self):
        g = triangle()
        assert bakry_emery_curvature_at(g, 0, float("inf")) == pytest.approx(
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

    @pytest.mark.parametrize("model", ["unit", "lognormal"])
    def test_matches_polarization_oracle(self, model):
        rng = np.random.default_rng(17)
        for _ in range(15):
            g = random_graph(rng, 8, weight_model=model)
            tol = 1e-12 * max(1.0, float(degree_vector(g).max()))
            for x in range(g.vertex_count):
                for n in (2.0, 4.0, float("inf")):
                    want = bakry_emery_by_polarization(g.measure, g.weights, x, n)
                    assert bakry_emery_curvature_at(g, x, n) == pytest.approx(want, abs=tol)

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
                assert bakry_emery_curvature_at(g, 0, n) <= sampled + tol

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

    @pytest.mark.parametrize("weights", [(1e10, 1e-315), (1e-10, 8e297)])
    def test_overflowing_forms_are_not_applicable(self, weights):
        # valid graphs whose degrees in one 2-ball differ by more than the
        # float range: the scaled block overflows at 1e10 / 1e-315, and the
        # block is finite but the forms built from it overflow at 1e-10 / 8e297
        g = path_graph(3, boundary=[0, 2], weights=weights)
        with pytest.raises(NotApplicable, match="vertex 0"):
            bakry_emery_curvature_at(g, 0, 4.0)

    def test_one_eigensolve_per_vertex(self, monkeypatch):
        calls = []

        def spy(matrix):
            calls.append(matrix.shape)
            return symmetric_eigh(matrix)

        monkeypatch.setattr(curvature, "symmetric_eigh", spy)
        g = random_graph(np.random.default_rng(20), 12)
        bakry_emery_curvature(g, 4.0)
        assert len(calls) == g.vertex_count

    def test_monotone_in_dimension(self):
        rng = np.random.default_rng(11)
        grid = [2.0, 3.0, 5.0, 10.0, 1e6, float("inf")]
        for _ in range(5):
            g = random_graph(rng, 7, weight_model="unit")
            for x in range(g.vertex_count):
                vals = [bakry_emery_curvature_at(g, x, n) for n in grid]
                for a, b in zip(vals, vals[1:]):
                    assert a <= b + 1e-8


def test_distances_computed_once_per_graph(monkeypatch):
    calls = []
    distances = curvature._graph_distances

    def counted(graph):
        calls.append(graph)
        return distances(graph)

    monkeypatch.setattr(curvature, "_graph_distances", counted)
    g = random_graph(np.random.default_rng(14), 8)
    bakry_emery_curvature(g, 4)
    assert len(calls) == 1
    ollivier_curvature_all(g)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        curvature._distances(g)[0, 0] = 1.0


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

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for model in ("unit", "lognormal"):
            checked = 0
            while checked < 15:
                g = random_graph(rng, 6, weight_model=model)
                for u, v, _w in g.edges():
                    got = ollivier_curvature(g, u, v)
                    want = ollivier_bruteforce(g, u, v)
                    assert got == pytest.approx(want, abs=1e-9)
                    checked += 1

    # exact values on graphs whose unit balls are too large for the oracle
    @pytest.mark.parametrize(
        "graph, kappa",
        [(complete_graph(n), n) for n in (10, 30, 45)]
        + [(hypercube(d), 2.0) for d in (3, 4, 5)]
        + [(cycle(n), 0.0) for n in (6, 8, 12)],
        ids=["K10", "K30", "K45", "Q3", "Q4", "Q5", "C6", "C8", "C12"],
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
        # far from unit scale, the simplex's absolute tolerances must not bite
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
        shapes = []

        def spy(c, a, b):
            shapes.append(np.shape(a))
            return solve_lp(c, a, b)

        monkeypatch.setattr(curvature, "solve_lp", spy)
        g = random_graph(np.random.default_rng(16), 12)
        dist = curvature._distances(g)
        for u, v, _w in g.edges():
            shapes.clear()
            ollivier_curvature(g, u, v)
            ball = np.flatnonzero((dist[u] <= 1) | (dist[v] <= 1))
            assert [shape[0] for shape in shapes] == ([ball.size - 2] if ball.size > 2 else [])

    def test_distant_pendant_does_not_change_edge_curvature(self):
        g = path_graph(5)
        base = ollivier_curvature(g, 0, 1)
        w = np.zeros((6, 6))
        w[:5, :5] = g.weights
        w[4, 5] = w[5, 4] = 1.0  # pendant two steps beyond both unit balls
        extended = unit_graph(w)
        assert ollivier_curvature(extended, 0, 1) == pytest.approx(base, abs=1e-12)

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


class TestSimplexAgainstOracle:
    def test_trivial_lp(self):
        # min x s.t. -x <= -3  (i.e. x >= 3)
        value, x = solve_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]))
        assert value == pytest.approx(3.0, abs=1e-12)
        assert x[0] == pytest.approx(3.0, abs=1e-12)

    def test_random_lps_match_enumeration(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 40:
            nvar = int(rng.integers(1, 5))
            ncon = int(rng.integers(1, 7))
            c = rng.normal(size=nvar)
            a = rng.normal(size=(ncon, nvar))
            b = rng.uniform(0.5, 2.0, ncon)  # origin feasible, bounded often
            try:
                want, _ = lp_bruteforce(c, a, b)
            except Exception:
                continue
            # enumeration found a bounded optimum over basic points; confirm
            # the simplex agrees when it also reports an optimum
            try:
                got, _ = solve_lp(c, a, b)
            except Exception:
                continue
            assert got == pytest.approx(want, abs=1e-9)
            done += 1
