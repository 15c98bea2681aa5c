import numpy as np
import pytest

from graphspec import curvature
from graphspec.curvature import (
    LICHNEROWICZ_VARIANTS,
    NotApplicable,
    _graph_distances,
    bakry_emery_curvature,
    bakry_emery_curvature_at,
    certify_lichnerowicz,
    ollivier_curvature,
    ollivier_curvature_all,
)
from graphspec.fixtures import complete_bipartite, path_graph, random_graph
from graphspec.graph import WeightedBoundaryGraph
from graphspec.operators import full_laplacian
from graphspec.simplex import solve_lp

from oracle import lp_bruteforce


def unit_graph(weights):
    w = np.asarray(weights, dtype=float)
    return WeightedBoundaryGraph(
        measure=np.ones(w.shape[0]), weights=w, boundary=np.array([], dtype=np.intp)
    )


def single_edge():
    return unit_graph([[0, 1], [1, 0]])


def triangle():
    return unit_graph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def ollivier_bruteforce(graph, x, y):
    """Independent re-derivation of kappa(x, y) solved by the enumeration
    oracle instead of the production simplex."""
    lap = -full_laplacian(graph).matrix
    dist = _graph_distances(graph)
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
        checked = 0
        while checked < 15:
            g = random_graph(rng, 6, weight_model="unit")
            for u, v, _w in g.edges():
                got = ollivier_curvature(g, u, v)
                want = ollivier_bruteforce(g, u, v)
                assert got == pytest.approx(want, abs=1e-9)
                checked += 1

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
