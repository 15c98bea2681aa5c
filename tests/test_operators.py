import numpy as np
import pytest

from graphspec.graph import boundary_degree_vector, degree_vector
from graphspec.operators import (
    boundary_map,
    dirichlet_laplacian,
    full_laplacian,
    interior_laplacian,
    neumann_coupling,
    neumann_laplacian,
    normal_derivative,
    normal_extension,
    operator_by_label,
    zero_extension,
)
from graphspec.fixtures import random_graph

ALL_OPS = [full_laplacian, dirichlet_laplacian, neumann_laplacian, interior_laplacian]


def dirichlet_energy(graph, u, v):
    du = u[:, None] - u[None, :]
    dv = v[:, None] - v[None, :]
    return 0.5 * float((graph.weights * du * dv).sum())


def random_graphs(count, seed=0, max_v=10):
    rng = np.random.default_rng(seed)
    return rng, [random_graph(rng, max_v) for _ in range(count)]


class TestGreensFormula:
    def test_full_graph_summation_by_parts(self):
        rng, graphs = random_graphs(10, seed=1)
        for g in graphs:
            lap = full_laplacian(g)
            for _ in range(10):
                u = rng.normal(size=g.vertex_count)
                v = rng.normal(size=g.vertex_count)
                lhs = float(np.sum((lap.matrix @ u) * v * g.measure))
                assert abs(lhs - dirichlet_energy(g, u, v)) <= 1e-10 * max(
                    1.0, abs(lhs)
                )

    def test_interior_sum_with_boundary_term(self):
        # sum over the interior picks up the normal-derivative boundary term
        rng, graphs = random_graphs(10, seed=2)
        for g in graphs:
            lap = full_laplacian(g)
            b, omega = g.boundary, g.interior
            for _ in range(10):
                u = rng.normal(size=g.vertex_count)
                v = rng.normal(size=g.vertex_count)
                interior_part = float(
                    np.sum((lap.matrix @ u)[omega] * v[omega] * g.measure[omega])
                )
                boundary_term = float(
                    np.sum(normal_derivative(g, u) * v[b] * g.measure[b])
                )
                rhs = dirichlet_energy(g, u, v) - boundary_term
                assert abs(interior_part - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestExtensions:
    def test_zero_extension_vanishes_on_boundary(self, p3_two_ends):
        ext = zero_extension(p3_two_ends, np.array([5.0]))
        assert list(ext) == [0.0, 5.0, 0.0]

    def test_normal_extension_kills_normal_derivative(self):
        rng, graphs = random_graphs(10, seed=3)
        for g in graphs:
            for _ in range(5):
                u = rng.normal(size=g.interior.size)
                ext = normal_extension(g, u)
                assert np.abs(normal_derivative(g, ext)).max(initial=0.0) <= 1e-10

    def test_boundary_maps_are_mutually_adjoint(self):
        rng, graphs = random_graphs(10, seed=4)
        for g in graphs:
            bm = boundary_map(g)
            u = rng.normal(size=g.interior.size)
            f = rng.normal(size=g.boundary.size)
            lhs = float(np.sum((bm.a_omega @ u) * f * bm.boundary_measure))
            rhs = float(np.sum(u * (bm.a_b @ f) * bm.interior_measure))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestOperatorIdentities:
    def test_dirichlet_is_interior_plus_boundary_degree(self):
        _, graphs = random_graphs(10, seed=5)
        for g in graphs:
            lhs = dirichlet_laplacian(g).matrix
            rhs = interior_laplacian(g).matrix + np.diag(boundary_degree_vector(g))
            scale = max(1.0, float(np.abs(lhs).max()))
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_dirichlet_minus_neumann_is_the_coupling(self):
        _, graphs = random_graphs(10, seed=6)
        for g in graphs:
            diff = dirichlet_laplacian(g).matrix - neumann_laplacian(g).matrix
            coupling = neumann_coupling(g)
            scale = max(1.0, float(np.abs(diff).max(initial=0.0)))
            assert np.abs(diff - coupling).max(initial=0.0) <= 1e-10 * scale

    def test_all_operators_measure_self_adjoint(self):
        _, graphs = random_graphs(10, seed=7)
        for g in graphs:
            for build in ALL_OPS:
                assert build(g).self_adjointness_defect() <= 1e-12

    def test_coupling_dominated_by_boundary_degree(self):
        # Cauchy-Schwarz: the coupling form is between 0 and the Deg_b form
        _, graphs = random_graphs(15, seed=8)
        for g in graphs:
            m = g.measure[g.interior]
            d = np.sqrt(m)
            c = neumann_coupling(g)
            sym = (d[:, None] * c) / d[None, :]
            sym = 0.5 * (sym + sym.T)
            gap = np.diag(boundary_degree_vector(g)) - sym
            low = np.linalg.eigvalsh(sym)
            high = np.linalg.eigvalsh(gap)
            scale = max(1.0, float(np.abs(sym).max()))
            assert low[0] >= -1e-12 * scale
            assert high[0] >= -1e-12 * scale

    def test_operator_by_label(self, k22):
        for label in (
            "FullLaplacian",
            "DirichletLaplacian",
            "NeumannLaplacian",
            "InteriorLaplacian",
        ):
            assert operator_by_label(k22, label).label == label
        with pytest.raises(KeyError):
            operator_by_label(k22, "Nope")


def test_full_laplacian_rows_sum_to_zero():
    _, graphs = random_graphs(5, seed=9)
    for g in graphs:
        lap = full_laplacian(g).matrix
        assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * max(
            1.0, float(np.abs(lap).max())
        )


def test_degree_vector_is_laplacian_diagonal():
    _, graphs = random_graphs(5, seed=10)
    for g in graphs:
        lap = full_laplacian(g).matrix
        assert np.abs(np.diag(lap) - degree_vector(g)).max() <= 1e-12
