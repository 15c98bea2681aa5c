import numpy as np
import pytest

from graphspec.operators import (
    SelfAdjointOperator,
    dirichlet_laplacian,
    full_laplacian,
    neumann_laplacian,
)
from graphspec.spectra import (
    ConvergenceError,
    eigensolve,
    spectral_radius,
    weighted_singular_values,
)
from graphspec.fixtures import path_graph, random_graph

from oracle import DimensionTooLarge, eigen_bruteforce


def random_operator(rng, n):
    """A random measure-self-adjoint operator: M^{-1/2} S M^{-1/2}-style."""
    m = rng.uniform(0.5, 2.0, n)
    s = rng.normal(size=(n, n))
    s = 0.5 * (s + s.T)
    d = np.sqrt(m)
    # A = M^{-1/2} S M^{1/2} is self-adjoint for the m-inner product
    mat = s * d[None, :] / d[:, None]
    return SelfAdjointOperator(mat, m, "Random"), m


def test_random_operator_is_self_adjoint():
    rng = np.random.default_rng(0)
    op, _ = random_operator(rng, 5)
    assert op.self_adjointness_defect() <= 1e-12


class TestEigensolve:
    def test_p3_full_spectrum(self, p3_two_ends):
        w = eigensolve(full_laplacian(p3_two_ends)).eigenvalues
        assert np.abs(w - [0.0, 1.0, 3.0]).max() <= 1e-12

    def test_p3_one_end_dirichlet(self, p3_one_end):
        lam = eigensolve(dirichlet_laplacian(p3_one_end)).eigenvalues
        expect = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
        assert np.abs(lam - expect).max() <= 1e-12

    def test_p3_one_end_neumann(self, p3_one_end):
        nu = eigensolve(neumann_laplacian(p3_one_end)).eigenvalues
        assert np.abs(nu - [0.0, 2.0]).max() <= 1e-12

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, 10)
            op = full_laplacian(g)
            spec = eigensolve(op)
            assert spec.residual(op) <= 1e-10
            assert spec.orthonormality_defect() <= 1e-10

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            op, _ = random_operator(rng, int(rng.integers(2, 9)))
            w = eigensolve(op).eigenvalues
            trace = float(np.trace(op.matrix))
            assert abs(w.sum() - trace) <= 1e-9 * max(1.0, abs(trace))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            op, m = random_operator(rng, n)
            got = eigensolve(op).eigenvalues
            want = eigen_bruteforce(op.matrix, m)
            assert np.abs(got - want).max() <= 1e-7

    def test_empty_and_scalar(self):
        spec = eigensolve(SelfAdjointOperator(np.empty((0, 0)), np.empty(0), "Empty"))
        assert spec.eigenvalues.size == 0 and spec.eigenvectors.shape == (0, 0)
        spec = eigensolve(SelfAdjointOperator(np.array([[7.0]]), np.array([4.0]), "One"))
        assert spec.eigenvalues[0] == pytest.approx(7.0, abs=1e-15)
        assert spec.orthonormality_defect() <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_operator_raises(self, bad):
        mat = np.array([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError):
            eigensolve(SelfAdjointOperator(mat, np.ones(2), "NonFinite"))

    def test_oracle_refuses_large_input(self):
        with pytest.raises(DimensionTooLarge):
            eigen_bruteforce(np.eye(7), np.ones(7))

    def test_oracle_trivial_cases(self):
        assert eigen_bruteforce(np.array([[4.0]]), np.ones(1)) == pytest.approx(4.0)
        got = eigen_bruteforce(np.diag([3.0, -1.0]), np.ones(2))
        assert np.abs(got - [-1.0, 3.0]).max() <= 1e-10

    def test_oracle_p3_closed_form(self):
        g = path_graph(3)
        mat = full_laplacian(g).matrix
        got = eigen_bruteforce(mat, g.measure)
        assert np.abs(got - [0.0, 1.0, 3.0]).max() <= 1e-10


class TestSingularValues:
    def test_p3_two_ends(self, p3_two_ends):
        sing = weighted_singular_values(p3_two_ends)
        assert sing.s1_squared == pytest.approx(2.0, abs=1e-12)
        assert sing.smax_squared == pytest.approx(2.0, abs=1e-12)

    def test_p3_one_end(self, p3_one_end):
        sing = weighted_singular_values(p3_one_end)
        assert np.abs(sing.singular_values**2 - [0.0, 1.0]).max() <= 1e-12

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(4)
        from graphspec.graph import boundary_degree_vector

        for _ in range(20):
            g = random_graph(rng, 10)
            s2 = weighted_singular_values(g).singular_values ** 2
            assert s2.min() >= 0.0
            assert s2.max() <= boundary_degree_vector(g).max() + 1e-9


def test_spectral_radius():
    g = path_graph(3, boundary=[0, 2])
    spec = eigensolve(full_laplacian(g))
    assert spectral_radius(spec) == pytest.approx(3.0, abs=1e-12)
