import sys

import numpy as np
import pytest

from graphspec import combinatorial, operators, spectra
from graphspec.combinatorial import fiedler_bounds, friedman_bounds
from graphspec.comparisons import run_all
from graphspec.graph import NotApplicable
from graphspec.operators import (
    SelfAdjointOperator,
    dirichlet_laplacian,
    full_laplacian,
    neumann_laplacian,
)
from graphspec.rigidity import ALL_RIGIDITY, EqualityPatternUnsupported
from graphspec.spectra import (
    ConvergenceError,
    eigensolve,
    spectral_radius,
    spectrum,
    weighted_singular_values,
)
from graphspec.fixtures import complete_bipartite, path_graph, random_graph

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


def record_calls(monkeypatch, fn, record):
    """Rebind every graphspec module global bound to ``fn`` to a wrapper that
    passes the call's arguments to ``record`` first."""

    def wrapper(*args, **kwargs):
        record(*args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "graphspec" or name.startswith("graphspec."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)


class TestSolvedOncePerGraph:
    def graphs(self):
        rng = np.random.default_rng(23)
        return [complete_bipartite(2, 2), path_graph(5, boundary=[0, 4])] + [
            random_graph(rng, 10, weight_model=model)
            for model in ("unit", "unit", "lognormal", "lognormal")
        ]

    def test_certificates_share_one_solve_per_operator(self, monkeypatch):
        solved, in_path_bound = [], []
        record_calls(
            monkeypatch, spectra.eigensolve,
            lambda op: None if in_path_bound else solved.append(op.label),
        )
        # the Friedman bounds solve helper path graphs, not the graph under test
        path_value = combinatorial.path_dirichlet_value

        def untracked_path_value(*args):
            in_path_bound.append(1)
            try:
                return path_value(*args)
            finally:
                in_path_bound.pop()

        monkeypatch.setattr(combinatorial, "path_dirichlet_value", untracked_path_value)
        for g in self.graphs():
            solved.clear()
            run_all(g)
            for check in ALL_RIGIDITY.values():
                try:
                    check(g)
                except (NotApplicable, EqualityPatternUnsupported):
                    pass
            for bounds in (fiedler_bounds, friedman_bounds):
                try:
                    bounds(g)
                except NotApplicable:
                    pass
            assert len(solved) <= 5
            assert len(set(solved)) == len(solved)

    def test_cached_spectra_are_read_only(self):
        g = path_graph(4, boundary=[0])
        spec = spectrum(g, "NeumannLaplacian")
        assert spectrum(g, "NeumannLaplacian") is spec
        for arr in (spec.eigenvalues, spec.eigenvectors, spec.measure,
                    weighted_singular_values(g).singular_values):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_spectrum_matches_a_fresh_solve(self):
        g = random_graph(np.random.default_rng(24), 9, weight_model="lognormal")
        for label in ("FullLaplacian", "DirichletLaplacian", "NeumannLaplacian",
                      "InteriorLaplacian"):
            fresh = eigensolve(operators.operator_by_label(g, label))
            assert np.array_equal(spectrum(g, label).eigenvalues, fresh.eigenvalues)
