import numpy as np
import pytest

from graphspec import operators, spectra
from graphspec.combinatorial import fiedler_bounds, friedman_bounds
from graphspec.comparisons import run_all
from graphspec.graph import NotApplicable
from graphspec.operators import SelfAdjointOperator, full_laplacian
from graphspec.rigidity import ALL_RIGIDITY
from graphspec.spectra import spectrum, symmetric_eigvalsh, weighted_singular_values
from graphspec.fixtures import random_graph

from builders import complete_bipartite, path_graph
from oracle import (
    MAX_EIG_DIM,
    TooLarge,
    eigen_bruteforce,
    self_adjointness_defect,
)


def random_operator(rng, n):
    """A random measure-self-adjoint operator: M^{-1/2} S M^{-1/2}-style."""
    m = rng.uniform(0.5, 2.0, n)
    s = rng.normal(size=(n, n))
    s = 0.5 * (s + s.T)
    d = np.sqrt(m)
    # A = M^{-1/2} S M^{1/2} is self-adjoint for the m-inner product
    mat = s * d[None, :] / d[:, None]
    return SelfAdjointOperator(mat, m), m


def test_random_operator_is_self_adjoint():
    rng = np.random.default_rng(0)
    op, m = random_operator(rng, 5)
    assert self_adjointness_defect(op.matrix, m) <= 1e-12


class TestEigensolve:
    def test_p3_full_spectrum(self, p3_two_ends):
        w = spectrum(p3_two_ends, "FullLaplacian")
        assert np.abs(w - [0.0, 1.0, 3.0]).max() <= 1e-12

    def test_p3_one_end_dirichlet(self, p3_one_end):
        lam = spectrum(p3_one_end, "DirichletLaplacian")
        expect = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
        assert np.abs(lam - expect).max() <= 1e-12

    def test_p3_one_end_neumann(self, p3_one_end):
        nu = spectrum(p3_one_end, "NeumannLaplacian")
        assert np.abs(nu - [0.0, 2.0]).max() <= 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            op, m = random_operator(rng, int(rng.integers(2, 9)))
            w = spectra._eigenvalues(op.matrix, m)
            trace = float(np.trace(op.matrix))
            assert abs(w.sum() - trace) <= 1e-9 * max(1.0, abs(trace))

    def test_matches_bruteforce_oracle(self, corpus):
        # the solve behind spectrum and weighted_singular_values, on random
        # operators and on every corpus operator the oracle can take
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            op, m = random_operator(rng, n)
            got = spectra._eigenvalues(op.matrix, m)
            want = eigen_bruteforce(op.matrix, m)
            assert np.abs(got - want).max() <= 1e-7
        checked = 0
        for g in corpus:
            solved = [(spectrum(g, label), operators.operator_by_label(g, label))
                      for label in operators.BUILDERS]
            coupling = SelfAdjointOperator(operators.neumann_coupling(g),
                                           g.measure[g.interior])
            solved.append((weighted_singular_values(g), coupling))
            for got, op in solved:
                if op.matrix.shape[0] > MAX_EIG_DIM:
                    continue
                want = eigen_bruteforce(op.matrix, op.inner_measure)
                if op is coupling:
                    want = np.clip(want, 0.0, None)
                scale = max(1.0, float(np.abs(want).max(initial=0.0)))
                assert np.abs(got - want).max(initial=0.0) <= 1e-7 * scale
                checked += 1
        assert checked > 0

    def test_empty_and_scalar(self):
        assert spectra._eigenvalues(np.empty((0, 0)), np.empty(0)).size == 0
        w = spectra._eigenvalues(np.array([[7.0]]), np.array([4.0]))
        assert w[0] == pytest.approx(7.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_operator_raises(self, bad):
        mat = np.array([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(NotApplicable):
            spectra._eigenvalues(mat, np.ones(2))

    def test_stacked_eigenvalues_are_each_matrix_alone(self):
        # one stacked call gives each matrix the numbers it gets alone, and
        # the eigenvalues of the solver with vectors up to rounding
        rng = np.random.default_rng(27)
        stack = rng.normal(size=(5, 4, 4))
        stack = stack + stack.transpose(0, 2, 1)
        got = symmetric_eigvalsh(stack)
        for matrix, eigs in zip(stack, got):
            assert eigs.tolist() == symmetric_eigvalsh(matrix[None])[0].tolist()
            assert np.abs(eigs - np.linalg.eigh(matrix)[0]).max() <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stacked_solver_refuses_nonfinite_input(self, bad):
        stack = np.zeros((3, 2, 2))
        stack[2, 1, 0] = bad
        with pytest.raises(NotApplicable, match="non-finite"):
            symmetric_eigvalsh(stack)

    def test_stacked_solver_failure_is_a_convergence_error(self, monkeypatch):
        def fail(matrices):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NotApplicable, match="did not converge"):
            symmetric_eigvalsh(np.eye(2)[None])

    def test_oracle_refuses_large_input(self):
        with pytest.raises(TooLarge):
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
        assert sing[0] == pytest.approx(2.0, abs=1e-12)
        assert sing[-1] == pytest.approx(2.0, abs=1e-12)

    def test_p3_one_end(self, p3_one_end):
        sing = weighted_singular_values(p3_one_end)
        assert np.abs(sing - [0.0, 1.0]).max() <= 1e-12

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(4)
        from graphspec.graph import boundary_degree_vector

        for _ in range(20):
            g = random_graph(rng, 10)
            s2 = weighted_singular_values(g)
            assert s2.min() >= 0.0
            assert s2.max() <= boundary_degree_vector(g).max() + 1e-9


def symmetrized(matrix, measure):
    """The symmetric part of M^{1/2} A M^{-1/2}, the matrix whose eigenvalues
    the spectra are."""
    d = np.sqrt(measure)
    s = (d[:, None] * matrix) / d[None, :]
    return 0.5 * (s + s.T)


def sized_graphs():
    """Graphs of 16 to 64 vertices, unit and lognormal."""
    rng = np.random.default_rng(25)
    graphs = []
    for max_v in (24, 40, 64):
        for model in ("unit", "unit", "lognormal", "lognormal"):
            g = random_graph(rng, max_v, weight_model=model)
            while g.vertex_count < 16:
                g = random_graph(rng, max_v, weight_model=model)
            graphs.append(g)
    return graphs


class TestSolvedOncePerGraph:
    def graphs(self):
        rng = np.random.default_rng(23)
        return [complete_bipartite(2, 2), path_graph(5, boundary=[0, 4])] + [
            random_graph(rng, 10, weight_model=model)
            for model in ("unit", "unit", "lognormal", "lognormal")
        ]

    def test_certificates_share_one_solve_per_operator(self, monkeypatch):
        solved = []
        solve_values = spectra.symmetric_eigvalsh

        def spy(matrices):
            solved.append(matrices)
            return solve_values(matrices)

        # every solve inside spectra goes through this name; the solves of
        # curvature forms and path bounds elsewhere do not
        monkeypatch.setattr(spectra, "symmetric_eigvalsh", spy)
        for g in self.graphs():
            solved.clear()
            run_all(g)
            for check in ALL_RIGIDITY.values():
                try:
                    check(g)
                except NotApplicable:
                    pass
            for bounds in (fiedler_bounds, friedman_bounds):
                try:
                    bounds(g)
                except NotApplicable:
                    pass
            expected = {
                label: symmetrized(op.matrix, op.inner_measure)
                for label, op in ((label, operators.operator_by_label(g, label))
                                  for label in operators.BUILDERS)
            }
            expected["coupling"] = symmetrized(operators.neumann_coupling(g),
                                               g.measure[g.interior])
            # the solves are of these five matrices, each once (two of them
            # can be equal: on a path, the Neumann and interior operators)
            assert len(solved) == len(expected)
            for m in expected.values():
                assert (sum(np.array_equal(m, other) for other in solved)
                        == sum(np.array_equal(m, other) for other in expected.values()))
            spectra_on_memo = [key[1] for key in g._derived if key[0] == "spectrum"]
            assert sorted(spectra_on_memo) == sorted(operators.BUILDERS)

    def test_cached_spectra_are_read_only(self):
        g = path_graph(4, boundary=[0])
        spec = spectrum(g, "NeumannLaplacian")
        sing = weighted_singular_values(g)
        assert spectrum(g, "NeumannLaplacian") is spec
        assert weighted_singular_values(g) is sing
        for arr in (spec, sing):
            assert type(arr) is np.ndarray
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_spectrum_matches_a_fresh_solve(self):
        # bit for bit, a fresh values-only solve of the symmetrized operator
        g = random_graph(np.random.default_rng(24), 9, weight_model="lognormal")
        for label in operators.BUILDERS:
            op = operators.operator_by_label(g, label)
            fresh = symmetric_eigvalsh(symmetrized(op.matrix, op.inner_measure))
            assert np.array_equal(spectrum(g, label), fresh)
        coupling = symmetrized(operators.neumann_coupling(g), g.measure[g.interior])
        assert np.array_equal(weighted_singular_values(g),
                              np.clip(symmetric_eigvalsh(coupling), 0.0, None))

    def test_spectrum_is_within_the_a_priori_radius_of_eigensolve(self, corpus):
        # LAPACK's error bound n eps max|theta| for a symmetric eigensolver:
        # the values-only solve lies within it of the eigenpair solve of the
        # same matrix
        for g in [*corpus, *sized_graphs()]:
            for label in operators.BUILDERS:
                op = operators.operator_by_label(g, label)
                pairs = np.linalg.eigh(symmetrized(op.matrix, op.inner_measure))[0]
                radius = pairs.size * np.finfo(float).eps * np.abs(pairs).max(initial=0.0)
                assert np.abs(spectrum(g, label) - pairs).max(initial=0.0) <= radius
