import numpy as np
import pytest

from graphspec.comparisons import EQUALITY_TOL
from graphspec.fixtures import (
    complete_bipartite,
    laplacian_dirichlet_recipe,
    neumann_equality_recipe,
    path_graph,
)
from graphspec.graph import WeightedBoundaryGraph, validate
from graphspec.rigidity import (
    ALL_RIGIDITY,
    EqualityPatternUnsupported,
    NotApplicable,
    check_corollary_normalized,
    check_corollary_unit_weight,
    check_dirichlet_interior_rigidity,
    check_dirichlet_neumann_rigidity,
    check_laplacian_dirichlet_rigidity,
    check_neumann_interior_rigidity,
    check_neumann_laplacian_rigidity,
    detect_rho_factorization,
)

from builders import BICONDITIONAL_BUILDERS, rho_factorized_graph
from oracle import quadratic_form_min_eig


class TestRhoFactorization:
    def test_k22_unit(self, k22):
        fact = detect_rho_factorization(k22)
        assert fact.holds and fact.constant
        assert np.abs(fact.rho - 1.0).max() <= 1e-12

    def test_missing_edge_witnessed(self, p3_one_end):
        fact = detect_rho_factorization(p3_one_end)
        assert not fact.holds
        assert fact.missing_edge == (2, 0)  # boundary v2 not adjacent to v0

    def test_constructed_rho_three(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0.5, 2.0, 5)
        w = np.zeros((5, 5))
        for x in range(2):  # boundary
            for y in range(2, 5):
                w[x, y] = w[y, x] = 3.0 * m[x] * m[y]
        g = WeightedBoundaryGraph(measure=m, weights=w, boundary=np.array([0, 1]))
        fact = detect_rho_factorization(g)
        assert fact.holds and fact.residual <= 1e-12
        assert np.abs(fact.rho - 3.0).max() <= 1e-12


class TestNeumannLaplacian:
    def test_recipe_conclusion_true_and_equality_observed(self):
        g = neumann_equality_recipe(2, 3)
        report = check_neumann_laplacian_rigidity(g)
        assert report.conclusion and report.equality_observed and report.consistent

    def test_p3_one_end_fails_factorization(self, p3_one_end):
        report = check_neumann_laplacian_rigidity(p3_one_end)
        assert not report.conclusion
        assert not report.condition("rho_factorization").holds
        assert not report.equality_observed  # nu_2 = 2 > mu_2 = 1
        assert report.consistent

    def test_k22_unit_specialization(self, k22):
        report = check_neumann_laplacian_rigidity(k22)
        assert report.conclusion and report.consistent
        assert report.condition("unit_weight_bound").holds

    def test_corpus_biconditional(self, corpus):
        for g in corpus:
            report = check_neumann_laplacian_rigidity(g)
            assert report.consistent, report

    def test_single_interior_vertex_not_applicable(self, p3_two_ends):
        # the only index is nu_1 = mu_1 = 0, an equality on every graph
        with pytest.raises(NotApplicable, match="two interior vertices"):
            check_neumann_laplacian_rigidity(p3_two_ends)


@pytest.fixture(scope="module")
def rho_factorized_reports():
    """NeuVsLap on 400 seeded graphs whose boundary weights factor with
    distinct rho_x: the strict-bound and quadratic-form branch."""
    rng = np.random.default_rng(31)
    graphs = [rho_factorized_graph(rng, ("unit", "lognormal")[k % 2]) for k in range(400)]
    return [(g, check_neumann_laplacian_rigidity(g)) for g in graphs]


class TestNeumannLaplacianNonConstantRho:
    def test_conclusion_matches_observed_equality(self, rho_factorized_reports):
        concluded = 0
        for g, report in rho_factorized_reports:
            assert report.condition("rho_factorization").holds
            assert report.consistent, report
            concluded += report.conclusion
        # both verdicts occur, so neither side of the cross-check is vacuous
        assert 20 <= concluded <= 380

    def test_quadratic_form_matches_projector_construction(self, rho_factorized_reports):
        tol = EQUALITY_TOL
        for g, report in rho_factorized_reports:
            y = int(g.interior[0])
            rho = np.array([g.weights[x, y] / (g.measure[x] * g.measure[y]) for x in g.boundary])
            want, scale = quadratic_form_min_eig(
                g.measure, g.boundary, rho, report.extra["mu_top_interior"]
            )
            cond = report.condition("quadratic_form_psd")
            if np.isinf(want):
                assert cond.witness == want and not cond.holds
                continue
            assert abs(cond.witness - want) <= 1e-12 * scale
            if abs(want + tol * scale) > 1e-12 * scale:
                assert cond.holds == (want >= -tol * scale)


class TestDirichletInterior:
    def test_k22_constant_boundary_degree(self, k22):
        report = check_dirichlet_interior_rigidity(k22)
        assert report.conclusion and report.equality_observed and report.consistent

    def test_p3_one_end_nonconstant(self, p3_one_end):
        report = check_dirichlet_interior_rigidity(p3_one_end)
        assert not report.conclusion  # Deg_b is 0 on v0, 1 on v1
        assert report.consistent

    def test_perturbation_breaks_constancy(self, k22):
        w = k22.weights.copy()
        w[0, 2] *= 1.1
        w[2, 0] = w[0, 2]
        g = WeightedBoundaryGraph(measure=k22.measure, weights=w, boundary=k22.boundary)
        report = check_dirichlet_interior_rigidity(g)
        assert not report.conclusion and report.consistent

    def test_corpus_biconditional(self, corpus):
        for g in corpus:
            assert check_dirichlet_interior_rigidity(g).consistent


class TestNeumannInterior:
    def test_p3_one_end_single_neighbor(self, p3_one_end):
        report = check_neumann_interior_rigidity(p3_one_end)
        assert report.conclusion and report.equality_observed and report.consistent

    def test_p3_two_ends_single_neighbor(self, p3_two_ends):
        report = check_neumann_interior_rigidity(p3_two_ends)
        assert report.conclusion and report.consistent

    def test_k22_two_neighbors_each(self, k22):
        report = check_neumann_interior_rigidity(k22)
        assert not report.conclusion
        assert report.condition("one_interior_neighbor_each").witness == 0
        assert report.consistent

    def test_corpus_biconditional(self, corpus):
        for g in corpus:
            assert check_neumann_interior_rigidity(g).consistent


class TestDirichletNeumann:
    def test_p3_two_ends(self, p3_two_ends):
        report = check_dirichlet_neumann_rigidity(p3_two_ends)
        assert report.conclusion and report.equality_observed and report.consistent

    def test_p5_interior_vertex_without_boundary_neighbor(self):
        g = path_graph(5, boundary=[0, 4])
        report = check_dirichlet_neumann_rigidity(g)
        assert not report.condition("boundary_influence_constant").holds
        assert not report.conclusion and report.consistent

    def test_symmetric_double_pendant_fixture(self):
        # interior edge 0-1, two boundary pendants on each interior vertex
        w = np.zeros((6, 6))
        w[0, 1] = w[1, 0] = 1.0
        for b, z in [(2, 0), (3, 0), (4, 1), (5, 1)]:
            w[b, z] = w[z, b] = 1.0
        g = WeightedBoundaryGraph(
            measure=np.ones(6), weights=w, boundary=np.array([2, 3, 4, 5])
        )
        validate(g)
        report = check_dirichlet_neumann_rigidity(g)
        assert report.conclusion and report.equality_observed and report.consistent

    def test_corpus_biconditional(self, corpus):
        for g in corpus:
            assert check_dirichlet_neumann_rigidity(g).consistent


class TestLaplacianDirichlet:
    def test_k22(self, k22):
        report = check_laplacian_dirichlet_rigidity(k22)
        assert report.extra["j"] == 2
        assert report.condition("interior_components_equal_j").holds
        assert report.condition("rho_factorization").holds
        assert report.condition("lambda_head_equals_rho_mass").holds
        assert report.conclusion

    def test_p3_two_ends_vacuous(self, p3_two_ends):
        report = check_laplacian_dirichlet_rigidity(p3_two_ends)
        assert report.condition("no_equality_indices").holds
        assert report.conclusion and not report.equality_observed

    @pytest.mark.parametrize("j,nb,nom", [(1, 2, 3), (2, 3, 2), (3, 3, 3)])
    def test_recipe_patterns(self, j, nb, nom):
        g = laplacian_dirichlet_recipe(j, nb, nom)
        report = check_laplacian_dirichlet_rigidity(g)
        assert report.extra["j"] == j
        assert report.conclusion

    def test_unsupported_pattern_raises(self):
        # perturbing one boundary weight of the all-equal recipe breaks the
        # equality at two indices at once; that pattern has no
        # characterization and must be refused, not misclassified
        g = laplacian_dirichlet_recipe(3, 3, 3)
        w = g.weights.copy()
        x, y = int(g.boundary[0]), int(g.interior[0])
        w[x, y] *= 1.01
        w[y, x] = w[x, y]
        g2 = WeightedBoundaryGraph(measure=g.measure, weights=w, boundary=g.boundary)
        with pytest.raises(EqualityPatternUnsupported):
            check_laplacian_dirichlet_rigidity(g2)


class TestUnitCorollary:
    def test_k23_boundary_majority(self):
        g = complete_bipartite(3, 2)  # |B| = 3, |Omega| = 2
        report = check_corollary_unit_weight(g)
        assert report.conclusion and report.consistent

    def test_k32_interior_majority(self):
        g = complete_bipartite(2, 3)  # |Omega| = 3 > |B| = 2
        report = check_corollary_unit_weight(g)
        assert not report.conclusion and report.consistent

    def test_k22(self, k22):
        report = check_corollary_unit_weight(k22)
        assert report.conclusion and report.equality_observed and report.consistent

    def test_rejects_weighted_graph(self):
        g = path_graph(3, boundary=[0, 2], weights=[2.0, 1.0])
        with pytest.raises(NotApplicable):
            check_corollary_unit_weight(g)


class TestNormalizedCorollary:
    def test_case1_normalized_k22(self, k22):
        g = WeightedBoundaryGraph(
            measure=k22.measure, weights=k22.weights / 2.0, boundary=k22.boundary
        )
        report = check_corollary_normalized(g)
        assert report.condition("case1_trivial_interior_equal_volumes").holds
        assert report.conclusion and report.consistent

    def test_case2_complete_interior_fixture(self):
        # B = one vertex of measure 0.6, Omega = K3 with unit measures,
        # boundary weights m_x m_y / V_Omega = 0.2, interior weights 0.4:
        # every Deg = 1, Deg_Omega = 0.8 = 1 - V_B/V_Omega, mu_2 = 1.2 >= 1
        w = np.zeros((4, 4))
        w[0, 1:] = w[1:, 0] = 0.2
        for a in range(1, 4):
            for b in range(1, 4):
                if a != b:
                    w[a, b] = 0.4
        g = WeightedBoundaryGraph(
            measure=np.array([0.6, 1.0, 1.0, 1.0]), weights=w, boundary=np.array([0])
        )
        validate(g)
        assert g.is_normalized()
        report = check_corollary_normalized(g)
        assert report.condition("case2_complete_interior").holds
        assert report.conclusion and report.consistent

    def test_uneven_boundary_weights_fail(self):
        # normalized, but boundary weights deviate from m_x m_y / V_Omega
        w = np.zeros((4, 4))
        w[0, 1:] = w[1:, 0] = [0.3, 0.1, 0.2]
        for (a, b), v in {(1, 2): 0.4, (1, 3): 0.3, (2, 3): 0.5}.items():
            w[a, b] = w[b, a] = v
        g = WeightedBoundaryGraph(
            measure=np.array([0.6, 1.0, 1.0, 1.0]), weights=w, boundary=np.array([0])
        )
        assert g.is_normalized()
        report = check_corollary_normalized(g)
        assert not report.condition("boundary_weights_are_m_outer_over_volume").holds
        assert not report.conclusion and report.consistent

    def test_rejects_unnormalized(self, k22):
        with pytest.raises(NotApplicable):
            check_corollary_normalized(k22)


class TestBiconditionalFixtures:
    @pytest.mark.parametrize("theorem", sorted(BICONDITIONAL_BUILDERS))
    def test_positive_and_negative_fixtures(self, theorem):
        build_pos, build_neg = BICONDITIONAL_BUILDERS[theorem]
        check = ALL_RIGIDITY[theorem]
        rng = np.random.default_rng(123)
        for _ in range(5):
            pos = check(build_pos(rng))
            assert pos.conclusion and pos.equality_observed and pos.consistent
            neg = check(build_neg(rng))
            assert not neg.conclusion and not neg.equality_observed
            assert neg.consistent
