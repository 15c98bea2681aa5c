from fractions import Fraction

import numpy as np
import pytest

from graphspec.comparisons import (
    DEFAULT_TOL,
    EQUALITY_TOL,
    compare_dirichlet_interior,
    compare_laplacian_dirichlet,
    run_all,
)
from graphspec.curvature import LICHNEROWICZ_VARIANTS, certify_lichnerowicz
from graphspec.fixtures import random_graph
from graphspec.graph import WeightedBoundaryGraph, validate
from graphspec.rigidity import (
    ALL_RIGIDITY,
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

from builders import (
    BICONDITIONAL_BUILDERS,
    complete_bipartite,
    dirichlet_neumann_negative,
    dirichlet_neumann_positive,
    float_range_graph,
    float_range_rho_graph,
    laplacian_dirichlet_recipe,
    neumann_equality_recipe,
    path_graph,
    rho_factorized_graph,
    rigidity_overflow_graph,
)
from oracle import boundary_influence_exact, quadratic_form_min_eig


class TestRhoFactorization:
    def test_k22_unit(self, k22):
        fact = detect_rho_factorization(k22)
        assert fact.holds and fact.constant
        assert np.abs(np.ldexp(*fact.rho_split) - 1.0).max() <= 1e-12

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
        assert np.abs(np.ldexp(*fact.rho_split) - 3.0).max() <= 1e-12

    # scaling boundary vertex b's weights by 1 + eps keeps the fit exact and
    # gives rho V_B a relative spread of about eps, which reads constant
    # exactly when it is within the checker's tol
    @pytest.mark.parametrize("eps, tol, constant", [
        (1e-10, 1e-12, False), (1e-8, 1e-7, True), (1e-10, 1e-7, True), (1e-8, 1e-12, False),
    ])
    def test_constancy_is_decided_at_tol(self, eps, tol, constant):
        neumann = _boundary_scaled(neumann_equality_recipe(2, 3), 1, 1.0 + eps)
        fact = detect_rho_factorization(neumann, tol)
        assert fact.holds and fact.constant == constant
        names = {c.name for c in check_neumann_laplacian_rigidity(neumann, tol).conditions}
        assert ("rho_constant_bound" in names) == constant
        assert ({"strict_bound", "quadratic_form_psd"} <= names) == (not constant)
        lap_diri = _boundary_scaled(laplacian_dirichlet_recipe(2, 2, 3), 0, 1.0 + eps)
        report = check_laplacian_dirichlet_rigidity(lap_diri, tol)
        assert report.condition("rho_factorization").holds
        assert ("interior_gap" in {c.name for c in report.conditions}) == constant

    @pytest.mark.parametrize("bump", [1.0, 1.0 + 1e-3])
    def test_constancy_across_the_float_range(self, bump):
        # w_xy = m_x with m_Omega = 1, so rho = 1, times ``bump`` at boundary
        # vertex 0, on boundary measures 10^U(-300, 300): m_B spans more than
        # the float range.  The referee is rho's relative spread in exact
        # rationals, from the weights and measures as stored
        rng = np.random.default_rng(0)
        for _ in range(200):
            nb, nom = (int(k) for k in rng.integers(2, 4, size=2))
            m = np.concatenate((10.0 ** rng.uniform(-300.0, 300.0, nb), np.ones(nom)))
            w = np.zeros((nb + nom, nb + nom))
            w[:nb, nb:] = m[:nb, None]
            g = _boundary_scaled(WeightedBoundaryGraph(measure=m, weights=w + w.T,
                                                       boundary=np.arange(nb)), 0, bump)
            validate(g)
            rho = [Fraction(g.weights[x, nb]) / (Fraction(m[x]) * Fraction(m[nb]))
                   for x in range(nb)]
            spread = (max(rho) - min(rho)) / max(rho)
            fact = detect_rho_factorization(g)
            assert fact.holds and fact.constant == (spread <= Fraction(DEFAULT_TOL))
            assert fact.constant == (bump == 1.0)

    # w_0y / m_y = 1e-310 / 1e100 underflows, so r_0 = 0, while rho_0 =
    # 1e-410 / m_0 is within the float range; the fit holds (residual 1e-310
    # against weight 1e-100).  At m_0 = 1e-210 rho = (1e-200, 1e-200) is
    # constant, at m_0 = 1e-300 rho = (1e-110, 1e-200) is not
    @pytest.mark.parametrize("m_0, constant", [(1e-210, True), (1e-300, False)])
    def test_constancy_where_r_underflows(self, m_0, constant):
        w = np.zeros((4, 4))
        w[0, 2:], w[1, 2:] = 1e-310, 1e-100
        g = WeightedBoundaryGraph(measure=np.array([m_0, 1.0, 1e100, 1e100]),
                                  weights=w + w.T, boundary=np.array([0, 1]))
        validate(g)
        fact = detect_rho_factorization(g)
        assert fact.rho_mass[0] == 0.0
        assert fact.holds and fact.constant == constant
        rho = np.ldexp(*fact.rho_split)
        assert rho[1] == pytest.approx(1e-200, rel=1e-12, abs=0.0)
        assert rho[0] == pytest.approx(1e-200 if constant else 1e-110, rel=1e-12, abs=0.0)

    # G4: w_xy = 1e-310 from B = {0, 1} (m = 1) to Omega (m = 1e100), so
    # rho = 1e-410 and r_x = rho_x m_x underflow at both boundary vertices.
    # The residual is formed from r_x's mantissa and exponent, so the exact
    # fit holds with rho constant, and a weight off by 1e-3 fails it
    @pytest.mark.parametrize("bump", [1.0, 1.0 + 1e-3])
    def test_fit_on_G4_where_every_r_underflows(self, bump):
        g4 = rigidity_overflow_graph("G4")
        w = g4.weights.copy()
        w[0, 2] *= bump
        w[2, 0] *= bump
        g = WeightedBoundaryGraph(measure=g4.measure, weights=w, boundary=g4.boundary)
        validate(g)
        fact = detect_rho_factorization(g)
        assert (fact.holds, fact.constant) == ((True, True) if bump == 1.0 else (False, False))
        assert fact.rho_mass.tolist() == [0.0, 0.0]
        if bump == 1.0:
            assert np.ldexp(*fact.rho_split).tolist() == [0.0, 0.0]  # 1e-410
            assert fact.rho_times(1e100) == pytest.approx(1e-310, rel=1e-12, abs=0.0)


def _boundary_scaled(graph, b, factor):
    """``graph`` with every weight at boundary vertex ``b`` times ``factor``."""
    w = graph.weights.copy()
    w[b] *= factor
    w[:, b] *= factor
    return WeightedBoundaryGraph(measure=graph.measure, weights=w, boundary=graph.boundary)


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


def test_rho_family_across_the_float_range_warns_of_nothing():
    # NeuVsLap and LapVsDiri on the first 300 valid draws: an overflow
    # warning fails this suite (filterwarnings = error), and the only
    # exceptions allowed are the two out-of-scope ones.  300 draws reach an
    # r (V_B / m_B) that overflows (draws 144 and 262) and an overflowing
    # NeuVsLap quadratic form (draw 216, out of scope)
    rng = np.random.default_rng(2)
    drawn = 0
    while drawn < 300:
        g = float_range_rho_graph(rng)
        if g is None:
            continue
        drawn += 1
        for check in (check_neumann_laplacian_rigidity, check_laplacian_dirichlet_rigidity):
            try:
                check(g)
            except NotApplicable:
                pass


class TestDirichletInterior:
    def test_k22_constant_boundary_degree(self, k22):
        report = check_dirichlet_interior_rigidity(k22)
        assert report.conclusion and report.equality_observed and report.consistent

    def test_conditions_are_read_by_name(self, k22):
        report = check_dirichlet_interior_rigidity(k22)
        assert report.condition("boundary_degree_constant") is report.conditions[0]
        with pytest.raises(KeyError, match="no_such_condition"):
            report.condition("no_such_condition")

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

    def test_small_boundary_measure_keeps_interior_tolerance(self):
        # m_0 = 1e-8 makes Deg(0) = 1e8, but lambda, mu(Omega) and Deg_b do not
        # see m_0; a tolerance sized by Deg(0) (10 here) would call every
        # index equal and contradict the nonconstant Deg_b = (1, 0)
        g = path_graph(3, boundary=[0], measure=[1e-8, 1.0, 1.0])
        cert = compare_dirichlet_interior(g, EQUALITY_TOL)
        assert cert.tolerance == EQUALITY_TOL * 2.0  # max Deg over Omega
        assert cert.equality_indices() == ()
        report = check_dirichlet_interior_rigidity(g)
        assert not report.conclusion and not report.equality_observed
        assert report.consistent


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

    def test_influence_constancy_matches_exact_rationals(self):
        """The checker's constancy of s(z), read off the Neumann coupling's
        diagonal, is the constancy of s(z) in exact rationals, on the 900
        first valid draws of ``float_range_graph(default_rng(5))`` and on
        100 draws of each DiriVsNeuTwoSided family.  A float-range draw is
        judged where every exact s(z) is 0 or at least the least subnormal:
        540 of the 900.  Of the other 360, 62 read constant against a
        non-constant exact s, since every float s(z) reads 0 there, as it
        did with the weights' formula this diagonal replaced."""
        least = Fraction(np.nextafter(0.0, 1.0))

        def agrees(g, s):
            exact = max(s) - min(s) <= Fraction(EQUALITY_TOL) * max(s)
            report = check_dirichlet_neumann_rigidity(g)
            return report.condition("boundary_influence_constant").holds == exact

        rng = np.random.default_rng(5)
        drawn = judged = 0
        while drawn < 900:
            g = float_range_graph(rng)
            if g is None:
                continue
            drawn += 1
            s = boundary_influence_exact(g)
            if all(v == 0 or v >= least for v in s):
                judged += 1
                assert agrees(g, s), drawn
        assert judged == 540
        rng = np.random.default_rng(2026)
        for build in (dirichlet_neumann_positive, dirichlet_neumann_negative):
            for _ in range(100):
                g = build(rng)
                assert agrees(g, boundary_influence_exact(g))


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

    def test_full_equality_is_reported_as_an_anomaly(self):
        # tiny interior measures put max Deg, and so the tolerance, at 20,
        # far above the real margins 0.72 and 0.28: every index reads equal.
        # ROADMAP item 2 (tolerance at the compared values' scale) will
        # revisit this input
        g = path_graph(3, boundary=[0], measure=[1.0, 1e-8, 1e-8])
        cert = compare_laplacian_dirichlet(g, EQUALITY_TOL)
        assert cert.verdict == "FailsAt"
        assert cert.extra["full_equality_anomaly"] is True
        report = check_laplacian_dirichlet_rigidity(g)
        assert [c.name for c in report.conditions] == ["full_equality_anomaly"]
        assert report.conclusion is False
        assert report.consistent is False

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
        with pytest.raises(NotApplicable, match="no characterization applies"):
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

    def test_boundary_weights_are_tested_at_measures_near_the_float_range(self):
        # B = {0}, Omega = {1, 2}, every Deg = 1: m_0 m_1 overflows, so the
        # target m_0 m_1 / V_Omega = 0.667e300 must be formed without it to
        # see that w_01 = 0.75e300 misses it
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.75e300
        w[0, 2] = w[2, 0] = w[1, 2] = w[2, 1] = 0.25e300
        g = WeightedBoundaryGraph(measure=np.array([1e300, 1e300, 0.5e300]), weights=w,
                                  boundary=np.array([0]))
        validate(g)
        assert g.is_normalized()
        report = check_corollary_normalized(g)
        assert not report.condition("boundary_weights_are_m_outer_over_volume").holds

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


def _outcome(check, graph):
    """A checker's verdict triple, or the name of the exception it raised."""
    try:
        report = check(graph)
    except NotApplicable as exc:
        return type(exc).__name__
    return report.conclusion, report.equality_observed, report.consistent


@pytest.fixture(scope="module")
def scale_base():
    """100 seeded graphs and six recipe graphs, each with every checker's
    outcome at unit scale."""
    rng = np.random.default_rng(7)
    graphs = [random_graph(rng, 12) for _ in range(100)]
    graphs += [neumann_equality_recipe(*a) for a in [(1, 3), (2, 3), (3, 4)]]
    graphs += [laplacian_dirichlet_recipe(*a) for a in [(1, 2, 3), (2, 3, 2), (3, 3, 3)]]
    return [(g, {name: _outcome(check, g) for name, check in ALL_RIGIDITY.items()})
            for g in graphs]


def _scaled(graph, t, scaled):
    """``graph`` with its weights times ``t`` or its measure over ``t``: both
    multiply every spectrum, every degree and every curvature by ``t``."""
    if scaled == "weights":
        return WeightedBoundaryGraph(measure=graph.measure, weights=t * graph.weights,
                                     boundary=graph.boundary)
    return WeightedBoundaryGraph(measure=graph.measure / t, weights=graph.weights,
                                 boundary=graph.boundary)


def _lichnerowicz(graph, variant):
    try:
        return certify_lichnerowicz(graph, variant, n=4.0)
    except NotApplicable:
        return None


@pytest.fixture(scope="module")
def lichnerowicz_base(scale_base):
    """The first 30 seeded graphs, each with its six Lichnerowicz
    certificates (None where NotApplicable) at unit scale."""
    return [(g, {v: _lichnerowicz(g, v) for v in LICHNEROWICZ_VARIANTS})
            for g, _ in scale_base[:30]]


SCALES = [1e-8, 1e-4, 1e-2, 1e2, 1e4, 1e8]


class TestScaleInvariance:
    # t w and m / t multiply every spectrum, every degree and every curvature
    # by t, and with them every tolerance, tol * max Deg for the certificates
    # and the size of the compared values for each structural test; so no
    # verdict depends on the unit, below 1 as above it
    @pytest.mark.parametrize("t", SCALES)
    @pytest.mark.parametrize("scaled", ["weights", "measure"])
    def test_reports_survive_scaling(self, scale_base, t, scaled):
        for g, base in scale_base:
            h = _scaled(g, t, scaled)
            for name, check in ALL_RIGIDITY.items():
                got = _outcome(check, h)
                if "Corollary" in name:
                    # unit weight and Deg = 1 do not survive scaling
                    assert got == "NotApplicable" or (
                        got == base[name] and got[2] is not False), (name, base[name], got)
                else:
                    assert got == base[name], (name, base[name], got)

    @pytest.mark.parametrize("t", SCALES)
    @pytest.mark.parametrize("scaled", ["weights", "measure"])
    def test_lichnerowicz_survives_scaling(self, lichnerowicz_base, t, scaled):
        applicable = 0
        for g, base in lichnerowicz_base:
            h = _scaled(g, t, scaled)
            for variant, want in base.items():
                got = _lichnerowicz(h, variant)
                assert (got is None) == (want is None), (variant, want, got)
                if got is None:
                    continue
                applicable += 1
                assert (got.verdict, got.failing_indices) == (
                    want.verdict, want.failing_indices), variant
                bound = got.extra["bound"]
                assert abs(bound - t * want.extra["bound"]) <= got.tolerance, variant
        assert applicable > 0

    @pytest.mark.parametrize("t", [1e-8, 1e-4, 1e4])
    def test_boundary_measure_leaves_interior_results(self, scale_base, lichnerowicz_base, t):
        # the Dirichlet, Neumann and interior spectra, Deg_b and the interior's
        # curvature do not depend on the boundary measures, so neither may the
        # certificates and characterizations built from them alone, tolerance
        # included, however large the boundary's own Deg becomes
        interior_only = ["DiriVsInteriorTwoSided", "NeuVsInterior", "DiriVsNeuTwoSided"]
        for k, (g, base) in enumerate(scale_base):
            m = g.measure.copy()
            m[g.boundary] *= t
            h = WeightedBoundaryGraph(measure=m, weights=g.weights, boundary=g.boundary)
            want = {c.theorem_id: c for c in run_all(g, EQUALITY_TOL)}
            got = {c.theorem_id: c for c in run_all(h, EQUALITY_TOL)}
            for name in interior_only:
                a, b = want[name], got[name]
                assert (b.verdict, b.failing_indices, b.equality_indices(), b.tolerance) == (
                    a.verdict, a.failing_indices, a.equality_indices(), a.tolerance), name
                assert _outcome(ALL_RIGIDITY[name], h) == base[name], name
            if k < len(lichnerowicz_base):
                for variant in ("be-interior", "ollivier-interior"):
                    a, b = lichnerowicz_base[k][1][variant], _lichnerowicz(h, variant)
                    assert (a is None) == (b is None), variant
                    if a is not None:
                        assert (b.verdict, b.failing_indices, b.tolerance) == (
                            a.verdict, a.failing_indices, a.tolerance), variant


def _relabelled(graph, rng):
    """``graph`` with its vertices renamed by a random permutation: new
    vertex i is old vertex order[i]."""
    order = rng.permutation(graph.vertex_count)
    return WeightedBoundaryGraph(measure=graph.measure[order],
                                 weights=graph.weights[np.ix_(order, order)],
                                 boundary=np.argsort(order)[graph.boundary])


def _report_outcome(check, graph):
    """A checker's verdicts and condition outcomes, or the exception it
    raised."""
    try:
        report = check(graph)
    except NotApplicable as exc:
        return type(exc).__name__, str(exc)
    return (report.conclusion, report.equality_observed, report.consistent,
            tuple((c.name, c.holds) for c in report.conditions))


class TestRelabelling:
    def test_vertex_permutation_keeps_every_result(self, corpus, corpus_certificates):
        # every certificate and characterization is a statement about the
        # spectra and the structure, so renaming the vertices changes none,
        # at unit scale and with the weights or the measure scaled by 1e-4
        rng = np.random.default_rng(2)
        for scaled in (None, "weights", "measure"):
            for g, certs in zip(corpus, corpus_certificates):
                if scaled is not None:
                    g = _scaled(g, 1e-4, scaled)
                    certs = run_all(g)
                h = _relabelled(g, rng)
                for a, b in zip(certs, run_all(h)):
                    assert (a.theorem_id, a.verdict, a.failing_indices,
                            a.equality_indices()) == (b.theorem_id, b.verdict,
                                                      b.failing_indices, b.equality_indices())
                    for ra, rb in zip(a.per_index, b.per_index, strict=True):
                        assert abs(ra.margin - rb.margin) <= a.tolerance
                for name, check in ALL_RIGIDITY.items():
                    assert _report_outcome(check, g) == _report_outcome(check, h), (name, scaled)
