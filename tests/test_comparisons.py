import numpy as np
import pytest

from graphspec.comparisons import (
    ALL_COMPARISONS,
    DEFAULT_TOL,
    EQUALITY_TOL,
    at_most,
    certificate,
    compare_dirichlet_interior,
    compare_dirichlet_neumann,
    compare_laplacian_dirichlet,
    compare_neumann_interior,
    compare_neumann_laplacian,
    run_all,
)
from graphspec.graph import WeightedBoundaryGraph

from builders import path_graph


class TestP3TwoEnds:
    def test_dirichlet_equals_neumann_plus_s1(self, p3_two_ends):
        cert = compare_dirichlet_neumann(p3_two_ends)
        assert cert.holds
        # lambda_1 = 2 = nu_1 + s_1^2 = 0 + 2
        rec = cert.per_index[0]
        assert rec.lhs == pytest.approx(2.0, abs=1e-12)
        assert rec.rhs == pytest.approx(2.0, abs=1e-12)
        assert cert.all_equal()

    def test_neumann_dominates_laplacian(self, p3_two_ends):
        cert = compare_neumann_laplacian(p3_two_ends)
        assert cert.holds
        assert cert.per_index[0].lhs == pytest.approx(0.0, abs=1e-12)

    def test_laplacian_dirichlet_no_equality(self, p3_two_ends):
        cert = compare_laplacian_dirichlet(p3_two_ends)
        assert cert.holds
        # mu_3 = 3 > lambda_1 = 2
        assert cert.equality_indices() == ()
        assert cert.extra["full_equality_anomaly"] is False


class TestK22:
    def test_all_five_hold(self, k22):
        certs = run_all(k22)
        assert len(certs) == 5
        assert all(c.holds for c in certs)
        assert [c.theorem_id for c in certs] == list(ALL_COMPARISONS)

    def test_laplacian_dirichlet_equality_only_at_first_index(self, k22):
        cert = compare_laplacian_dirichlet(k22)
        # mu = {0,2,2,4}, lambda = {2,2}: equality at i=1, strict at i=2
        assert cert.equality_indices() == (1,)
        assert cert.per_index[1].lhs == pytest.approx(4.0, abs=1e-12)
        assert cert.per_index[1].rhs == pytest.approx(2.0, abs=1e-12)

    def test_dirichlet_interior_equality(self, k22):
        cert = compare_dirichlet_interior(k22)
        assert cert.holds and cert.all_equal()  # Deg_b constant = 2

    def test_neumann_interior_strict(self, k22):
        cert = compare_neumann_interior(k22)
        assert cert.holds
        assert not cert.all_equal()  # nu_2 = 2 > 0 = mu_2(Omega)


class TestP3OneEnd:
    def test_neumann_equals_interior(self, p3_one_end):
        cert = compare_neumann_interior(p3_one_end)
        assert cert.holds and cert.all_equal()

    def test_neumann_beats_full_strictly_at_second_index(self, p3_one_end):
        cert = compare_neumann_laplacian(p3_one_end)
        assert cert.holds
        assert cert.equality_indices() == (1,)
        assert cert.per_index[1].lhs == pytest.approx(2.0, abs=1e-12)
        assert cert.per_index[1].rhs == pytest.approx(1.0, abs=1e-12)


class TestCertificateSemantics:
    def test_two_sided_margin_is_distance_to_nearer_bound(self, p3_one_end):
        cert = compare_dirichlet_interior(p3_one_end)
        for rec in cert.per_index:
            assert rec.margin <= rec.rhs - rec.lhs + 1e-15

    def test_tolerance_scales_equality_detection(self):
        g = path_graph(4, boundary=[0])
        tight = compare_dirichlet_interior(g, tol=1e-15)
        loose = compare_dirichlet_interior(g, tol=1e3)
        assert tight.holds  # true inequality holds at any tolerance
        assert loose.all_equal()
        assert not tight.all_equal()

    # tol * max Deg = 2^-10 * 4 = 2^-8, so every margin below is exact: an
    # index is an equality within 2^-8 of 0, and fails beyond -2^-8
    @pytest.mark.parametrize("margin, equal, verdict", [
        (0.0, True, "Holds"), (1.0, True, "Holds"), (1.5, False, "Holds"),
        (-0.5, True, "Holds"), (-1.0, True, "Holds"), (-1.5, False, "FailsAt"),
    ])
    def test_equality_and_failure_are_decided_at_tol_times_max_deg(self, margin, equal, verdict):
        tol_abs = 2.0 ** -8
        cert = certificate("T", np.array([0.5, 4.0]), 2.0 ** -10, [1.0 + margin * tol_abs], [1.0])
        assert cert.tolerance == tol_abs and cert.per_index[0].margin == margin * tol_abs
        assert cert.per_index[0].equal == equal
        assert cert.verdict == verdict

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, EQUALITY_TOL])
    def test_equal_and_unequal_indices_partition_every_corpus_certificate(self, corpus, tol):
        for g in corpus:
            for cert in run_all(g, tol):
                equal, unequal = cert.equality_indices(), cert.unequal_indices()
                n = len(cert.per_index)
                assert list(equal) == sorted(equal) and list(unequal) == sorted(unequal)
                assert sorted(equal + unequal) == list(range(1, n + 1)), cert.theorem_id
                assert cert.all_equal() == (not unequal)

    def test_corpus_all_certificates_hold(self, corpus_certificates):
        for certs in corpus_certificates:
            for cert in certs:
                assert cert.holds, (cert.theorem_id, cert.failing_indices)

    def test_lognormal_stars_hold_with_neumann_interior_equality(self):
        # with |Omega| = 1, nu_1 = Deg(y) - coupling cancels to within an ulp
        # of mu_1(Omega) = 0; a tolerance scaled by those two spectra alone
        # would shrink to an ulp and reject the equality it should record
        rng = np.random.default_rng(11)
        for _ in range(2000):
            nb = int(rng.integers(1, 9))
            w = np.zeros((nb + 1, nb + 1))
            w[:nb, nb] = w[nb, :nb] = rng.lognormal(size=nb)
            g = WeightedBoundaryGraph(measure=rng.lognormal(size=nb + 1), weights=w,
                                      boundary=np.arange(nb))
            certs = {c.theorem_id: c for c in run_all(g)}
            for cert in certs.values():
                assert cert.holds, (cert.theorem_id, cert.per_index)
            assert certs["NeuVsInterior"].equality_indices() == (1,)


class TestAtMost:
    def test_threshold_strictness_and_margin(self):
        # the threshold is 1 + 0.25 * 2 = 1.5, or 1 - 0.5 = 0.5 when strict
        assert at_most(1.5, 1.0, 0.25, 2.0) == (True, 0.0)
        assert at_most(1.75, 1.0, 0.25, 2.0) == (False, -0.25)
        assert at_most(0.5, 1.0, 0.25, 2.0, strict=True) == (False, 0.0)
        assert at_most(0.25, 1.0, 0.25, 2.0, strict=True) == (True, 0.25)

    def test_nan_holds_in_neither_form(self):
        for strict in (False, True):
            assert not at_most(float("nan"), 0.0, 1.0, 1.0, strict=strict)[0]
            assert not at_most(0.0, float("nan"), 1.0, 1.0, strict=strict)[0]

    def test_arrays_are_decided_elementwise(self):
        holds, margin = at_most(np.array([0.5, 1.5, 2.0]), 1.0, 0.25, 2.0)
        assert holds.tolist() == [True, True, False]
        assert margin.tolist() == [1.0, 0.0, -0.5]

    def test_negated_arguments_round_as_an_at_least_test(self):
        # x >= b - tol * s, decided as -x <= -b + tol * s, on values one ulp
        # either side of the rounded threshold and on it
        rng = np.random.default_rng(0)
        b = rng.lognormal(0.0, 20.0, 5000) * rng.choice([-1.0, 1.0], 5000)
        scale = rng.lognormal(0.0, 20.0, 5000)
        tol = 1e-7
        top = b - tol * scale
        for x in (np.nextafter(top, -np.inf), top, np.nextafter(top, np.inf)):
            want = x >= b - tol * scale
            assert (at_most(-x, -b, tol, scale)[0] == want).all()
