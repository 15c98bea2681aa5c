import numpy as np
import pytest

from graphspec.comparisons import (
    ALL_COMPARISONS,
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
