"""End-to-end acceptance suite.

Each test prints one PASS line on success so the run log reads as a
criterion-by-criterion report.  The audit corpus (criterion 1) is rebuilt
and timed inside its own test; later criteria that quantify over "every
audited graph" reuse the session corpus fixture, which is generated with
the same seed and is therefore identical.
"""

import math
import time

import numpy as np
import pytest

from graphspec.combinatorial import edge_connectivity, fiedler_bounds, friedman_bounds
from graphspec.comparisons import (
    compare_laplacian_dirichlet,
    compare_neumann_laplacian,
    run_all,
)
from graphspec.curvature import (
    LICHNEROWICZ_VARIANTS,
    NotApplicable,
    bakry_emery_curvature,
    certify_lichnerowicz,
    ollivier_curvature,
)
from graphspec.fixtures import random_graph
from graphspec.graph import boundary_degree_vector, interior_subgraph
from graphspec.operators import (
    dirichlet_laplacian,
    full_laplacian,
    interior_laplacian,
    neumann_coupling,
    neumann_laplacian,
)
from graphspec.rigidity import (
    ALL_RIGIDITY,
    check_corollary_unit_weight,
    check_neumann_laplacian_rigidity,
)
from graphspec.spectra import _eigenvalues, spectrum, weighted_singular_values

from builders import (
    BICONDITIONAL_BUILDERS,
    laplacian_dirichlet_recipe,
    neumann_equality_recipe,
    path_graph,
)
from conftest import AUDIT_MAX_V, AUDIT_SEED, AUDIT_SIZE
from oracle import cut_bruteforce, eigen_bruteforce, normal_derivative, ollivier_bruteforce
from test_spectra import random_operator


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_comparison_audit():
    """200 seeded random graphs: all five comparison certificates hold."""
    start = time.perf_counter()
    rng = np.random.default_rng(AUDIT_SEED)
    failures = []
    for k in range(AUDIT_SIZE):
        g = random_graph(rng, AUDIT_MAX_V)
        for cert in run_all(g, tol=1e-9):
            if not cert.holds:
                failures.append((k, cert.theorem_id, cert.failing_indices))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 30.0, f"audit took {elapsed:.1f}s"
    report(f"criterion 1 PASS: {AUDIT_SIZE}-graph audit clean in {elapsed:.1f}s")


def test_criterion_2_p3_exact_values(p3_two_ends):
    mu = spectrum(p3_two_ends, "FullLaplacian")
    lam = spectrum(p3_two_ends, "DirichletLaplacian")
    nu = spectrum(p3_two_ends, "NeumannLaplacian")
    s1sq = weighted_singular_values(p3_two_ends)[0]
    assert np.abs(mu - [0.0, 1.0, 3.0]).max() <= 1e-12
    assert abs(lam[0] - 2.0) <= 1e-12
    assert abs(nu[0]) <= 1e-12
    assert abs(s1sq - 2.0) <= 1e-12
    assert abs(lam[0] - (nu[0] + s1sq)) <= 1e-12
    report("criterion 2 PASS: P3 exact spectra and lambda_1 = nu_1 + s_1^2")


def test_criterion_3_k22_exact_values(k22):
    mu = spectrum(k22, "FullLaplacian")
    lam = spectrum(k22, "DirichletLaplacian")
    assert np.abs(mu - [0.0, 2.0, 2.0, 4.0]).max() <= 1e-12
    assert np.abs(lam - [2.0, 2.0]).max() <= 1e-12
    cert = compare_laplacian_dirichlet(k22)
    assert cert.equality_indices() == (1,)  # equality at i=1, strict at i=2
    corollary = check_corollary_unit_weight(k22)
    assert corollary.conclusion and corollary.consistent
    rigidity = check_neumann_laplacian_rigidity(k22)
    assert rigidity.conclusion
    nu_cert = compare_neumann_laplacian(k22)
    assert all(abs(r.margin) <= 1e-10 for r in nu_cert.per_index)
    report("criterion 3 PASS: K22 spectra, equality pattern, both rigidity checks")


def test_criterion_4_full_equality_impossible(corpus):
    for g in corpus:
        cert = compare_laplacian_dirichlet(g)
        assert not all(abs(r.margin) <= 1e-7 for r in cert.per_index)
        assert not cert.extra["full_equality_anomaly"]
    report("criterion 4 PASS: no corpus graph equalizes LapVsDiri at every index")


@pytest.mark.parametrize("theorem", sorted(BICONDITIONAL_BUILDERS))
def test_criterion_5_rigidity_biconditionals(theorem):
    build_pos, build_neg = BICONDITIONAL_BUILDERS[theorem]
    check = ALL_RIGIDITY[theorem]
    rng = np.random.default_rng(AUDIT_SEED)
    correct = 0
    for _ in range(20):
        pos = check(build_pos(rng), 1e-7)
        assert pos.conclusion and pos.equality_observed and pos.consistent, theorem
        correct += 1
        neg = check(build_neg(rng), 1e-7)
        assert not neg.conclusion and not neg.equality_observed and neg.consistent, theorem
        correct += 1
    assert correct == 40
    report(f"criterion 5 PASS: {theorem} classified 40/40 fixtures")


@pytest.mark.parametrize("j,nb,nom", [(1, 2, 3), (2, 3, 2), (3, 3, 3)])
def test_criterion_6_recipe_fixtures(j, nb, nom):
    all_equal = neumann_equality_recipe(nb, nom)
    cert = compare_neumann_laplacian(all_equal, tol=1e-9)
    assert cert.holds and cert.all_equal()
    except_j = laplacian_dirichlet_recipe(j, nb, nom)
    cert = compare_laplacian_dirichlet(except_j, tol=1e-9)
    assert cert.holds
    eq = set(cert.equality_indices())
    assert sorted(set(range(1, nom + 1)) - eq) == [j]
    report(f"criterion 6 PASS: recipes (j={j}, |B|={nb}, |Omega|={nom})")


def test_criterion_7_lichnerowicz_certificates(corpus):
    held = 0
    for g in corpus:
        for variant in LICHNEROWICZ_VARIANTS:
            try:
                cert = certify_lichnerowicz(g, variant, n=4.0, tol=1e-9)
            except NotApplicable:
                continue
            assert cert.holds, (variant, cert.failing_indices)
            assert all(r.margin >= -1e-9 * max(1.0, abs(r.lhs)) for r in cert.per_index)
            held += 1
    assert held > 0
    report(f"criterion 7 PASS (certificates): {held} applicable certificates held")


def test_criterion_7_ollivier_oracle_values():
    edge = path_graph(2)
    assert abs(ollivier_curvature(edge, 0, 1) - 2.0) <= 1e-9
    assert abs(ollivier_bruteforce(edge, 0, 1) - 2.0) <= 1e-9
    p3 = path_graph(3)
    assert abs(ollivier_curvature(p3, 0, 1) - 1.0) <= 1e-9
    assert abs(ollivier_bruteforce(p3, 0, 1) - 1.0) <= 1e-9
    report("criterion 7 PASS (oracle): edge and P3 transport curvatures match")


def test_criterion_7_bakry_emery_monotone_in_dimension():
    # CD(K, n) for small n implies it for larger n, so the optimal constant
    # K(x, n) grows with n; check monotonicity along the dimension grid
    grid = [2.0, 3.0, 5.0, 10.0, 1e6, float("inf")]
    rng = np.random.default_rng(AUDIT_SEED)
    for _ in range(20):
        g = random_graph(rng, 7)
        pers = [bakry_emery_curvature(g, n).per_location for n in grid]
        for x in range(g.vertex_count):
            vals = [per[x] for per in pers]
            for a, b in zip(vals, vals[1:]):
                assert a <= b + 1e-8, (vals, grid)
    report("criterion 7 PASS (monotonicity): K(x, n) monotone on the n grid")


def test_criterion_8_combinatorial_bounds(corpus):
    for n in range(3, 9):
        g = path_graph(n, boundary=[n - 1])
        assert fiedler_bounds(g).holds
        assert friedman_bounds(g).holds
    for n in range(3, 9):
        mu2 = spectrum(path_graph(n), "FullLaplacian")[1]
        assert abs(mu2 - 2.0 * (1.0 - math.cos(math.pi / n))) <= 1e-10
    checked = 0
    for g in corpus:
        if not g.is_unit_weight() or g.vertex_count > 8:
            continue
        assert edge_connectivity(g) == cut_bruteforce(g.weights)
        sub = g.weights[np.ix_(g.interior, g.interior)]
        assert edge_connectivity(interior_subgraph(g)) == cut_bruteforce(sub)
        checked += 1
    assert checked > 0
    report(f"criterion 8 PASS: path bounds, tight Fiedler bound, {checked} cut checks")


def test_criterion_9_solver_hygiene(corpus):
    rng = np.random.default_rng(AUDIT_SEED)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        op, m = random_operator(rng, n)
        got = _eigenvalues(op.matrix, m)
        want = eigen_bruteforce(op.matrix, m)
        assert np.abs(got - want).max() <= 1e-7
    for g in corpus:
        lap = full_laplacian(g)
        u = rng.normal(size=g.vertex_count)
        v = rng.normal(size=g.vertex_count)
        du = u[:, None] - u[None, :]
        dv = v[:, None] - v[None, :]
        energy = 0.5 * float((g.weights * du * dv).sum())
        lhs = float(np.sum((lap.matrix @ u) * v * g.measure))
        assert abs(lhs - energy) <= 1e-10 * max(1.0, abs(lhs))
        omega, b = g.interior, g.boundary
        interior_part = float(
            np.sum((lap.matrix @ u)[omega] * v[omega] * g.measure[omega])
        )
        du_dn = normal_derivative(g.measure, g.weights, b, u)
        boundary_term = float(np.sum(du_dn * v[b] * g.measure[b]))
        assert abs(interior_part - (energy - boundary_term)) <= 1e-10 * max(
            1.0, abs(energy)
        )
        diri = dirichlet_laplacian(g).matrix
        scale = max(1.0, float(np.abs(diri).max()))
        ident1 = interior_laplacian(g).matrix + np.diag(boundary_degree_vector(g))
        assert np.abs(diri - ident1).max() <= 1e-10 * scale
        ident2 = diri - neumann_laplacian(g).matrix
        assert np.abs(ident2 - neumann_coupling(g)).max() <= 1e-10 * scale
    report("criterion 9 PASS: oracle agreement, Green's formula, operator identities")
