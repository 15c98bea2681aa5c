"""Structural characterizations of the equality cases.

Every comparison inequality has an equality characterization in terms of the
graph's structure (boundary-to-interior weight factorizations, constancy of
degree-like quantities, adjacency patterns).  Each checker evaluates the
structural conditions and reports whether its conclusion agrees with the
observed equality pattern of the matching comparison certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .comparisons import (
    EQUALITY_TOL,
    compare_dirichlet_interior,
    compare_dirichlet_neumann,
    compare_laplacian_dirichlet,
    compare_neumann_interior,
    compare_neumann_laplacian,
)
from .graph import (
    NotApplicable,
    WeightedBoundaryGraph,
    boundary_degree_vector,
    component_count,
    interior_degree_vector,
    interior_subgraph,
    volumes,
)
from .spectra import spectrum, symmetric_eigh


class EqualityPatternUnsupported(RuntimeError):
    """Equality fails at two or more indices; the characterization theorems
    do not cover this pattern."""


@dataclass(frozen=True)
class RhoFactorization:
    """Fit of w_xy = rho_x m_x m_y over all boundary-interior pairs."""

    rho: np.ndarray | None
    residual: float
    holds: bool
    missing_edge: tuple[int, int] | None = None

    @property
    def constant(self) -> bool:
        if self.rho is None or self.rho.size == 0:
            return True
        spread = float(self.rho.max() - self.rho.min())
        return spread <= 1e-9 * max(1.0, float(self.rho.max()))


@dataclass(frozen=True)
class Condition:
    name: str
    holds: bool
    witness: object = None


@dataclass(frozen=True)
class RigidityReport:
    theorem_id: str
    conditions: tuple[Condition, ...]
    conclusion: bool
    equality_observed: bool | None = None
    consistent: bool | None = None  # conclusion == equality_observed, when asserted
    extra: dict = field(default_factory=dict)

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _cross_checked(
    theorem_id: str, conditions, conclusion: bool, observed: bool, extra=None
) -> RigidityReport:
    """The report of a characterization whose conclusion is asserted to equal
    the observed equality pattern."""
    return RigidityReport(
        theorem_id=theorem_id,
        conditions=tuple(conditions),
        conclusion=conclusion,
        equality_observed=observed,
        consistent=conclusion == observed,
        extra={} if extra is None else extra,
    )


def _lap_diri_unequal(graph: WeightedBoundaryGraph, tol: float) -> list[int]:
    """The 1-based indices i <= |Omega| at which mu_{i+|B|} = lambda_i fails."""
    equal = compare_laplacian_dirichlet(graph).equality_indices(tol)
    return sorted(set(range(1, graph.interior.size + 1)) - set(equal))


def _relative_spread(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    return float(values.max() - values.min()) / max(1.0, float(np.abs(values).max()))


def detect_rho_factorization(
    graph: WeightedBoundaryGraph, tol: float = 1e-9
) -> RhoFactorization:
    """Fit w_xy = rho_x m_x m_y on B x Omega.

    Requires every boundary-interior pair to be adjacent; otherwise reports
    the first missing pair as a witness.
    """
    b, omega = graph.boundary, graph.interior
    wb = graph.weights[np.ix_(b, omega)]
    missing = np.argwhere(wb <= 0.0)
    if missing.size:
        i, j = missing[0]
        return RhoFactorization(
            rho=None, residual=float("inf"), holds=False,
            missing_edge=(int(b[i]), int(omega[j])),
        )
    outer = graph.measure[b][:, None] * graph.measure[omega][None, :]
    rho = (wb / outer).mean(axis=1)
    residual = float(np.abs(wb - rho[:, None] * outer).max(initial=0.0))
    max_w = float(wb.max(initial=0.0))
    return RhoFactorization(rho=rho, residual=residual, holds=residual <= tol * max(1.0, max_w))


def _quadratic_form_condition(
    graph: WeightedBoundaryGraph, rho: np.ndarray, mu_top: float, tol: float
) -> tuple[bool, float]:
    """Positive-semidefiniteness, on the mean-zero subspace of the boundary,
    of the quadratic form

        <rho f, f>_B - ((mu_top + Deg_b)/V_Omega) <f, f>_B
            - (V_G / (V_Omega Deg_b - V_B mu_top)) <rho, f>_B^2

    for a non-constant rho, which needs |B| >= 2.
    """
    v_omega, v_b, v_g = volumes(graph)
    m_b = graph.measure[graph.boundary]
    deg_b = float(np.dot(rho, m_b))  # <rho, 1>_B
    denom = v_omega * deg_b - v_b * mu_top
    if denom <= 0.0:
        return False, float("-inf")
    rm = rho * m_b
    q = np.diag(rm) - ((mu_top + deg_b) / v_omega) * np.diag(m_b)
    # the coefficient scales one factor, so no product of two entries of rm
    # is formed: that product overflows for weights far from unit scale
    q = q - np.outer((v_g / denom) * rm, rm)
    nb = m_b.size
    # {f : <f, 1>_B = 0} is the nullspace of m_b^T.  The Householder reflector
    # H = I - 2 v v^T / v^T v with v = m_b/|m_b| + e_1 maps e_1 to
    # -m_b/|m_b|, so its columns 2..|B| are an orthonormal basis of it;
    # m_b > 0, so the first entry of v does not cancel.
    v = m_b / m_b.max()  # entries in (0, 1]: the norm neither overflows nor underflows
    v /= np.linalg.norm(v)
    v[0] += 1.0
    cols = np.eye(nb)[:, 1:] - (2.0 / np.dot(v, v)) * np.outer(v, v[1:])
    reduced = cols.T @ q @ cols
    eigs, _ = symmetric_eigh(0.5 * (reduced + reduced.T))
    min_eig = float(eigs[0])
    scale = max(1.0, float(np.abs(q).max(initial=0.0)))
    return min_eig >= -tol * scale, min_eig


def check_neumann_laplacian_rigidity(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Characterize when nu_i = mu_i at every index.

    Conditions: the boundary weights factor as rho_x m_x m_y, and the top
    interior eigenvalue is small enough (a closed inequality for constant
    rho, a strict bound plus a quadratic-form test otherwise).  Unit-weight
    and normalized-weight graphs also get their specialized inequalities.
    Raises NotApplicable for a single interior vertex, whose only index
    nu_1 = mu_1 = 0 is an equality on every graph.
    """
    if graph.interior.size == 1:
        raise NotApplicable("NeuVsLap needs at least two interior vertices: with one, "
                            "its only index is nu_1 = mu_1 = 0")
    fact = detect_rho_factorization(graph, tol)
    conditions = [Condition("rho_factorization", fact.holds, fact.missing_edge)]
    v_omega, v_b, _ = volumes(graph)
    conclusion = False
    extra: dict = {}
    if fact.holds:
        rho = fact.rho
        m_b = graph.measure[graph.boundary]
        deg_b = float(np.dot(rho, m_b))
        mu_om = spectrum(graph, "InteriorLaplacian").eigenvalues
        mu_top = float(mu_om[-1])
        extra["mu_top_interior"] = mu_top
        if fact.constant:
            rho_c = float(rho.mean())
            # the mean-zero boundary test functions behind the usual bound
            # only exist for |B| >= 2; a singleton boundary leaves just the
            # weaker constant-extension condition mu_top <= rho V_Omega
            if graph.boundary.size >= 2:
                bound = rho_c * (v_omega - v_b)
            else:
                bound = rho_c * v_omega
            ok = mu_top <= bound + tol * max(1.0, abs(bound))
            conditions.append(Condition("rho_constant_bound", ok, (mu_top, bound)))
            conclusion = ok
        else:
            strict = mu_top < (v_omega / v_b) * deg_b - tol
            conditions.append(
                Condition("strict_bound", strict, (mu_top, (v_omega / v_b) * deg_b))
            )
            qf_ok, min_eig = _quadratic_form_condition(graph, rho, mu_top, tol)
            conditions.append(Condition("quadratic_form_psd", qf_ok, min_eig))
            conclusion = strict and qf_ok
        singleton = graph.boundary.size == 1
        if graph.is_unit_weight():
            nb, nom = graph.boundary.size, graph.interior.size
            bound = float(nom if singleton else nom - nb)
            spec = mu_top <= bound + tol
            conditions.append(Condition("unit_weight_bound", spec, (mu_top, bound)))
        if graph.is_normalized(1e-10):
            bound = 1.0 if singleton else (v_omega - v_b) / v_omega
            spec = mu_top <= bound + tol
            conditions.append(Condition("normalized_bound", spec, (mu_top, bound)))
    observed = compare_neumann_laplacian(graph).all_equal(tol)
    return _cross_checked("NeuVsLap", conditions, conclusion, observed, extra)


def check_dirichlet_interior_rigidity(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Equality lambda_i = mu_i(Omega) + Deg_b at every index iff Deg_b is
    constant over the interior."""
    deg_b = boundary_degree_vector(graph)
    spread = _relative_spread(deg_b)
    constant = spread <= tol
    observed = compare_dirichlet_interior(graph).all_equal(tol)
    return _cross_checked(
        "DiriVsInteriorTwoSided",
        [Condition("boundary_degree_constant", constant, spread)],
        constant,
        observed,
    )


def _interior_neighbor_counts(graph: WeightedBoundaryGraph) -> np.ndarray:
    b, omega = graph.boundary, graph.interior
    return (graph.weights[np.ix_(b, omega)] > 0.0).sum(axis=1)


def check_neumann_interior_rigidity(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Equality nu_i = mu_i(Omega) at every index iff every boundary vertex
    has exactly one interior neighbour."""
    counts = _interior_neighbor_counts(graph)
    bad = np.flatnonzero(counts != 1)
    ok = bad.size == 0
    observed = compare_neumann_interior(graph).all_equal(tol)
    witness = int(graph.boundary[bad[0]]) if bad.size else None
    return _cross_checked(
        "NeuVsInterior", [Condition("one_interior_neighbor_each", ok, witness)], ok, observed
    )


def boundary_influence(graph: WeightedBoundaryGraph) -> np.ndarray:
    """s(z) = sum_{x in B} w_xz^2 / (m_z sum_{y in Omega} w_xy) for z in Omega.

    Each w_xz / sum_y w_xy is at most 1, so s(z) <= Deg(z), which ``validate``
    keeps finite; squaring w_xz first could overflow."""
    b, omega = graph.boundary, graph.interior
    wb = graph.weights[np.ix_(b, omega)]
    row_sums = wb.sum(axis=1)  # sum over Omega for each boundary x; > 0 by validity
    return (wb * (wb / row_sums[:, None])).sum(axis=0) / graph.measure[omega]


def check_dirichlet_neumann_rigidity(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Equality lambda_i = nu_i + s^2 at every index iff every boundary
    vertex has one interior neighbour and the boundary influence s(z) is
    constant over the interior."""
    counts = _interior_neighbor_counts(graph)
    one_each = bool(np.all(counts == 1))
    s_vals = boundary_influence(graph)
    spread = _relative_spread(s_vals)
    s_const = spread <= tol
    conclusion = one_each and s_const
    observed = compare_dirichlet_neumann(graph).all_equal(tol)
    conditions = [
        Condition("one_interior_neighbor_each", one_each),
        Condition("boundary_influence_constant", s_const, spread),
    ]
    return _cross_checked("DiriVsNeuTwoSided", conditions, conclusion, observed)


def check_laplacian_dirichlet_rigidity(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Structure forced when mu_{i+|B|} = lambda_i at all indices except one.

    With no equality anywhere the check is vacuous; equality everywhere is
    impossible and reported as an anomaly; equality failing at two or more
    indices has no characterization and raises EqualityPatternUnsupported.
    In the constant-rho case the theorem is an iff, and both directions are
    recorded.
    """
    n = graph.interior.size
    missing = _lap_diri_unequal(graph, tol)
    extra = {"equality_indices": sorted(set(range(1, n + 1)) - set(missing))}
    if len(missing) == n:
        return RigidityReport(
            theorem_id="LapVsDiri",
            conditions=(Condition("no_equality_indices", True),),
            conclusion=True,
            equality_observed=False,
            consistent=True,
            extra=extra,
        )
    if not missing:
        return RigidityReport(
            theorem_id="LapVsDiri",
            conditions=(Condition("full_equality_anomaly", False),),
            conclusion=False,
            equality_observed=True,
            consistent=False,
            extra=extra,
        )
    if len(missing) > 1:
        raise EqualityPatternUnsupported(
            f"equality fails at indices {missing}; no characterization applies"
        )
    j = missing[0]
    extra["j"] = j
    comp = component_count(interior_subgraph(graph))
    cond_components = Condition("interior_components_equal_j", comp == j, comp)
    fact = detect_rho_factorization(graph, tol)
    cond_rho = Condition("rho_factorization", fact.holds, fact.missing_edge)
    lam = spectrum(graph, "DirichletLaplacian").eigenvalues
    conditions = [cond_components, cond_rho]
    conclusion = comp == j and fact.holds
    if fact.holds:
        m_b = graph.measure[graph.boundary]
        rho_sum = float(np.dot(fact.rho, m_b))
        head = lam[:j]
        head_ok = bool(
            np.all(np.abs(head - rho_sum) <= tol * max(1.0, abs(rho_sum)))
        )
        conditions.append(Condition("lambda_head_equals_rho_mass", head_ok, (list(head), rho_sum)))
        conclusion = conclusion and head_ok
        if fact.constant:
            rho_c = float(fact.rho.mean())
            v_omega, v_b, _ = volumes(graph)
            mu_om = spectrum(graph, "InteriorLaplacian").eigenvalues
            if j < mu_om.size:
                gap_ok = float(mu_om[j]) >= rho_c * v_omega - tol * max(1.0, rho_c * v_omega)
                witness = (float(mu_om[j]), rho_c * v_omega)
            else:
                gap_ok, witness = True, None  # mu_{j+1}(Omega) does not exist
            conditions.append(Condition("interior_gap", gap_ok, witness))
            vol_ok = (j <= 1) or (v_omega <= v_b + tol * max(1.0, v_b))
            conditions.append(Condition("volume_order", vol_ok, (v_omega, v_b)))
            conclusion = conclusion and gap_ok and vol_ok
    return RigidityReport(
        theorem_id="LapVsDiri",
        conditions=tuple(conditions),
        conclusion=conclusion,
        equality_observed=True,
        consistent=None,
        extra=extra,
    )


def check_corollary_unit_weight(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """For unit weight, the except-one-index equality pattern occurs iff the
    graph is the complete bipartite K_{B,Omega} with |Omega| <= |B|."""
    if not graph.is_unit_weight():
        raise NotApplicable("graph must have unit measures and 0/1 weights")
    b, omega = graph.boundary, graph.interior
    wb = graph.weights[np.ix_(b, omega)]
    complete_bipartite = bool(np.all(wb == 1.0)) and not np.any(
        graph.weights[np.ix_(omega, omega)] > 0.0
    )
    size_ok = omega.size <= b.size
    conclusion = complete_bipartite and size_ok
    # the corollary forces j = |Omega|: the last index is the only unequal one
    observed = _lap_diri_unequal(graph, tol) == [omega.size]
    conditions = [
        Condition("complete_bipartite", complete_bipartite),
        Condition("interior_not_larger_than_boundary", size_ok, (omega.size, b.size)),
    ]
    return _cross_checked("LapVsDiriUnitCorollary", conditions, conclusion, observed)


def check_corollary_normalized(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Normalized-weight version of the except-one-index characterization.

    Case 1: j = |Omega|, complete bipartite, V_Omega = V_B and
    w_xy = m_x m_y / V_Omega.  Case 2: j = 1, V_Omega >= V_B, the same
    boundary weights, complete interior with mu_2(Omega) >= 1 and
    Deg_Omega = 1 - V_B/V_Omega.
    """
    if not graph.is_normalized(1e-12):
        raise NotApplicable("graph must have Deg = 1 at every vertex")
    b, omega = graph.boundary, graph.interior
    v_omega, v_b, _ = volumes(graph)
    wb = graph.weights[np.ix_(b, omega)]
    outer = graph.measure[b][:, None] * graph.measure[omega][None, :]
    weights_ok = bool(
        np.all(np.abs(wb - outer / v_omega) <= tol * max(1.0, float(outer.max())))
    )
    interior_w = graph.weights[np.ix_(omega, omega)]
    interior_empty = not np.any(interior_w > 0.0)
    case1 = weights_ok and interior_empty and abs(v_omega - v_b) <= tol * max(1.0, v_b)
    interior_complete = bool(np.all((interior_w > 0.0) | np.eye(omega.size, dtype=bool)))
    deg_om = interior_degree_vector(graph)
    target = 1.0 - v_b / v_omega
    deg_ok = bool(np.all(np.abs(deg_om - target) <= tol * max(1.0, abs(target))))
    mu2_ok = False
    if omega.size >= 2:
        mu_om = spectrum(graph, "InteriorLaplacian").eigenvalues
        mu2_ok = float(mu_om[1]) >= 1.0 - tol
    case2 = (
        weights_ok
        and v_omega >= v_b - tol * max(1.0, v_b)
        and interior_complete
        and deg_ok
        and mu2_ok
    )
    conclusion = case1 or case2
    observed = len(_lap_diri_unequal(graph, tol)) == 1
    conditions = [
        Condition("boundary_weights_are_m_outer_over_volume", weights_ok),
        Condition("case1_trivial_interior_equal_volumes", case1),
        Condition("case2_complete_interior", case2),
    ]
    return _cross_checked("LapVsDiriNormalizedCorollary", conditions, conclusion, observed)


ALL_RIGIDITY = {
    "NeuVsLap": check_neumann_laplacian_rigidity,
    "DiriVsInteriorTwoSided": check_dirichlet_interior_rigidity,
    "NeuVsInterior": check_neumann_interior_rigidity,
    "DiriVsNeuTwoSided": check_dirichlet_neumann_rigidity,
    "LapVsDiri": check_laplacian_dirichlet_rigidity,
    "LapVsDiriUnitCorollary": check_corollary_unit_weight,
    "LapVsDiriNormalizedCorollary": check_corollary_normalized,
}
