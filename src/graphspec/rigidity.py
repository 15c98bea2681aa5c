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
    DEFAULT_TOL,
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
    degree_vector,
    interior_subgraph,
    volumes,
)
from .operators import neumann_coupling
from .spectra import spectrum, symmetric_eigvalsh


@dataclass(frozen=True)
class RhoFactorization:
    """Fit of w_xy = rho_x m_x m_y over all boundary-interior pairs.

    The fit is kept as ``rho_mass``, r_x = rho_x m_x = mean_y w_xy / m_y on
    the boundary.  Each w_xy / m_y is at most Deg(y), so r is finite, but it
    can underflow, while rho_x itself overflows on valid graphs with small
    measures and large weights; so rho is kept only as ``rho_split``, a
    pair (frac, exp) with rho = frac 2^exp.  ``constant``
    says that rho V_B has a relative spread of at most the ``tol`` of the
    fit; it is decided only on a fit that holds, and is False on any other.
    """

    rho_mass: np.ndarray | None
    rho_split: tuple[np.ndarray, np.ndarray] | None
    residual: float
    holds: bool
    missing_edge: tuple[int, int] | None = None
    constant: bool = False

    def rho_times(self, volume: float) -> np.ndarray:
        """rho_x * volume on the boundary: the fractions of rho_x and of the
        volume are multiplied and their exponents added, so that a finite
        product never passes through an overflowing rho_x or volume / m_x."""
        frac, exp = self.rho_split
        frac_v, exp_v = np.frexp(volume)
        return np.ldexp(frac * frac_v, exp + exp_v)


def _rho_split(wb: np.ndarray, m_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r_x = mean_y w_xy / m_y, for positive weights ``wb`` on B x Omega, as
    frac_x 2^exp_x with frac_x in [1/2, 1) and exp_x an integer.  Every
    quotient is formed from the mantissas and exponents of its terms
    (``np.frexp``), and each row's w_xy / m_y are averaged at the row's
    largest exponent, so no intermediate under- or overflows however far
    apart the weights and measures lie.  In the float range frac 2^exp is
    r_x to the bit."""
    (frac_w, exp_w), (frac_o, exp_o) = np.frexp(wb), np.frexp(m_omega)
    exp_q = exp_w - exp_o  # w_xy / m_y = (frac_w / frac_o) 2^exp_q
    top = exp_q.max(axis=1)
    frac_r, exp_r = np.frexp(np.ldexp(frac_w / frac_o, exp_q - top[:, None]).mean(axis=1))
    return frac_r, exp_r + top


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


def _relative_spread(values: np.ndarray) -> float:
    """Spread of a vector relative to its largest magnitude, 0 on a zero
    vector: rho V_B, and Deg_b and s(z) on the interior, which underflow to
    0 everywhere when the interior measures are huge."""
    scale = float(np.abs(values).max())
    return float(values.max() - values.min()) / scale if scale else 0.0


def detect_rho_factorization(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> RhoFactorization:
    """Fit w_xy = rho_x m_x m_y on B x Omega through r_x = rho_x m_x.

    Requires every boundary-interior pair to be adjacent; otherwise reports
    the first missing pair as a witness.  r_x is split as frac 2^exp
    (``_rho_split``), and rho_x and each r_x m_y are formed from that split
    and from the mantissas and exponents of m_x and m_y, so neither passes
    through an r_x that underflows.  The fit holds when its residual
    |w_xy - r_x m_y| is at most ``tol`` times the largest of these
    (positive) weights, and rho is constant when the relative spread of
    rho V_B is at most ``tol``: the spread of rho, split as frac 2^exp with
    frac in (1/2, 2), scaled by 2^-max(exp), which puts the largest rho in
    (1/2, 2), however far apart the weights and measures lie.
    """
    b, omega = graph.boundary, graph.interior
    wb = graph.weights[np.ix_(b, omega)]
    missing = np.argwhere(wb <= 0.0)
    if missing.size:
        i, j = missing[0]
        return RhoFactorization(
            rho_mass=None, rho_split=None, residual=float("inf"), holds=False,
            missing_edge=(int(b[i]), int(omega[j])),
        )
    m_omega = graph.measure[omega]
    frac_r, exp_r = _rho_split(wb, m_omega)
    (frac_o, exp_o), (frac_b, exp_b) = np.frexp(m_omega), np.frexp(graph.measure[b])
    with np.errstate(over="ignore"):  # an infinite residual fails the fit
        fitted = np.ldexp(frac_r[:, None] * frac_o, exp_r[:, None] + exp_o)  # r_x m_y
        residual = float(np.abs(wb - fitted).max(initial=0.0))
    holds = residual <= tol * float(wb.max())
    frac, exp = rho_split = frac_r / frac_b, exp_r - exp_b
    constant = holds and _relative_spread(np.ldexp(frac, exp - exp.max())) <= tol
    return RhoFactorization(rho_mass=np.ldexp(frac_r, exp_r), rho_split=rho_split,
                            residual=residual, holds=holds, constant=constant)


def _quadratic_form_condition(
    graph: WeightedBoundaryGraph, rho_mass: np.ndarray, mu_top: float, tol: float
) -> tuple[bool, float]:
    """Positive-semidefiniteness, on the mean-zero subspace of the boundary,
    of the quadratic form

        <rho f, f>_B - ((mu_top + Deg_b)/V_Omega) <f, f>_B
            - (V_G / (V_Omega Deg_b - V_B mu_top)) <rho, f>_B^2

    for a non-constant rho, which needs |B| >= 2; ``rho_mass`` is rho m_B.
    The least eigenvalue may fall ``tol`` times the largest |entry| of the
    form below 0; a form that is exactly 0 gets the exact test.
    """
    v_omega, v_b, v_g = volumes(graph)
    m_b = graph.measure[graph.boundary]
    deg_b = float(rho_mass.sum())  # <rho, 1>_B
    denom = v_omega * deg_b - v_b * mu_top
    if denom <= 0.0:
        return False, float("-inf")
    # {f : <f, 1>_B = 0} is the nullspace of m_b^T.  The Householder reflector
    # H = I - 2 v v^T / v^T v with v = m_b/|m_b| + e_1 maps e_1 to
    # -m_b/|m_b|, so its columns 2..|B| are an orthonormal basis of it;
    # m_b > 0, so the first entry of v does not cancel.
    v = m_b / m_b.max()  # entries in (0, 1]: the norm neither overflows nor underflows
    v /= np.linalg.norm(v)
    v[0] += 1.0
    cols = np.eye(m_b.size)[:, 1:] - (2.0 / np.dot(v, v)) * np.outer(v, v[1:])
    # a form that overflows is refused by the eigensolver (NotApplicable)
    with np.errstate(all="ignore"):
        q = np.diag(rho_mass) - ((mu_top + deg_b) / v_omega) * np.diag(m_b)
        # the coefficient scales one factor, so no product of two entries of
        # rho_mass is formed: that product overflows for weights far from
        # unit scale
        q = q - np.outer((v_g / denom) * rho_mass, rho_mass)
        reduced = cols.T @ q @ cols
    min_eig = float(symmetric_eigvalsh(0.5 * (reduced + reduced.T))[0])
    return min_eig >= -tol * float(np.abs(q).max()), min_eig


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
    cert = compare_neumann_laplacian(graph, tol)
    fact = detect_rho_factorization(graph, tol)
    conditions = [Condition("rho_factorization", fact.holds, fact.missing_edge)]
    v_omega, v_b, _ = volumes(graph)
    conclusion = False
    extra: dict = {}
    if fact.holds:
        deg_b = float(fact.rho_mass.sum())
        mu_om = spectrum(graph, "InteriorLaplacian")
        mu_top = float(mu_om[-1])
        extra["mu_top_interior"] = mu_top
        if fact.constant:
            # the mean-zero boundary test functions behind the usual bound
            # only exist for |B| >= 2; a singleton boundary leaves just the
            # weaker constant-extension condition mu_top <= rho V_Omega
            volume = v_omega - v_b if graph.boundary.size >= 2 else v_omega
            bound = float(fact.rho_times(volume).mean())
            ok = mu_top <= bound + cert.tolerance
            conditions.append(Condition("rho_constant_bound", ok, (mu_top, bound)))
            conclusion = ok
        else:
            strict = mu_top < (v_omega / v_b) * deg_b - cert.tolerance
            conditions.append(
                Condition("strict_bound", strict, (mu_top, (v_omega / v_b) * deg_b))
            )
            qf_ok, min_eig = _quadratic_form_condition(graph, fact.rho_mass, mu_top, tol)
            conditions.append(Condition("quadratic_form_psd", qf_ok, min_eig))
            conclusion = strict and qf_ok
        singleton = graph.boundary.size == 1
        if graph.is_unit_weight():
            nb, nom = graph.boundary.size, graph.interior.size
            bound = float(nom if singleton else nom - nb)
            spec = mu_top <= bound + cert.tolerance
            conditions.append(Condition("unit_weight_bound", spec, (mu_top, bound)))
        if graph.is_normalized():
            bound = 1.0 if singleton else (v_omega - v_b) / v_omega
            spec = mu_top <= bound + cert.tolerance
            conditions.append(Condition("normalized_bound", spec, (mu_top, bound)))
    return _cross_checked("NeuVsLap", conditions, conclusion, cert.all_equal(), extra)


def check_dirichlet_interior_rigidity(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Equality lambda_i = mu_i(Omega) + Deg_b at every index iff Deg_b is
    constant over the interior."""
    deg_b = boundary_degree_vector(graph)
    spread = _relative_spread(deg_b)
    constant = spread <= tol
    observed = compare_dirichlet_interior(graph, tol).all_equal()
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
    observed = compare_neumann_interior(graph, tol).all_equal()
    witness = int(graph.boundary[bad[0]]) if bad.size else None
    return _cross_checked(
        "NeuVsInterior", [Condition("one_interior_neighbor_each", ok, witness)], ok, observed
    )


def check_dirichlet_neumann_rigidity(
    graph: WeightedBoundaryGraph, tol: float = EQUALITY_TOL
) -> RigidityReport:
    """Equality lambda_i = nu_i + s^2 at every index iff every boundary
    vertex has one interior neighbour and the boundary influence s(z) is
    constant over the interior.  s(z) is read off the diagonal of the
    Neumann coupling, whose eigenvalues the certificate reads as s^2."""
    counts = _interior_neighbor_counts(graph)
    one_each = bool(np.all(counts == 1))
    s_vals = np.diagonal(neumann_coupling(graph))
    spread = _relative_spread(s_vals)
    s_const = spread <= tol
    conclusion = one_each and s_const
    observed = compare_dirichlet_neumann(graph, tol).all_equal()
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
    indices has no characterization and raises NotApplicable.
    In the constant-rho case the theorem is an iff, and both directions are
    recorded.
    """
    cert = compare_laplacian_dirichlet(graph, tol)
    missing = [r.index for r in cert.per_index if not r.equal]
    extra = {"equality_indices": list(cert.equality_indices())}
    if len(missing) == len(cert.per_index):
        return RigidityReport(
            theorem_id="LapVsDiri",
            conditions=(Condition("no_equality_indices", True),),
            conclusion=True,
            equality_observed=False,
            consistent=True,
            extra=extra,
        )
    if cert.extra["full_equality_anomaly"]:
        anomaly = [Condition("full_equality_anomaly", False)]
        return _cross_checked("LapVsDiri", anomaly, False, True, extra)
    if len(missing) > 1:
        raise NotApplicable(f"equality fails at indices {missing}; no characterization applies")
    j = missing[0]
    extra["j"] = j
    comp = component_count(interior_subgraph(graph))
    cond_components = Condition("interior_components_equal_j", comp == j, comp)
    fact = detect_rho_factorization(graph, tol)
    cond_rho = Condition("rho_factorization", fact.holds, fact.missing_edge)
    lam = spectrum(graph, "DirichletLaplacian")
    conditions = [cond_components, cond_rho]
    conclusion = comp == j and fact.holds
    if fact.holds:
        rho_sum = float(fact.rho_mass.sum())
        head = lam[:j]
        head_ok = bool(np.all(np.abs(head - rho_sum) <= cert.tolerance))
        conditions.append(Condition("lambda_head_equals_rho_mass", head_ok, (head.tolist(), rho_sum)))
        conclusion = conclusion and head_ok
        if fact.constant:
            v_omega, v_b, _ = volumes(graph)
            rho_volume = float(fact.rho_times(v_omega).mean())  # rho_c V_Omega
            mu_om = spectrum(graph, "InteriorLaplacian")
            if j < mu_om.size:
                gap_ok = float(mu_om[j]) >= rho_volume - cert.tolerance
                witness = (float(mu_om[j]), rho_volume)
            else:
                gap_ok, witness = True, None  # mu_{j+1}(Omega) does not exist
            conditions.append(Condition("interior_gap", gap_ok, witness))
            vol_ok = (j <= 1) or (v_omega - v_b <= tol * v_b)
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
    cert = compare_laplacian_dirichlet(graph, tol)
    observed = [r.index for r in cert.per_index if not r.equal] == [omega.size]
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
    Deg_Omega = 1 - V_B/V_Omega.  Each test allows ``tol`` times the size of
    what it compares with: the largest m_x m_y / V_Omega, V_B, and the
    degree target, which is 0 when V_B = V_Omega, where its test is exact.
    """
    if not graph.is_normalized():
        raise NotApplicable("graph must have Deg = 1 at every vertex")
    b, omega = graph.boundary, graph.interior
    v_omega, v_b, _ = volumes(graph)
    wb = graph.weights[np.ix_(b, omega)]
    # m_y / V_Omega <= 1: the product m_x m_y can overflow, and an infinite
    # target would pass every weight
    target_w = graph.measure[b][:, None] * (graph.measure[omega] / v_omega)[None, :]
    weights_ok = bool(np.all(np.abs(wb - target_w) <= tol * float(target_w.max())))
    interior_w = graph.weights[np.ix_(omega, omega)]
    interior_empty = not np.any(interior_w > 0.0)
    case1 = weights_ok and interior_empty and abs(v_omega - v_b) <= tol * v_b
    interior_complete = bool(np.all((interior_w > 0.0) | np.eye(omega.size, dtype=bool)))
    deg_om = degree_vector(interior_subgraph(graph))
    target = 1.0 - v_b / v_omega
    deg_ok = bool(np.all(np.abs(deg_om - target) <= tol * abs(target)))
    cert = compare_laplacian_dirichlet(graph, tol)
    mu2_ok = False
    if omega.size >= 2:
        mu_om = spectrum(graph, "InteriorLaplacian")
        mu2_ok = float(mu_om[1]) >= 1.0 - cert.tolerance
    case2 = (
        weights_ok
        and v_omega >= v_b - tol * v_b
        and interior_complete
        and deg_ok
        and mu2_ok
    )
    conclusion = case1 or case2
    observed = sum(not r.equal for r in cert.per_index) == 1
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
