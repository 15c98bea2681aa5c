"""Eigenvalue comparison certificates.

Each certificate records, index by index, the two sides of one comparison
inequality together with its margin.  A certificate Holds when every margin
is at least ``-tol_abs`` where ``tol_abs = tol * max(1, spectral radius of
the spectra involved)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import WeightedBoundaryGraph, boundary_degree_vector
from .spectra import Spectrum, spectral_radius, spectrum, weighted_singular_values

DEFAULT_TOL = 1e-9
EQUALITY_TOL = 1e-7  # looser, for rigidity cross-checks


@dataclass(frozen=True)
class IndexRecord:
    """One compared index (1-based, as reported)."""

    index: int
    lhs: float
    rhs: float
    margin: float
    equal: bool


@dataclass(frozen=True)
class ComparisonCertificate:
    theorem_id: str
    per_index: tuple[IndexRecord, ...]
    tolerance: float  # absolute tolerance actually applied
    verdict: str  # "Holds" | "FailsAt"
    failing_indices: tuple[int, ...] = ()
    extra: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "Holds"

    def equality_indices(self, tol: float | None = None) -> tuple[int, ...]:
        """1-based indices where the comparison is an equality.

        With an explicit ``tol`` the margins are re-thresholded (used by the
        rigidity cross-checks, which run at a looser tolerance).  For a
        two-sided record equality also requires the bounding interval to be
        degenerate, not merely that the value touches the nearer bound."""
        if tol is None:
            return tuple(r.index for r in self.per_index if r.equal)
        return tuple(
            r.index
            for r in self.per_index
            if abs(r.margin) <= tol and abs(r.lhs - r.rhs) <= 2.0 * tol
        )

    def all_equal(self, tol: float | None = None) -> bool:
        return len(self.equality_indices(tol)) == len(self.per_index)


def _certify(theorem_id: str, records, tol_abs: float, extra=None) -> ComparisonCertificate:
    failing = tuple(r.index for r in records if r.margin < -tol_abs)
    return ComparisonCertificate(
        theorem_id=theorem_id,
        per_index=tuple(records),
        tolerance=tol_abs,
        verdict="Holds" if not failing else "FailsAt",
        failing_indices=failing,
        extra=extra or {},
    )


def _abs_tol(tol: float, *spectra: Spectrum) -> float:
    return tol * max(1.0, spectral_radius(*spectra))


def _one_sided(theorem_id, lhs, rhs, tol_abs, extra=None) -> ComparisonCertificate:
    records = []
    for i, (a, b) in enumerate(zip(lhs, rhs), start=1):
        margin = float(a - b)
        records.append(IndexRecord(i, float(a), float(b), margin, abs(margin) <= tol_abs))
    return _certify(theorem_id, records, tol_abs, extra)


def _two_sided(theorem_id, lower, mid, upper, tol_abs, extra=None) -> ComparisonCertificate:
    # margin is the distance to the nearer bound; equality means the
    # interval degenerates onto the value (both bounds active).
    records = []
    for i, (lo, x, hi) in enumerate(zip(lower, mid, upper), start=1):
        lo_margin = float(x - lo)
        hi_margin = float(hi - x)
        margin = min(lo_margin, hi_margin)
        equal = max(abs(lo_margin), abs(hi_margin)) <= tol_abs
        records.append(IndexRecord(i, float(lo), float(hi), margin, equal))
    return _certify(theorem_id, records, tol_abs, extra)


def compare_neumann_laplacian(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """nu_i >= mu_i for i = 1..|Omega|."""
    nu = spectrum(graph, "NeumannLaplacian")
    mu = spectrum(graph, "FullLaplacian")
    tol_abs = _abs_tol(tol, nu, mu)
    k = nu.eigenvalues.size
    return _one_sided("NeuVsLap", nu.eigenvalues, mu.eigenvalues[:k], tol_abs)


def compare_dirichlet_interior(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """mu_i(Omega) + min Deg_b <= lambda_i <= mu_i(Omega) + max Deg_b."""
    lam = spectrum(graph, "DirichletLaplacian")
    mu_om = spectrum(graph, "InteriorLaplacian")
    deg_b = boundary_degree_vector(graph)
    tol_abs = _abs_tol(tol, lam, mu_om)
    lo = mu_om.eigenvalues + deg_b.min()
    hi = mu_om.eigenvalues + deg_b.max()
    return _two_sided("DiriVsInteriorTwoSided", lo, lam.eigenvalues, hi, tol_abs)


def compare_neumann_interior(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """nu_i >= mu_i(Omega)."""
    nu = spectrum(graph, "NeumannLaplacian")
    mu_om = spectrum(graph, "InteriorLaplacian")
    tol_abs = _abs_tol(tol, nu, mu_om)
    return _one_sided("NeuVsInterior", nu.eigenvalues, mu_om.eigenvalues, tol_abs)


def compare_dirichlet_neumann(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """nu_i + s_1^2 <= lambda_i <= nu_i + s_max^2."""
    lam = spectrum(graph, "DirichletLaplacian")
    nu = spectrum(graph, "NeumannLaplacian")
    sing = weighted_singular_values(graph)
    tol_abs = _abs_tol(tol, lam, nu)
    lo = nu.eigenvalues + sing.s1_squared
    hi = nu.eigenvalues + sing.smax_squared
    extra = {"s1_squared": sing.s1_squared, "smax_squared": sing.smax_squared}
    return _two_sided("DiriVsNeuTwoSided", lo, lam.eigenvalues, hi, tol_abs, extra)


def compare_laplacian_dirichlet(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """mu_{i+|B|} >= lambda_i, with full equality flagged as anomalous."""
    lam = spectrum(graph, "DirichletLaplacian")
    mu = spectrum(graph, "FullLaplacian")
    tol_abs = _abs_tol(tol, lam, mu)
    nb = graph.boundary.size
    shifted = mu.eigenvalues[nb:]
    cert = _one_sided("LapVsDiri", shifted, lam.eigenvalues, tol_abs)
    # equality at every index is impossible; surface it rather than pass it
    full_equality = all(abs(r.margin) <= tol_abs for r in cert.per_index)
    extra = dict(cert.extra)
    extra["full_equality_anomaly"] = full_equality
    return ComparisonCertificate(
        theorem_id=cert.theorem_id,
        per_index=cert.per_index,
        tolerance=cert.tolerance,
        verdict="FailsAt" if full_equality else cert.verdict,
        failing_indices=cert.failing_indices,
        extra=extra,
    )


ALL_COMPARISONS = {
    "NeuVsLap": compare_neumann_laplacian,
    "DiriVsInteriorTwoSided": compare_dirichlet_interior,
    "NeuVsInterior": compare_neumann_interior,
    "DiriVsNeuTwoSided": compare_dirichlet_neumann,
    "LapVsDiri": compare_laplacian_dirichlet,
}


def run_all(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> list[ComparisonCertificate]:
    """The five eigenvalue comparison certificates for one graph."""
    return [fn(graph, tol) for fn in ALL_COMPARISONS.values()]
