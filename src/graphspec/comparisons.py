"""Eigenvalue comparison certificates.

Each certificate records, index by index, the two sides of one comparison
inequality together with its margin.  Every certificate, the five
comparisons here as well as the Fiedler-, Friedman- and Lichnerowicz-type
bounds, is built by ``certificate`` with ``tol_abs = tol * max Deg`` over
the vertices the compared values come from: Omega for the Dirichlet,
Neumann and interior spectra (a boundary vertex's Deg never reaches them),
every vertex once the full Laplacian or the whole graph's curvature
enters.  Those values lie within 2 max Deg of 0 and scale with it, so the
tolerance is unit-free.  A certificate Holds when every margin is at least
``-tol_abs``; an index is an equality (``IndexRecord.equal``) within
``tol_abs`` of 0, and only this module reads that flag: the rigidity
cross-checks read ``equality_indices``, ``unequal_indices`` or ``all_equal``
and compare eigenvalues with bounds at the certificate's ``tolerance``,
never at their own.  ``at_most`` decides every tolerance test, at its
caller's scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .graph import WeightedBoundaryGraph, boundary_degree_vector, degree_vector
from .spectra import spectrum, weighted_singular_values

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

    def equality_indices(self) -> tuple[int, ...]:
        """1-based indices where the comparison is an equality, as each
        record's ``equal`` flag decided it at ``tolerance``."""
        return tuple(r.index for r in self.per_index if r.equal)

    def unequal_indices(self) -> tuple[int, ...]:
        """1-based indices where the comparison is not an equality, ascending."""
        return tuple(r.index for r in self.per_index if not r.equal)

    def all_equal(self) -> bool:
        return not self.unequal_indices()


def at_most(value, bound, tol: float, scale: float, *, strict: bool = False):
    """``(holds, margin)``: whether ``value <= bound + tol * scale``, or when
    ``strict`` whether ``value < bound - tol * scale`` (below the bound by
    more than the tolerance), and that threshold minus ``value``, at least 0
    (above 0 when strict) exactly when a finite test holds.  NaN holds in
    neither form; arrays are decided elementwise.  A site that decides
    ``value >= bound`` passes both negated, which rounds as ``value >= bound
    - tol * scale`` does; one that reuses a certificate's absolute
    ``tolerance`` passes it with scale 1."""
    slack = tol * scale
    if strict:
        top = bound - slack
        return value < top, top - value
    top = bound + slack
    return value <= top, top - value


def certificate(
    theorem_id: str, degrees, tol: float, lhs, rhs, upper=None, extra=None
) -> ComparisonCertificate:
    """The certificate of ``lhs_i >= rhs_i`` at every index, or, when ``upper``
    is given, of ``lhs_i <= rhs_i <= upper_i``, whose records then hold the
    lower bound as ``lhs`` and the upper one as ``rhs``.  The tolerance is
    ``tol * max(degrees)``, over the Deg of the vertices the compared values
    come from, positive on every valid graph.

    A two-sided margin is the distance to the nearer bound, and equality
    means the interval degenerates onto the value (both bounds active)."""
    scale = float(degrees.max())
    records = []
    if upper is None:
        for i, (a, b) in enumerate(zip(lhs, rhs), start=1):
            margin = float(a - b)
            equal, _ = at_most(abs(margin), 0.0, tol, scale)
            records.append(IndexRecord(i, float(a), float(b), margin, equal))
    else:
        for i, (lo, x, hi) in enumerate(zip(lhs, rhs, upper), start=1):
            lo_margin = float(x - lo)
            hi_margin = float(hi - x)
            margin = min(lo_margin, hi_margin)
            equal, _ = at_most(max(abs(lo_margin), abs(hi_margin)), 0.0, tol, scale)
            records.append(IndexRecord(i, float(lo), float(hi), margin, equal))
    failing = tuple(r.index for r in records
                    if at_most(r.margin, 0.0, tol, scale, strict=True)[0])
    return ComparisonCertificate(
        theorem_id=theorem_id,
        per_index=tuple(records),
        tolerance=tol * scale,
        verdict="Holds" if not failing else "FailsAt",
        failing_indices=failing,
        extra=extra or {},
    )


def compare_neumann_laplacian(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """nu_i >= mu_i for i = 1..|Omega|."""
    nu = spectrum(graph, "NeumannLaplacian")
    mu = spectrum(graph, "FullLaplacian")
    return certificate("NeuVsLap", degree_vector(graph), tol, nu, mu[:nu.size])


def compare_dirichlet_interior(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """mu_i(Omega) + min Deg_b <= lambda_i <= mu_i(Omega) + max Deg_b."""
    lam = spectrum(graph, "DirichletLaplacian")
    mu_om = spectrum(graph, "InteriorLaplacian")
    deg_b = boundary_degree_vector(graph)
    return certificate(
        "DiriVsInteriorTwoSided", degree_vector(graph)[graph.interior], tol,
        mu_om + deg_b.min(), lam, mu_om + deg_b.max(),
    )


def compare_neumann_interior(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """nu_i >= mu_i(Omega)."""
    nu = spectrum(graph, "NeumannLaplacian")
    mu_om = spectrum(graph, "InteriorLaplacian")
    return certificate("NeuVsInterior", degree_vector(graph)[graph.interior], tol, nu, mu_om)


def compare_dirichlet_neumann(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """nu_i + s_1^2 <= lambda_i <= nu_i + s_max^2."""
    lam = spectrum(graph, "DirichletLaplacian")
    nu = spectrum(graph, "NeumannLaplacian")
    sing = weighted_singular_values(graph)
    return certificate(
        "DiriVsNeuTwoSided", degree_vector(graph)[graph.interior], tol,
        nu + sing[0], lam, nu + sing[-1],
        {"s1_squared": float(sing[0]), "smax_squared": float(sing[-1])},
    )


def compare_laplacian_dirichlet(
    graph: WeightedBoundaryGraph, tol: float = DEFAULT_TOL
) -> ComparisonCertificate:
    """mu_{i+|B|} >= lambda_i, with full equality flagged as anomalous."""
    lam = spectrum(graph, "DirichletLaplacian")
    mu = spectrum(graph, "FullLaplacian")
    nb = graph.boundary.size
    cert = certificate("LapVsDiri", degree_vector(graph), tol, mu[nb:], lam)
    # equality at every index is impossible; surface it rather than pass it
    full_equality = cert.all_equal()
    return replace(
        cert,
        verdict="FailsAt" if full_equality else cert.verdict,
        extra={"full_equality_anomaly": full_equality},
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
