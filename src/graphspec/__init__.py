"""Spectra of weighted graphs with boundary and their certified comparisons."""

from .graph import (
    GraphFormatError,
    GraphValidationError,
    NotApplicable,
    WeightedBoundaryGraph,
    interior_subgraph,
    validate,
    volumes,
)
from .operators import (
    SelfAdjointOperator,
    dirichlet_laplacian,
    full_laplacian,
    interior_laplacian,
    neumann_laplacian,
)
from .spectra import (
    Spectrum,
    eigensolve,
    spectrum,
    weighted_singular_values,
)
from .comparisons import (
    ComparisonCertificate,
    compare_dirichlet_interior,
    compare_dirichlet_neumann,
    compare_laplacian_dirichlet,
    compare_neumann_interior,
    compare_neumann_laplacian,
    run_all,
)
from .rigidity import (
    RigidityReport,
    RhoFactorization,
    check_corollary_normalized,
    check_corollary_unit_weight,
    check_dirichlet_interior_rigidity,
    check_dirichlet_neumann_rigidity,
    check_laplacian_dirichlet_rigidity,
    check_neumann_interior_rigidity,
    check_neumann_laplacian_rigidity,
    detect_rho_factorization,
)
from .curvature import (
    CurvatureResult,
    bakry_emery_curvature,
    certify_lichnerowicz,
    ollivier_curvature,
)
from .combinatorial import (
    edge_connectivity,
    fiedler_bounds,
    friedman_bounds,
    path_dirichlet_value,
)

__version__ = "0.1.0"
