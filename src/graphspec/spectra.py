"""Eigenvalues of measure-self-adjoint operators.

The operator ``A`` is similar to the symmetric matrix
``S = M^{1/2} A M^{-1/2}`` (``M`` the diagonal measure).  Every comparison
reads eigenvalues alone, so ``spectrum`` and ``weighted_singular_values``
solve ``S`` with LAPACK's symmetric eigensolver without eigenvectors
(``symmetric_eigvalsh``, which also takes stacks), once per graph object,
and hand out read-only arrays.  ``symmetric_eigvalsh`` is the package's one
eigen routine; it raises ``NotApplicable`` on non-finite input or a LAPACK
failure.
"""

from __future__ import annotations

import numpy as np

from .graph import NotApplicable, WeightedBoundaryGraph
from .operators import neumann_coupling, operator_by_label

__all__ = [
    "spectrum",
    "symmetric_eigvalsh",
    "weighted_singular_values",
]


def symmetric_eigvalsh(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each in a stack
    ``matrices[..., :, :]`` (only the lower triangles are read), from
    LAPACK's symmetric eigensolver without the eigenvectors.

    Raises NotApplicable on non-finite input, for which LAPACK would
    return finite-looking garbage, and when LAPACK does not converge, for
    the whole stack.
    """
    if not np.all(np.isfinite(matrices)):
        raise NotApplicable("matrix has non-finite entries")
    try:
        return np.linalg.eigvalsh(matrices)
    except np.linalg.LinAlgError as exc:
        raise NotApplicable(str(exc)) from exc


def spectrum(graph: WeightedBoundaryGraph, label: str) -> np.ndarray:
    """Ascending eigenvalues of the operator ``label`` of ``graph`` (see
    ``operator_by_label``), solved once per graph object."""

    def solve(g):
        op = operator_by_label(g, label)
        return _eigenvalues(op.matrix, op.inner_measure)

    return graph.derived(("spectrum", label), solve)


def weighted_singular_values(graph: WeightedBoundaryGraph) -> np.ndarray:
    """Squared singular values of Deg^{-1/2} A_Omega, ascending, |Omega| of
    them, computed once per graph object.

    They are the eigenvalues of the nonnegative operator
    A_B Deg^{-1} A_Omega on Omega, with tiny negative round-off clamped to 0.
    """
    return graph.derived("singular_values", _singular_values)


def _singular_values(graph: WeightedBoundaryGraph) -> np.ndarray:
    eigs = _eigenvalues(neumann_coupling(graph), graph.measure[graph.interior])
    return np.clip(eigs, 0.0, None)


def _eigenvalues(matrix: np.ndarray, measure: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``matrix``, self-adjoint in the ``measure``
    inner product: those of the symmetric part of M^{1/2} A M^{-1/2}."""
    sqrt_m = np.sqrt(measure)
    s = (sqrt_m[:, None] * matrix) / sqrt_m[None, :]
    return symmetric_eigvalsh(0.5 * (s + s.T))
