"""Eigenvalues of measure-self-adjoint operators.

The operator ``A`` is similar to the symmetric matrix
``S = M^{1/2} A M^{-1/2}`` (``M`` the diagonal measure).  Every comparison
reads eigenvalues alone, so ``spectrum`` and ``weighted_singular_values``
solve ``S`` with LAPACK's symmetric eigensolver without eigenvectors
(``symmetric_eigvalsh``, which also takes stacks), once per graph object,
and hand out read-only arrays.  ``eigensolve`` gives eigenpairs on request:
it diagonalizes ``S`` with ``numpy.linalg.eigh`` and maps the eigenvectors
back with ``M^{-1/2}``, so that they are orthonormal in the measure inner
product.  Both raise ``NotApplicable`` on non-finite input or a LAPACK failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NotApplicable, WeightedBoundaryGraph
from .operators import SelfAdjointOperator, neumann_coupling, operator_by_label

__all__ = [
    "Spectrum",
    "eigensolve",
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
    return _checked(np.linalg.eigvalsh, matrices)


def _checked(solve, matrices: np.ndarray):
    if not np.all(np.isfinite(matrices)):
        raise NotApplicable("matrix has non-finite entries")
    try:
        return solve(matrices)
    except np.linalg.LinAlgError as exc:
        raise NotApplicable(str(exc)) from exc


def _symmetrized(matrix: np.ndarray, sqrt_m: np.ndarray) -> np.ndarray:
    """The symmetric part of M^{1/2} A M^{-1/2}, given sqrt_m = diag M^{1/2}."""
    s = (sqrt_m[:, None] * matrix) / sqrt_m[None, :]
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with measure-orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    measure: np.ndarray


def eigensolve(op: SelfAdjointOperator) -> Spectrum:
    """Eigenvalues and measure-orthonormal eigenvectors of a
    measure-self-adjoint operator.

    Raises NotApplicable if the eigensolver fails or the operator has
    non-finite entries; never returns a silently inaccurate decomposition.
    """
    sqrt_m = np.sqrt(op.inner_measure)
    w, u = _checked(np.linalg.eigh, _symmetrized(op.matrix, sqrt_m))
    vecs = u / sqrt_m[:, None]
    return Spectrum(eigenvalues=w, eigenvectors=vecs, measure=op.inner_measure)


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
    inner product."""
    return symmetric_eigvalsh(_symmetrized(matrix, np.sqrt(measure)))
