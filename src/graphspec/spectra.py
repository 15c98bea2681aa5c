"""Eigen-decomposition of measure-self-adjoint operators.

The operator ``A`` is similar to the symmetric matrix
``S = M^{1/2} A M^{-1/2}`` (``M`` the diagonal measure), which is
diagonalized by LAPACK's symmetric eigensolver (``numpy.linalg.eigh``);
eigenvectors are mapped back with ``M^{-1/2}`` and are therefore orthonormal
in the measure inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedBoundaryGraph
from .operators import SelfAdjointOperator, neumann_coupling, operator_by_label

__all__ = [
    "Spectrum",
    "SingularSpectrum",
    "ConvergenceError",
    "eigensolve",
    "spectrum",
    "symmetric_eigh",
    "weighted_singular_values",
]


class ConvergenceError(RuntimeError):
    """The symmetric eigensolver failed, or was given non-finite entries."""


def symmetric_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of a
    symmetric matrix (only its lower triangle is read).

    Raises ConvergenceError on non-finite input, for which LAPACK would
    return finite-looking garbage, and when LAPACK does not converge.
    """
    if not np.all(np.isfinite(matrix)):
        raise ConvergenceError("matrix has non-finite entries")
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with measure-orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    measure: np.ndarray

    def orthonormality_defect(self) -> float:
        gram = self.eigenvectors.T @ (self.measure[:, None] * self.eigenvectors)
        return float(np.abs(gram - np.eye(gram.shape[0])).max(initial=0.0))

    def residual(self, op: SelfAdjointOperator) -> float:
        """max_i ||A v_i - lam_i v_i||_m / max(1, |lam_i|)."""
        worst = 0.0
        for i, lam in enumerate(self.eigenvalues):
            r = op.matrix @ self.eigenvectors[:, i] - lam * self.eigenvectors[:, i]
            norm = float(np.sqrt(np.sum(r * r * self.measure)))
            worst = max(worst, norm / max(1.0, abs(lam)))
        return worst


@dataclass(frozen=True)
class SingularSpectrum:
    """Ascending singular values of the Deg^{-1/2}-scaled boundary map."""

    singular_values: np.ndarray

    @property
    def s1_squared(self) -> float:
        return float(self.singular_values[0] ** 2)

    @property
    def smax_squared(self) -> float:
        return float(self.singular_values[-1] ** 2)


def eigensolve(op: SelfAdjointOperator) -> Spectrum:
    """Full spectrum of a measure-self-adjoint operator.

    Raises ConvergenceError if the eigensolver fails or the operator has
    non-finite entries; never returns a silently inaccurate decomposition.
    """
    sqrt_m = np.sqrt(op.inner_measure)
    s = (sqrt_m[:, None] * op.matrix) / sqrt_m[None, :]
    s = 0.5 * (s + s.T)
    w, u = symmetric_eigh(s)
    vecs = u / sqrt_m[:, None]
    return Spectrum(eigenvalues=w, eigenvectors=vecs, measure=op.inner_measure)


def spectrum(graph: WeightedBoundaryGraph, label: str) -> Spectrum:
    """The spectrum of the operator ``label`` of ``graph`` (see
    ``operator_by_label``), solved once per graph object."""
    return graph.derived(
        ("spectrum", label), lambda g: eigensolve(operator_by_label(g, label))
    )


def weighted_singular_values(graph: WeightedBoundaryGraph) -> SingularSpectrum:
    """Singular values of Deg^{-1/2} A_Omega, ascending, |Omega| of them,
    computed once per graph object.

    Computed as square roots of the spectrum of the nonnegative operator
    A_B Deg^{-1} A_Omega on Omega; tiny negative round-off is clamped.
    """
    return graph.derived("singular_values", _singular_values)


def _singular_values(graph: WeightedBoundaryGraph) -> SingularSpectrum:
    omega = graph.interior
    op = SelfAdjointOperator(
        neumann_coupling(graph), graph.measure[omega], "NeumannCoupling"
    )
    spec = eigensolve(op)
    vals = np.sqrt(np.clip(spec.eigenvalues, 0.0, None))
    return SingularSpectrum(singular_values=vals)


def spectral_radius(*spectra: Spectrum) -> float:
    return max(
        (float(np.abs(s.eigenvalues).max(initial=0.0)) for s in spectra), default=0.0
    )
