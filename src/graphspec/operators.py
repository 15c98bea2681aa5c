"""Laplacian-type operators on weighted graphs with boundary.

All stored matrices are the nonnegative operators (the negatives of the
Laplacians), so eigenvalues can be read off directly.  Every operator is
self-adjoint under the measure-weighted inner product
``<u, v> = sum_x u(x) v(x) m_x`` on its vertex set.

The Dirichlet operator is the Omega x Omega block of the full operator.  The
Neumann operator is defined through the normal extension, which gives each
boundary vertex the weighted average of its interior neighbours, so that
the normal derivative vanishes on B.  It is assembled from the identity

    neumann = dirichlet - A_B Deg^{-1} A_Omega,

which the test suite checks column by column against the extension (the
oracle ``neumann_by_extension``).

``operator_by_label`` builds each operator once per graph object; the
``*_laplacian`` builders compute afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedBoundaryGraph, degree_vector, interior_subgraph


@dataclass(frozen=True)
class SelfAdjointOperator:
    """A dense matrix with the measure defining its inner product."""

    matrix: np.ndarray
    inner_measure: np.ndarray
    label: str  # FullLaplacian | DirichletLaplacian | NeumannLaplacian | InteriorLaplacian

    def self_adjointness_defect(self) -> float:
        """max |m_i A_ij - m_j A_ji| relative to the matrix scale."""
        ma = self.inner_measure[:, None] * self.matrix
        scale = max(1.0, float(np.abs(ma).max(initial=0.0)))
        return float(np.abs(ma - ma.T).max(initial=0.0)) / scale


@dataclass(frozen=True)
class BoundaryMap:
    """The averaging map A_Omega (interior -> boundary) and its adjoint A_B."""

    a_omega: np.ndarray  # |B| x |Omega|
    a_b: np.ndarray      # |Omega| x |B|
    boundary_measure: np.ndarray
    interior_measure: np.ndarray


def full_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """The negated Laplacian on all of V: row x is (Deg(x) delta_x - w_x/m_x)."""
    w = graph.weights
    mat = np.diag(w.sum(axis=1)) - w
    mat = mat / graph.measure[:, None]
    return SelfAdjointOperator(mat, graph.measure, "FullLaplacian")


def interior_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """The negated Laplacian of the induced interior subgraph."""
    sub = interior_subgraph(graph)
    op = full_laplacian(sub)
    return SelfAdjointOperator(op.matrix, op.inner_measure, "InteriorLaplacian")


def boundary_map(graph: WeightedBoundaryGraph) -> BoundaryMap:
    b, omega = graph.boundary, graph.interior
    a_omega = graph.weights[np.ix_(b, omega)] / graph.measure[b][:, None]
    a_b = graph.weights[np.ix_(omega, b)] / graph.measure[omega][:, None]
    return BoundaryMap(a_omega, a_b, graph.measure[b], graph.measure[omega])


def normal_derivative(graph: WeightedBoundaryGraph, u: np.ndarray) -> np.ndarray:
    """(du/dn)(x) = (1/m_x) sum_y (u(x) - u(y)) w_xy for x in B."""
    full = operator_by_label(graph, "FullLaplacian").matrix @ u
    return full[graph.boundary]


def dirichlet_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """Negated Dirichlet Laplacian on Omega (zero boundary conditions)."""
    omega = graph.interior
    mat = full_laplacian(graph).matrix[np.ix_(omega, omega)]
    return SelfAdjointOperator(mat, graph.measure[omega], "DirichletLaplacian")


def neumann_coupling(graph: WeightedBoundaryGraph) -> np.ndarray:
    """The matrix A_B Deg^{-1} A_Omega on Omega (difference of the Dirichlet
    and Neumann operators)."""
    bm = boundary_map(graph)
    deg_b = degree_vector(graph)[graph.boundary]
    return bm.a_b @ (bm.a_omega / deg_b[:, None])


def neumann_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """Negated Neumann Laplacian on Omega (vanishing normal derivative)."""
    mat = dirichlet_laplacian(graph).matrix - neumann_coupling(graph)
    return SelfAdjointOperator(mat, graph.measure[graph.interior], "NeumannLaplacian")


BUILDERS = {
    "FullLaplacian": full_laplacian,
    "DirichletLaplacian": dirichlet_laplacian,
    "NeumannLaplacian": neumann_laplacian,
    "InteriorLaplacian": interior_laplacian,
}


def operator_by_label(graph: WeightedBoundaryGraph, label: str) -> SelfAdjointOperator:
    """The operator ``label`` of ``graph``, built once per graph object."""
    if label not in BUILDERS:
        raise KeyError(f"unknown operator label: {label}")
    return graph.derived(("operator", label), BUILDERS[label])
