"""Laplacian-type operators on weighted graphs with boundary.

All stored matrices are the nonnegative operators (the negatives of the
Laplacians), so eigenvalues can be read off directly.  Every operator is
self-adjoint under the measure-weighted inner product
``<u, v> = sum_x u(x) v(x) m_x`` on its vertex set.

Every operator comes from the full one.  The Dirichlet operator is its
Omega x Omega block.  The Neumann operator is defined through the normal
extension, which gives each boundary vertex the weighted average of its
interior neighbours, so that the normal derivative vanishes on B.  It is
assembled from the identity

    neumann = dirichlet - A_B Deg^{-1} A_Omega,

which the test suite checks column by column against the extension (the
oracle ``neumann_by_extension``).  The boundary measures cancel in the
coupling, which is formed at the weights' scale.  The interior operator is
the full operator of the subgraph induced on Omega.

``operator_by_label`` builds each operator once per graph object.  The
builders take the full operator, the coupling ``A_B Deg^{-1} A_Omega`` and
the interior subgraph from the graph's memo, so each of these is also
computed once per graph object.
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


def full_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """The negated Laplacian on all of V: row x is (Deg(x) delta_x - w_x/m_x)."""
    mat = np.diag(degree_vector(graph)) - graph.weights / graph.measure[:, None]
    return SelfAdjointOperator(mat, graph.measure)


def interior_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """The negated Laplacian of the induced interior subgraph: that
    subgraph's own full operator."""
    return operator_by_label(interior_subgraph(graph), "FullLaplacian")


def dirichlet_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """Negated Dirichlet Laplacian on Omega (zero boundary conditions)."""
    omega = graph.interior
    mat = operator_by_label(graph, "FullLaplacian").matrix[np.ix_(omega, omega)]
    return SelfAdjointOperator(mat, graph.measure[omega])


def neumann_coupling(graph: WeightedBoundaryGraph) -> np.ndarray:
    """The matrix A_B Deg^{-1} A_Omega on Omega (difference of the Dirichlet
    and Neumann operators), computed once per graph object.  Its diagonal is
    the boundary influence s(z) = sum_x w_zx^2 / (m_z W_x)."""
    return graph.derived("neumann_coupling", _coupling)


def _coupling(graph: WeightedBoundaryGraph) -> np.ndarray:
    # (w_Omega,B @ (w_B,Omega / W_B)) / m_Omega, with W_B the boundary rows'
    # weight sums, finite and positive on a valid graph.  Each quotient is at
    # most 1, so no product overflows, and summing over x before the one
    # division by m_z keeps terms that w_zx / m_z would underflow
    b, omega = graph.boundary, graph.interior
    w_b = graph.weights[np.ix_(b, omega)]
    average = w_b / w_b.sum(axis=1)[:, None]  # the normal extension's weights
    return (graph.weights[np.ix_(omega, b)] @ average) / graph.measure[omega][:, None]


def neumann_laplacian(graph: WeightedBoundaryGraph) -> SelfAdjointOperator:
    """Negated Neumann Laplacian on Omega (vanishing normal derivative)."""
    mat = operator_by_label(graph, "DirichletLaplacian").matrix - neumann_coupling(graph)
    return SelfAdjointOperator(mat, graph.measure[graph.interior])


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
