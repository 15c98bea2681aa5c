"""Weighted graphs with boundary: data model, validation and JSON I/O.

A graph is a triple (measure, weights, boundary): positive vertex masses
``m``, a symmetric nonnegative weight matrix ``w`` with zero diagonal, and a
set ``B`` of boundary vertices.  The interior is ``Omega = V \\ B``.  A
boundary set is admissible when no two boundary vertices are adjacent and
every boundary vertex has at least one interior neighbour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# how far each weighted degree may sit from 1 on a normalized graph
NORMALIZED_TOL = 1e-12


class GraphValidationError(ValueError):
    """A structural invariant of the graph is violated.

    ``kind`` is one of: NonfiniteValue, SelfLoop, AsymmetricWeight,
    NegativeWeight, NonpositiveMeasure, EmptyBoundary, BoundaryEdge,
    IsolatedBoundaryVertex, Disconnected.  ``detail`` carries the offending
    vertex/edge indices.
    """

    def __init__(self, kind: str, detail=None):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail!r}" if detail is not None else kind)


class GraphFormatError(ValueError):
    """The on-disk graph document is malformed."""


class NotApplicable(RuntimeError):
    """The graph is outside a computation's scope: a weight model the
    computation is not defined for, a disconnected or edgeless graph, a
    nonpositive curvature bound, or forms that overflow the float range.
    Distinct from a failed certificate."""


@dataclass(frozen=True)
class WeightedBoundaryGraph:
    """Immutable weighted graph with an optional boundary partition.

    Vertices are the integers ``0 .. n-1``.  ``weights`` is a dense symmetric
    ``n x n`` matrix; ``boundary`` is a sorted index array (possibly empty,
    in which case the object is a plain weighted graph).

    The arrays are read-only, so values computed from a graph (its interior
    subgraph, operators, spectra, distances) are computed once per instance,
    by ``derived``.
    """

    measure: np.ndarray
    weights: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.measure, dtype=float))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        b = np.unique(np.asarray(self.boundary, dtype=np.intp))
        if m.ndim != 1 or w.shape != (m.size, m.size):
            raise GraphFormatError("measure/weights shape mismatch")
        if b.size and (b[0] < 0 or b[-1] >= m.size):
            raise GraphFormatError("boundary index out of range")
        object.__setattr__(self, "measure", m)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "boundary", b)
        m.setflags(write=False)
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "_derived", {})

    def derived(self, key, compute):
        """``compute(self)``, computed on the first request for ``key`` and
        kept on this instance; the ndarrays in the value are made read-only."""
        memo = self._derived
        if key not in memo:
            memo[key] = _read_only(compute(self))
        return memo[key]

    @property
    def vertex_count(self) -> int:
        return self.measure.size

    @property
    def interior(self) -> np.ndarray:
        """Sorted indices of Omega = V \\ B."""
        return self.derived("interior", _interior)

    def __eq__(self, other):
        if not isinstance(other, WeightedBoundaryGraph):
            return NotImplemented
        return (
            np.array_equal(self.measure, other.measure)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.boundary, other.boundary)
        )

    def edges(self):
        """Yield (u, v, weight) with u < v for every positive weight."""
        iu, iv = np.nonzero(np.triu(self.weights, k=1))
        for u, v in zip(iu, iv):
            yield int(u), int(v), float(self.weights[u, v])

    def is_unit_weight(self) -> bool:
        w = self.weights
        return bool(np.all(self.measure == 1.0) and np.all((w == 0.0) | (w == 1.0)))

    def is_normalized(self) -> bool:
        deg = self.weights.sum(axis=1) / self.measure
        return bool(np.all(np.abs(deg - 1.0) <= NORMALIZED_TOL))


def _interior(graph: WeightedBoundaryGraph) -> np.ndarray:
    mask = np.ones(graph.vertex_count, dtype=bool)
    mask[graph.boundary] = False
    return np.flatnonzero(mask)


def _read_only(value):
    """``value`` with its ndarrays (itself, or its attributes) made read-only."""
    for a in (value, *getattr(value, "__dict__", {}).values()):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return value


def _graph_distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """All-pairs hop distances on the support of the weights, ``inf`` between
    components.  The vertices first reached at hop ``h`` come from one
    boolean product of the hop ``h - 1`` frontier with the adjacency."""
    adj = (graph.weights > 0.0).astype(float)
    reached = np.eye(adj.shape[0], dtype=bool)
    dist = np.where(reached, 0.0, np.inf)
    frontier, hop = reached, 0
    while frontier.any():
        hop += 1
        frontier = (frontier @ adj > 0.0) & ~reached
        reached |= frontier
        dist[frontier] = hop
    return dist


def distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """Hop distances of ``graph``, computed once per graph object."""
    return graph.derived("distances", _graph_distances)


def _components(graph: WeightedBoundaryGraph) -> np.ndarray:
    """Connected-component labels: each vertex is labelled by the smallest
    vertex it reaches."""
    return np.isfinite(distances(graph)).argmax(axis=1)


def component_count(graph: WeightedBoundaryGraph) -> int:
    if graph.vertex_count == 0:
        return 0
    labels = _components(graph)
    return int(np.count_nonzero(labels == np.arange(labels.size)))


def validate(graph: WeightedBoundaryGraph, require_boundary: bool = True) -> None:
    """Raise GraphValidationError on the first violated invariant.

    Violations are checked in a fixed order so messages are deterministic:
    NonfiniteValue (NaN or infinite measure, then weight), SelfLoop,
    AsymmetricWeight, NegativeWeight, NonpositiveMeasure, NonfiniteValue
    (a weighted degree that overflows, then one whose double does),
    EmptyBoundary, BoundaryEdge, IsolatedBoundaryVertex, Disconnected.
    """
    w = graph.weights
    bad_m = np.flatnonzero(~np.isfinite(graph.measure))
    if bad_m.size:
        raise GraphValidationError("NonfiniteValue", int(bad_m[0]))
    bad_w = np.argwhere(~np.isfinite(w))
    if bad_w.size:
        u, v = bad_w[0]
        raise GraphValidationError("NonfiniteValue", (int(u), int(v)))
    diag = np.flatnonzero(np.diag(w) != 0.0)
    if diag.size:
        raise GraphValidationError("SelfLoop", int(diag[0]))
    asym = np.argwhere(w != w.T)
    if asym.size:
        u, v = asym[0]
        raise GraphValidationError("AsymmetricWeight", (int(u), int(v)))
    neg = np.argwhere(w < 0.0)
    if neg.size:
        u, v = neg[0]
        raise GraphValidationError("NegativeWeight", (int(u), int(v)))
    bad_m = np.flatnonzero(graph.measure <= 0.0)
    if bad_m.size:
        raise GraphValidationError("NonpositiveMeasure", int(bad_m[0]))
    # finite entries can still overflow, e.g. a weight of 1e300 over a measure
    # of 1e-320; every eigenvalue and curvature is at most 2 max Deg, so that
    # must be finite too
    with np.errstate(over="ignore"):
        deg = w.sum(axis=1) / graph.measure
        for bound in (deg, 2.0 * deg):
            bad_deg = np.flatnonzero(~np.isfinite(bound))
            if bad_deg.size:
                raise GraphValidationError("NonfiniteValue", int(bad_deg[0]))
    if require_boundary:
        b = graph.boundary
        if b.size == 0:
            raise GraphValidationError("EmptyBoundary")
        inside = np.argwhere(w[np.ix_(b, b)] > 0.0)
        if inside.size:
            u, v = inside[0]
            raise GraphValidationError("BoundaryEdge", (int(b[u]), int(b[v])))
        omega = graph.interior
        if omega.size == 0:
            # no interior vertex can satisfy Def. condition (ii)
            raise GraphValidationError("IsolatedBoundaryVertex", int(b[0]))
        isolated = np.flatnonzero(w[np.ix_(b, omega)].sum(axis=1) == 0.0)
        if isolated.size:
            raise GraphValidationError("IsolatedBoundaryVertex", int(b[isolated[0]]))
    if graph.vertex_count:
        # vertex 0 has label 0; a nonzero label marks a vertex it does not reach
        outside = np.flatnonzero(_components(graph))
        if outside.size:
            raise GraphValidationError("Disconnected", int(outside[0]))


def degree_vector(graph: WeightedBoundaryGraph) -> np.ndarray:
    return graph.weights.sum(axis=1) / graph.measure


def boundary_degree_vector(graph: WeightedBoundaryGraph) -> np.ndarray:
    omega = graph.interior
    return graph.weights[np.ix_(omega, graph.boundary)].sum(axis=1) / graph.measure[omega]


def interior_subgraph(graph: WeightedBoundaryGraph) -> WeightedBoundaryGraph:
    """The plain weighted graph induced on Omega (may be disconnected), one
    object per graph object, so its own derived values are computed once."""
    return graph.derived("interior_subgraph", _interior_subgraph)


def _interior_subgraph(graph: WeightedBoundaryGraph) -> WeightedBoundaryGraph:
    omega = graph.interior
    return WeightedBoundaryGraph(
        measure=graph.measure[omega],
        weights=graph.weights[np.ix_(omega, omega)],
        boundary=np.array([], dtype=np.intp),
    )


def volumes(graph: WeightedBoundaryGraph) -> tuple[float, float, float]:
    """(V_Omega, V_B, V_G): total measure of interior, boundary, everything."""
    vb = float(graph.measure[graph.boundary].sum())
    vg = float(graph.measure.sum())
    return vg - vb, vb, vg


# ---------------------------------------------------------------------------
# JSON format: {"vertices": [{"id", "measure"}...],
#               "edges": [{"u", "v", "weight"}...], "boundary": [int...]}

_TOP_KEYS = {"vertices", "edges", "boundary"}


def _number(value, what) -> float:
    """A JSON number as a float (NaN and infinities pass; ``validate``
    rejects them)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{what} must be a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise GraphFormatError(f"{what} is out of range: {value!r}") from None


def _vertex_index(value, n: int, what) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{what} must be an integer: {value!r}")
    if not 0 <= value < n:
        raise GraphFormatError(f"{what} out of range: {value!r}")
    return value


def _records(doc: dict, key: str, fields: set, name: str) -> list:
    items = doc[key]
    if not isinstance(items, list):
        raise GraphFormatError(f"{key} must be a list")
    for item in items:
        if not isinstance(item, dict) or set(item) != fields:
            raise GraphFormatError(f"bad {name} record: {item!r}")
    return items


def from_json_dict(doc: dict) -> WeightedBoundaryGraph:
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise GraphFormatError(f"unknown keys: {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise GraphFormatError(f"missing key: {key}")
    verts = _records(doc, "vertices", {"id", "measure"}, "vertex")
    n = len(verts)
    ids = [_vertex_index(v["id"], n, "vertex id") for v in verts]
    if len(set(ids)) < n:  # n ids, each in 0..n-1
        raise GraphFormatError("each vertex id must appear once")
    measure = np.empty(n)
    for i, v in zip(ids, verts):
        measure[i] = _number(v["measure"], f"measure of vertex {i}")
    weights = np.zeros((n, n))
    seen = set()
    for e in _records(doc, "edges", {"u", "v", "weight"}, "edge"):
        u = _vertex_index(e["u"], n, "edge endpoint")
        v = _vertex_index(e["v"], n, "edge endpoint")
        if u == v:
            raise GraphFormatError(f"bad edge endpoints: {e!r}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise GraphFormatError(f"duplicate edge records for the pair {pair}")
        seen.add(pair)
        weights[u, v] = weights[v, u] = _number(e["weight"], f"weight of edge {pair}")
    if not isinstance(doc["boundary"], list):
        raise GraphFormatError("boundary must be a list")
    boundary = [_vertex_index(b, n, "boundary index") for b in doc["boundary"]]
    return WeightedBoundaryGraph(
        measure=measure, weights=weights, boundary=np.asarray(boundary, dtype=np.intp)
    )


def to_json_dict(graph: WeightedBoundaryGraph) -> dict:
    return {
        "vertices": [
            {"id": i, "measure": float(graph.measure[i])}
            for i in range(graph.vertex_count)
        ],
        "edges": [
            {"u": u, "v": v, "weight": w} for u, v, w in graph.edges()
        ],
        "boundary": [int(b) for b in graph.boundary],
    }


def loads(text: str) -> WeightedBoundaryGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return from_json_dict(doc)


def dumps(graph: WeightedBoundaryGraph) -> str:
    return json.dumps(to_json_dict(graph), indent=2, sort_keys=True)


def load(path) -> WeightedBoundaryGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    return loads(text)


def save(graph: WeightedBoundaryGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(graph))
        fh.write("\n")
