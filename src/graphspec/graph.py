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
from operator import itemgetter

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
    nonpositive curvature bound, or forms that overflow the float range or
    that LAPACK does not converge on.  Distinct from a failed certificate."""


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
        """Take C-contiguous float copies of the measure and weights and an
        index copy of the boundary, and make all three read-only, so the
        caller's arrays stay writable and unshared.  The boundary is cast to
        indices, flattened, and sorted with repeats dropped, whatever its
        order, by sorted(set(...)): numpy's unique imports numpy.ma on its
        first call."""
        m = np.array(self.measure, dtype=float, order="C")
        w = np.array(self.weights, dtype=float, order="C")
        b = np.array(self.boundary, dtype=np.intp).ravel()
        b = np.array(sorted(set(b.tolist())), dtype=np.intp)
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
        """Yield (u, v, weight) with u < v for every nonzero weight, as
        Python ints and floats."""
        iu, iv = np.nonzero(np.triu(self.weights, k=1))
        yield from zip(iu.tolist(), iv.tolist(), self.weights[iu, iv].tolist())

    def is_unit_weight(self) -> bool:
        w = self.weights
        return bool(np.all(self.measure == 1.0) and np.all((w == 0.0) | (w == 1.0)))

    def is_normalized(self) -> bool:
        return bool(np.all(np.abs(degree_vector(self) - 1.0) <= NORMALIZED_TOL))


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


def _hop_distances(adjacency: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop distances from the vertices each row of the boolean ``sources``
    marks, along the arcs ``i -> j`` where ``adjacency[i, j]`` holds, with
    ``inf`` where a vertex is not reached.  The vertices first reached at hop
    ``h`` come from one boolean product of the hop ``h - 1`` frontier with
    the adjacency."""
    adj = adjacency.astype(float)
    reached = np.array(sources, dtype=bool)
    dist = np.where(reached, 0.0, np.inf)
    frontier, hop = reached, 0
    while frontier.any():
        hop += 1
        frontier = (frontier @ adj > 0.0) & ~reached
        reached |= frontier
        dist[frontier] = hop
    return dist


def _graph_distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """All-pairs hop distances on the support of the weights, ``inf`` between
    components: the search from every vertex at once."""
    return _hop_distances(graph.weights > 0.0, np.eye(graph.vertex_count, dtype=bool))


def distances(graph: WeightedBoundaryGraph) -> np.ndarray:
    """Hop distances of ``graph``, computed once per graph object."""
    return graph.derived("distances", _graph_distances)


def component_count(graph: WeightedBoundaryGraph) -> int:
    """The number of connected components, read from the memoized hop
    distances: each component is counted at its smallest vertex, the first
    vertex that each of its members reaches."""
    if graph.vertex_count == 0:
        return 0
    labels = np.isfinite(distances(graph)).argmax(axis=1)
    return int(np.count_nonzero(labels == np.arange(labels.size)))


def validate(graph: WeightedBoundaryGraph, require_boundary: bool = True) -> None:
    """Raise GraphValidationError on the first violated invariant.

    Violations are checked in a fixed order so messages are deterministic:
    NonfiniteValue (NaN or infinite measure, then weight), SelfLoop,
    AsymmetricWeight, NegativeWeight, NonpositiveMeasure, NonfiniteValue
    (a weighted degree that overflows, then one whose double does),
    EmptyBoundary, BoundaryEdge, IsolatedBoundaryVertex, Disconnected.

    The row sums of w are taken once, for the degree test and the isolated
    boundary test.  Disconnected is the first vertex that the closure of
    vertex 0 leaves out; the all-pairs distances are not built here.
    """
    m, w = graph.measure, graph.weights
    if not np.isfinite(m).all():
        raise GraphValidationError("NonfiniteValue", _first(~np.isfinite(m)))
    if not np.isfinite(w).all():
        raise GraphValidationError("NonfiniteValue", _first(~np.isfinite(w)))
    if w.diagonal().any():
        raise GraphValidationError("SelfLoop", _first(w.diagonal() != 0.0))
    if not (w == w.T).all():
        raise GraphValidationError("AsymmetricWeight", _first(w != w.T))
    if (w < 0.0).any():
        raise GraphValidationError("NegativeWeight", _first(w < 0.0))
    if not (m > 0.0).all():
        raise GraphValidationError("NonpositiveMeasure", _first(m <= 0.0))
    # every eigenvalue and curvature is at most 2 max Deg, so that must be
    # finite too; finite entries can still overflow, e.g. a weight of 1e300
    # over a measure of 1e-320
    with np.errstate(over="ignore"):
        row_sums = w.sum(axis=1)
        deg = row_sums / m
        if not np.isfinite(2.0 * deg).all():
            bad = ~np.isfinite(deg)
            raise GraphValidationError(
                "NonfiniteValue", _first(bad if bad.any() else ~np.isfinite(2.0 * deg)))
    if require_boundary:
        b = graph.boundary
        if b.size == 0:
            raise GraphValidationError("EmptyBoundary")
        inside = w[b][:, b] > 0.0
        if inside.any():
            u, v = _first(inside)
            raise GraphValidationError("BoundaryEdge", (int(b[u]), int(b[v])))
        # with no boundary edge, a boundary row's weight is all on the
        # interior (Def. condition (ii)); no interior at all leaves it 0
        isolated = row_sums[b] == 0.0
        if isolated.any():
            raise GraphValidationError("IsolatedBoundaryVertex", int(b[_first(isolated)]))
    n = graph.vertex_count
    if n:
        # the vertices within k hops of vertex 0, from one boolean product
        # per hop, until the count stops growing
        adj = w > 0.0
        adj.flat[:: n + 1] = True  # each vertex reaches itself
        reached, count = adj[0], 1
        size = np.count_nonzero(reached)
        while count < size < n:
            count = size
            reached = reached @ adj
            size = np.count_nonzero(reached)
        if size < n:
            raise GraphValidationError("Disconnected", _first(~reached))


def _first(mask: np.ndarray):
    """The first index that ``mask`` marks, in row-major order: an int, or
    for a matrix a (row, column) pair of ints."""
    flat = int(mask.argmax())
    return flat if mask.ndim == 1 else tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def degree_vector(graph: WeightedBoundaryGraph) -> np.ndarray:
    """Deg(x) = sum_y w_xy / m_x, the one sum of each row that every
    operator, tolerance and normalization test reads."""
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
    """(V_Omega, V_B, V_G): total measure of interior, boundary, everything.

    V_Omega is summed over Omega, not taken as V_G - V_B, which cancels to 0
    when the boundary measures dwarf the interior's."""
    m = graph.measure
    return float(m[graph.interior].sum()), float(m[graph.boundary].sum()), float(m.sum())


# ---------------------------------------------------------------------------
# JSON format: {"vertices": [{"id", "measure"}...],
#               "edges": [{"u", "v", "weight"}...], "boundary": [int...]}

_TOP_KEYS = ("vertices", "edges", "boundary")  # in the order a missing key is named
_TOP_KEY_SET = frozenset(_TOP_KEYS)


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


def _records(doc: dict, key: str, fields: tuple, name: str) -> list:
    items = doc[key]
    if not isinstance(items, list):
        raise GraphFormatError(f"{key} must be a list")
    for item in items:
        if not isinstance(item, dict) or item.keys() != set(fields):
            raise GraphFormatError(f"bad {name} record: {item!r}")
    return items


def _by_records(doc) -> WeightedBoundaryGraph:
    """The graph of ``doc``, read and checked one record at a time in
    document order; the first fault raises its ``GraphFormatError``."""
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be an object")
    unknown = set(doc) - _TOP_KEY_SET
    if unknown:
        raise GraphFormatError(f"unknown keys: {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise GraphFormatError(f"missing key: {key}")
    verts = _records(doc, "vertices", ("id", "measure"), "vertex")
    n = len(verts)
    ids = [_vertex_index(v["id"], n, "vertex id") for v in verts]
    if len(set(ids)) < n:  # n ids, each in 0..n-1
        raise GraphFormatError("each vertex id must appear once")
    measure = np.empty(n)
    for i, v in zip(ids, verts):
        measure[i] = _number(v["measure"], f"measure of vertex {i}")
    weights = np.zeros((n, n))
    seen = set()
    for e in _records(doc, "edges", ("u", "v", "weight"), "edge"):
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
        measure=measure, weights=weights, boundary=np.array(boundary, dtype=np.intp))


def _columns(items, fields: tuple):
    """One list per field of the records ``items``, or ``None`` unless
    ``items`` is a list of plain dicts, each with exactly the keys ``fields``."""
    if (type(items) is not list or set(map(type, items)) - {dict}
            or set(map(len, items)) - {len(fields)}):
        return None
    try:
        return [list(map(itemgetter(f), items)) for f in fields]
    except KeyError:
        return None


def _by_columns(doc):
    """The graph of ``doc`` with each field read as one column over its
    records, or ``None`` when ``doc`` has a fault of any kind; which fault
    comes first is left to ``_by_records``.  The vertex ids, both edge ends
    and the boundary are joined into one list, which gets one type test, one
    range test and one conversion; so are the measures and the weights."""
    if not isinstance(doc, dict) or doc.keys() != _TOP_KEY_SET:
        return None
    vertices = _columns(doc["vertices"], ("id", "measure"))
    edges = _columns(doc["edges"], ("u", "v", "weight"))
    if vertices is None or edges is None or type(doc["boundary"]) is not list:
        return None
    n, k = len(vertices[0]), len(edges[0])
    indices = vertices[0] + edges[0] + edges[1] + doc["boundary"]
    numbers = vertices[1] + edges[2]
    if (set(map(type, indices)) - {int} or set(map(type, numbers)) - {int, float}
            or indices and not 0 <= min(indices) <= max(indices) < n):
        return None
    try:
        numbers = np.array(numbers, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    indices = np.array(indices, dtype=np.intp)
    ids, us, vs = indices[:n], indices[n:n + k], indices[n + k:n + 2 * k]
    # n distinct ids mark n cells of the last row, and k edges with distinct
    # ends and no pair twice 2k cells above it; a repeated id, loop or pair
    # marks fewer.  The table takes an eighth of the weights' bytes
    seen = np.zeros((n + 1, n), dtype=bool)
    seen[n, ids] = seen[us, vs] = seen[vs, us] = True
    if np.count_nonzero(seen) != n + 2 * k:
        return None
    measure = np.empty(n)
    measure[ids] = numbers[:n]
    weights = np.zeros((n, n))
    weights[us, vs] = numbers[n:]
    weights[vs, us] = numbers[n:]
    return WeightedBoundaryGraph(measure=measure, weights=weights, boundary=indices[n + 2 * k:])


def from_json_dict(doc: dict) -> WeightedBoundaryGraph:
    """The graph of a JSON document.  A sound document is read by column,
    each field over all its records at once.  Any other is read again one
    record at a time, and the ``GraphFormatError`` of its first fault is
    raised.  The checks run in this order: the document is an object, no
    unknown top-level key, then the first missing key of vertices, edges,
    boundary; the vertex records, their ids (then that each appears once),
    their measures; the edge records, then per edge u, v, u != v, no earlier
    record for the pair, the weight; and last the boundary entries."""
    graph = _by_columns(doc)
    return _by_records(doc) if graph is None else graph


def to_json_dict(graph: WeightedBoundaryGraph) -> dict:
    return {
        "vertices": [
            {"id": i, "measure": m} for i, m in enumerate(graph.measure.tolist())
        ],
        "edges": [
            {"u": u, "v": v, "weight": w} for u, v, w in graph.edges()
        ],
        "boundary": graph.boundary.tolist(),
    }


def loads(text: str) -> WeightedBoundaryGraph:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return from_json_dict(doc)


# how json writes the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: list) -> list:
    """Each float of ``values`` as ``json`` writes it."""
    return [_NONFINITE.get(t, t) for t in map(repr, values)]


def _json_list(items: list) -> str:
    """The text of a JSON list whose items are already written, at the depth
    of a top-level key."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def dumps(graph: WeightedBoundaryGraph) -> str:
    """The text of ``json.dumps(to_json_dict(graph), indent=2,
    sort_keys=True)``, written directly from the columns of the graph: the
    standard library's indented encoder is pure Python."""
    iu, iv = np.nonzero(np.triu(graph.weights, k=1))
    weights = _float_texts(graph.weights[iu, iv].tolist())
    measures = _float_texts(graph.measure.tolist())
    boundary = [f"    {b}" for b in graph.boundary.tolist()]
    edges = [f'    {{\n      "u": {u},\n      "v": {v},\n      "weight": {w}\n    }}'
             for u, v, w in zip(iu.tolist(), iv.tolist(), weights)]
    vertices = [f'    {{\n      "id": {i},\n      "measure": {m}\n    }}'
                for i, m in enumerate(measures)]
    return (f'{{\n  "boundary": {_json_list(boundary)},\n  "edges": {_json_list(edges)},'
            f'\n  "vertices": {_json_list(vertices)}\n}}')


def load(path, hasher=None) -> WeightedBoundaryGraph:
    """The graph in the file at ``path``, which is read once.  ``hasher``, a
    ``hashlib`` object, is fed exactly the bytes that are parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if hasher is not None:
        hasher.update(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    if "\r" in text:  # line ends as a text-mode read translates them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return loads(text)


def save(graph: WeightedBoundaryGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(graph))
        fh.write("\n")
