import collections
import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphspec
from graphspec.graph import (
    GraphFormatError,
    GraphValidationError,
    WeightedBoundaryGraph,
    _graph_distances,
    _hop_distances,
    boundary_degree_vector,
    component_count,
    degree_vector,
    dumps,
    from_json_dict,
    interior_subgraph,
    load,
    loads,
    to_json_dict,
    validate,
    volumes,
)
from graphspec.fixtures import random_graph

from builders import complete_bipartite, path_graph, rigidity_overflow_graph
from oracle import graph_from_json_sequential, hop_distances_bfs, validate_reference


def graph_from(measure, weights, boundary):
    return WeightedBoundaryGraph(
        measure=np.asarray(measure, dtype=float),
        weights=np.asarray(weights, dtype=float),
        boundary=np.asarray(boundary, dtype=np.intp),
    )


def kind_of(graph):
    with pytest.raises(GraphValidationError) as err:
        validate(graph)
    return err.value.kind


class TestConstruction:
    @pytest.mark.parametrize("measure,weights", [
        (np.ones(3), np.zeros((2, 2))),
        (np.ones((3, 1)), np.zeros((3, 3))),
    ])
    def test_shape_mismatch_rejected(self, measure, weights):
        with pytest.raises(GraphFormatError, match="^measure/weights shape mismatch$"):
            WeightedBoundaryGraph(measure=measure, weights=weights, boundary=[])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_boundary_index_out_of_range_rejected(self, index):
        with pytest.raises(GraphFormatError, match="^boundary index out of range$"):
            WeightedBoundaryGraph(measure=np.ones(3), weights=np.zeros((3, 3)),
                                  boundary=[index])


    @pytest.mark.parametrize("boundary, want", [
        ([3, 1, 1], [1, 3]),
        ([2, 0], [0, 2]),
        ([[2, 0], [0, 1]], [0, 1, 2]),
        ([[0, 1], [2, 3]], [0, 1, 2, 3]),
        ([1, 3], [1, 3]),
        ([2], [2]),
        ([], []),
    ])
    def test_boundary_is_a_sorted_distinct_read_only_copy(self, boundary, want):
        given = np.array(boundary, dtype=np.intp)
        g = WeightedBoundaryGraph(measure=np.ones(4), weights=np.zeros((4, 4)), boundary=given)
        assert g.boundary.dtype == np.intp and g.boundary.ndim == 1
        assert g.boundary.tolist() == want
        assert not g.boundary.flags.writeable
        assert given.flags.writeable and not np.shares_memory(given, g.boundary)

    def test_unsorted_repeated_boundary_does_not_import_numpy_ma(self, tmp_path):
        # a process's first np.unique imports numpy.ma; a file that lists its
        # boundary descending with a repeat is read, and compared, in a fresh
        # interpreter without it
        doc = to_json_dict(complete_bipartite(2, 3))
        doc["boundary"] = [1, 1, 0]
        path = tmp_path / "k23.json"
        path.write_text(json.dumps(doc))
        script = (
            "import contextlib, io, sys\n"
            "from graphspec.cli import main\n"
            "from graphspec.graph import load\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['compare', '--graph', sys.argv[1]])\n"
            "print(code, load(sys.argv[1]).boundary.tolist(), 'numpy.ma' in sys.modules)\n")
        src = str(Path(graphspec.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-W", "error", "-c", script, str(path)],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0 [0, 1] False\n"

    @pytest.mark.parametrize("dtype, order", [(float, "C"), (float, "F"), (np.int64, "C")])
    def test_measure_and_weights_are_read_only_float_copies(self, dtype, order):
        m = np.array([1, 2, 3], dtype=dtype)
        w = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=dtype, order=order)
        m0, w0 = m.copy(), w.copy()
        g = WeightedBoundaryGraph(measure=m, weights=w, boundary=[])
        for given, kept in ((m, g.measure), (w, g.weights)):
            assert kept.dtype == float and kept.flags.c_contiguous
            assert not kept.flags.writeable
            assert given.flags.writeable and not np.shares_memory(given, kept)
        # the caller's arrays are theirs to change: the graph is not
        m[0] = w[0, 1] = w[1, 0] = 5
        assert g.measure.tolist() == m0.tolist() and g.weights.tolist() == w0.tolist()


class TestValidationOrder:
    def test_self_loop(self):
        g = graph_from([1, 1], [[1, 1], [1, 0]], [0])
        assert kind_of(g) == "SelfLoop"

    def test_asymmetric(self):
        g = graph_from([1, 1], [[0, 1], [2, 0]], [0])
        assert kind_of(g) == "AsymmetricWeight"

    def test_negative(self):
        g = graph_from([1, 1], [[0, -1], [-1, 0]], [0])
        assert kind_of(g) == "NegativeWeight"

    def test_nonpositive_measure(self):
        g = graph_from([1, 0], [[0, 1], [1, 0]], [0])
        assert kind_of(g) == "NonpositiveMeasure"

    def test_empty_boundary(self):
        g = graph_from([1, 1], [[0, 1], [1, 0]], [])
        assert kind_of(g) == "EmptyBoundary"

    def test_boundary_edge(self):
        # triangle with two adjacent boundary vertices
        w = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        g = graph_from([1, 1, 1], w, [0, 1])
        assert kind_of(g) == "BoundaryEdge"

    def test_isolated_boundary_vertex(self):
        # vertex 0 is boundary but only 1-2 is an edge
        w = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
        g = graph_from([1, 1, 1], w, [0])
        assert kind_of(g) == "IsolatedBoundaryVertex"

    def test_no_interior(self):
        g = graph_from([1], [[0]], [0])
        assert kind_of(g) == "IsolatedBoundaryVertex"

    def test_disconnected(self):
        # boundary pendant 2-0, vertex 3 disconnected
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[0, 2] = w[2, 0] = 1.0
        g = graph_from([1, 1, 1, 1], w, [2])
        assert kind_of(g) == "Disconnected"

    @pytest.mark.parametrize("measure, weight", [(np.nan, 1.0), (1.0, np.inf)])
    def test_nonfinite_value(self, measure, weight):
        g = graph_from([1, measure], [[0, weight], [weight, 0]], [0])
        assert kind_of(g) == "NonfiniteValue"

    @pytest.mark.parametrize("boundary", [[0, 2], []], ids=["boundary", "no-boundary"])
    @pytest.mark.parametrize("measure, weight", [(1e-320, 1e300), (1.0, 1e308)])
    def test_overflowing_degree_is_nonfinite(self, measure, weight, boundary):
        # finite entries, but Deg(1) = w.sum(axis=1)[1] / m_1 overflows
        w = [[0, weight, 0], [weight, 0, weight], [0, weight, 0]]
        g = graph_from([1, measure, 1], w, boundary)
        with pytest.raises(GraphValidationError) as err:
            validate(g)
        assert (err.value.kind, err.value.detail) == ("NonfiniteValue", 1)

    def test_self_loop_reported_before_negative_weight(self):
        g = graph_from([1, 1], [[1, -1], [-1, 0]], [0])
        assert kind_of(g) == "SelfLoop"

    def test_negative_reported_before_bad_measure(self):
        g = graph_from([1, -1], [[0, -1], [-1, 0]], [0])
        assert kind_of(g) == "NegativeWeight"

    @pytest.mark.parametrize(
        "measure, weights, boundary, first",
        [
            # nonfinite measures before nonfinite weights, each at its first index
            ([1, np.inf, np.nan], [[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]], [0],
             ("NonfiniteValue", 1)),
            ([1, 1, 1], [[0, 1, np.inf], [1, 0, 1], [np.nan, 1, 0]], [0],
             ("NonfiniteValue", (0, 2))),
            # self-loops before asymmetry, negativity and measures
            ([1, -1, 1], [[0, 1, -1], [2, 3, 1], [1, 1, 5]], [0], ("SelfLoop", 1)),
            ([0, 1, 1], [[0, 1, 2], [1, 0, -1], [1, -2, 0]], [0], ("AsymmetricWeight", (0, 2))),
            ([1, 0, -1], [[0, 1, 0], [1, 0, -1], [0, -1, 0]], [], ("NegativeWeight", (1, 2))),
            ([1, 0, -1], [[0, 1, 0], [1, 0, 1], [0, 1, 0]], [], ("NonpositiveMeasure", 1)),
            # a degree whose double overflows comes after one that overflows itself
            ([1, 1, 1e-320], [[0, 1e308, 0], [1e308, 0, 1e300], [0, 1e300, 0]], [0, 1],
             ("NonfiniteValue", 2)),
            ([1, 1, 1, 1], [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], [],
             ("EmptyBoundary", None)),
            # boundary edges in row-major order, before isolated boundary vertices
            ([1] * 5, [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 1, 1],
                       [1, 0, 1, 0, 0], [0, 0, 1, 0, 0]], [0, 1, 2, 3],
             ("BoundaryEdge", (0, 3))),
            ([1] * 5, [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0],
                       [0, 0, 0, 0, 1], [0, 1, 0, 1, 0]], [0, 2, 3],
             ("IsolatedBoundaryVertex", 0)),
            # a boundary vertex whose only neighbour is a boundary vertex
            ([1] * 4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [1, 3],
             ("Disconnected", 2)),
            ([1] * 5, [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 1],
                       [0, 0, 0, 0, 0], [0, 0, 1, 0, 0]], [0], ("Disconnected", 2)),
        ],
    )
    def test_first_of_several_violations(self, measure, weights, boundary, first):
        with pytest.raises(GraphValidationError) as err:
            validate(graph_from(measure, weights, boundary))
        assert (err.value.kind, err.value.detail) == first

    def test_valid_graph_passes(self, p3_two_ends):
        validate(p3_two_ends)

    def test_interior_subgraph_skips_boundary_requirement(self, p3_two_ends):
        sub = interior_subgraph(p3_two_ends)
        validate(sub, require_boundary=False)


# entries that break, or nearly break, an entry check, and one that keeps it
ENTRY_EDITS = [np.nan, np.inf, -np.inf, -1.0, 0.0, -0.0, 1e308, 5e-324, 2.5]


def _mutant(graph, rng):
    """``graph`` with one to three random faults (or near-faults)."""
    m, w, b = graph.measure.copy(), graph.weights.copy(), graph.boundary.tolist()
    n = m.size
    for _ in range(rng.integers(1, 4)):
        edit = rng.integers(8)
        i, j = rng.integers(n, size=2).tolist()
        value = ENTRY_EDITS[rng.integers(len(ENTRY_EDITS))]
        if edit == 0:
            m[i] = value
        elif edit == 1:  # on the diagonal when i == j
            w[i, j] = w[j, i] = value
        elif edit == 2:  # one side only
            w[i, j] = value
        elif edit == 3:
            iu, iv = np.nonzero(np.triu(w, k=1))
            if iu.size:
                k = rng.integers(iu.size)
                w[iu[k], iv[k]] = w[iv[k], iu[k]] = 0.0
        elif edit == 4:  # every edge at i
            w[i, :] = w[:, i] = 0.0
        elif edit == 5 and len(b) > 1:
            u, v = rng.choice(b, size=2, replace=False).tolist()
            w[u, v] = w[v, u] = 1.0
        elif edit == 6:
            b = []
        else:
            b.append(i)
    return WeightedBoundaryGraph(measure=m, weights=w, boundary=b)


def _validation_outcome(check, graph, require_boundary):
    try:
        check(graph, require_boundary)
    except GraphValidationError as err:
        return err.kind, err.detail
    return None


class TestValidationAgainstReference:
    """``validate`` against the oracle's one-test-per-invariant referee, on
    mutated corpus graphs: the same pass, or the same kind and detail."""

    def test_same_outcome_on_mutated_corpus_graphs(self, corpus):
        rng = np.random.default_rng(0)
        kinds = collections.Counter()
        for graph in corpus:
            for _ in range(8):
                g = _mutant(graph, rng)
                for require_boundary in (True, False):
                    got = _validation_outcome(validate, g, require_boundary)
                    want = _validation_outcome(validate_reference, g, require_boundary)
                    assert got == want, (g, require_boundary)
                    kinds[want and want[0]] += 1
        assert set(kinds) == {
            None, "NonfiniteValue", "SelfLoop", "AsymmetricWeight", "NegativeWeight",
            "NonpositiveMeasure", "EmptyBoundary", "BoundaryEdge",
            "IsolatedBoundaryVertex", "Disconnected"}, kinds


class TestDegrees:
    @pytest.mark.parametrize("seed", range(10))
    def test_degree_splits_into_interior_and_boundary_parts(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 10)
        omega = g.interior
        total = degree_vector(g)[omega]
        parts = degree_vector(interior_subgraph(g)) + boundary_degree_vector(g)
        assert np.abs(total - parts).max() <= 1e-12 * max(1.0, total.max())

    def test_volumes_add_up(self, k22):
        v_om, v_b, v_g = volumes(k22)
        assert v_om + v_b == v_g == 4.0

    def test_interior_volume_does_not_cancel(self):
        # V_B = 1e150 swallows V_Omega = 2e-200 in V_G, so V_G - V_B is 0
        assert volumes(rigidity_overflow_graph("G2"))[0] == 2e-200

    def test_component_count(self, p3_two_ends):
        assert component_count(p3_two_ends) == 1
        assert component_count(interior_subgraph(p3_two_ends)) == 1

    def test_unit_and_normalized_predicates(self, k22):
        assert k22.is_unit_weight()
        assert not k22.is_normalized()
        half = WeightedBoundaryGraph(
            measure=k22.measure, weights=k22.weights / 2.0, boundary=k22.boundary
        )
        assert half.is_normalized()


def _sized_graph(rng, n, model):
    """A seeded generator draw with exactly ``n`` vertices."""
    while True:
        g = random_graph(rng, n, weight_model=model)
        if g.vertex_count == n:
            return g


def _block_diagonal(blocks, rng):
    """The disjoint union of ``blocks``, vertices shuffled so that the
    components interleave."""
    n = sum(g.vertex_count for g in blocks)
    w = np.zeros((n, n))
    start = 0
    for g in blocks:
        stop = start + g.vertex_count
        w[start:stop, start:stop] = g.weights
        start = stop
    order = rng.permutation(n)
    return graph_from(np.ones(n), w[np.ix_(order, order)], [])


def _reachability_cases():
    rng = np.random.default_rng(21)
    cases = {}
    for model in ("unit", "lognormal"):
        for n in (3, 7, 12, 24, 64):
            cases[f"{model}-{n}"] = _sized_graph(rng, n, model)
            cases[f"{model}-{n}-interior"] = interior_subgraph(cases[f"{model}-{n}"])
    for n in (1, 2, 5, 64):
        cases[f"path-{n}"] = path_graph(n)
    cases["blocks-paths"] = _block_diagonal([path_graph(k) for k in (1, 4, 2, 7, 1)], rng)
    cases["blocks-mixed"] = _block_diagonal(
        [_sized_graph(rng, 12, "lognormal"), path_graph(9), path_graph(1),
         _sized_graph(rng, 30, "unit")], rng)
    cases["edgeless"] = graph_from(np.ones(5), np.zeros((5, 5)), [])
    return cases


REACHABILITY_CASES = _reachability_cases()


class TestReachability:
    """Hop distances, component counts and the Disconnected detail are
    refereed exactly by the oracle's breadth-first search."""

    @pytest.mark.parametrize("name", sorted(REACHABILITY_CASES))
    def test_matches_breadth_first_search(self, name):
        g = REACHABILITY_CASES[name]
        want = hop_distances_bfs(g.weights)
        assert np.array_equal(_graph_distances(g), want)
        reached = np.isfinite(want)
        assert component_count(g) == len({row.tobytes() for row in reached})
        # the detail is the first vertex that vertex 0 does not reach
        unreached = np.flatnonzero(~reached[0])
        if unreached.size:
            with pytest.raises(GraphValidationError) as err:
                validate(g, require_boundary=False)
            assert (err.value.kind, err.value.detail) == ("Disconnected", int(unreached[0]))
        else:
            validate(g, require_boundary=False)

    @pytest.mark.parametrize("n, edges", [
        # 1-2 and 4 lie apart from 0-3-5
        (6, [(0, 3), (3, 5), (1, 2)]),
        # the joined pair 1-3 sits between the reached 0, 2 and 4
        (5, [(0, 4), (4, 2), (1, 3)]),
        # 0 alone beside a triangle
        (4, [(1, 2), (2, 3), (1, 3)]),
        # 0 reaches the last vertex in three hops; 2 and 5-6 are left out
        (7, [(0, 1), (1, 3), (3, 6), (4, 5)]),
    ])
    def test_disconnected_detail_is_the_first_vertex_left_unreached(self, n, edges):
        w = np.zeros((n, n))
        for u, v in edges:
            w[u, v] = w[v, u] = 1.0
        from_first = _hop_distances(w > 0.0, np.eye(1, n, dtype=bool))[0]
        unreached = np.flatnonzero(np.isinf(from_first))
        assert 1 < unreached.size and unreached[0] < n - 1
        with pytest.raises(GraphValidationError) as err:
            validate(graph_from(np.ones(n), w, []), require_boundary=False)
        assert (err.value.kind, err.value.detail) == ("Disconnected", int(unreached[0]))

    def test_empty_graph_has_no_components(self):
        assert component_count(graph_from([], np.zeros((0, 0)), [])) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_directed_search_from_source_subsets(self, seed):
        # arcs i -> j that need not run back; a row of sources marking one
        # vertex is that vertex's oracle row, and a row marking several is
        # the least of their rows
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            arcs = rng.random((n, n)) < rng.choice([0.1, 0.25, 0.5])
            want = hop_distances_bfs(arcs)
            chosen = np.flatnonzero(rng.random(n) < 0.5)
            sources = np.eye(n, dtype=bool)[chosen]
            assert np.array_equal(_hop_distances(arcs, sources), want[chosen])
            union = sources.any(axis=0, keepdims=True)
            least = want[chosen].min(axis=0, initial=np.inf)[None, :]
            assert np.array_equal(_hop_distances(arcs, union), least)


def _stdlib_text(graph):
    return json.dumps(to_json_dict(graph), indent=2, sort_keys=True)


# graphs the generator cannot draw: entries at the ends of the float range,
# no boundary, no edges, no vertices
WRITER_CASES = {
    "nonfinite": graph_from([np.nan, np.inf, -np.inf, 1.0],
                            [[0, np.nan, 0, np.inf], [np.nan, 0, -np.inf, 0],
                             [0, -np.inf, 0, 1e308], [np.inf, 0, 1e308, 0]], [0, 3]),
    "signed-zero-and-tiny": graph_from([-0.0, 5e-324, 1e308, 2.2250738585072014e-308],
                                       [[0, -0.0, 5e-324, 1], [-0.0, 0, 0.1, 0],
                                        [5e-324, 0.1, 0, -2.5], [1, 0, -2.5, 0]], [1]),
    "no-boundary": graph_from([1, 2], [[0, 1 / 3], [1 / 3, 0]], []),
    "no-edges": graph_from([1, 1, 1], np.zeros((3, 3)), [0, 2]),
    "no-vertices": graph_from([], np.zeros((0, 0)), []),
}


class TestJson:
    def test_round_trip_reconstruction(self, k22):
        assert loads(dumps(k22)) == k22

    @pytest.mark.parametrize("model", ["unit", "lognormal", "normalized", None])
    def test_writer_matches_the_standard_library_on_draws(self, model):
        rng = np.random.default_rng(3)
        for max_vertices in range(3, 50):
            g = random_graph(rng, max_vertices, weight_model=model)
            assert dumps(g) == _stdlib_text(g)

    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_writer_matches_the_standard_library_on_edge_cases(self, name):
        g = WRITER_CASES[name]
        assert dumps(g) == _stdlib_text(g)

    def test_round_trip_is_byte_exact(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 9, weight_model="lognormal")
        text = dumps(g)
        assert dumps(loads(text)) == text

    def test_unknown_top_level_key_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        doc["comment"] = "nope"
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    def test_missing_key_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        del doc["boundary"]
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    @pytest.mark.parametrize("hash_seed", ["1", "2", "3", "4"])
    def test_missing_key_message_does_not_depend_on_the_hash_seed(self, hash_seed):
        # the first missing key in the order vertices, edges, boundary, in a
        # fresh interpreter, since the string hash is fixed per process
        script = (
            "from graphspec.graph import GraphFormatError, from_json_dict\n"
            "for doc in ({'vertices': []}, {}):\n"
            "    try:\n"
            "        from_json_dict(doc)\n"
            "    except GraphFormatError as exc:\n"
            "        print(exc)\n")
        src = str(Path(graphspec.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines() == ["missing key: edges", "missing key: vertices"]

    def test_bad_vertex_record_rejected(self):
        doc = {"vertices": [{"id": 0}], "edges": [], "boundary": []}
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    def test_gapped_ids_rejected(self):
        doc = {
            "vertices": [{"id": 0, "measure": 1.0}, {"id": 2, "measure": 1.0}],
            "edges": [],
            "boundary": [],
        }
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    def test_duplicate_vertex_ids_rejected(self):
        doc = {
            "vertices": [{"id": 0, "measure": 1.0}, {"id": 0, "measure": 1.0}],
            "edges": [],
            "boundary": [],
        }
        with pytest.raises(GraphFormatError, match="^each vertex id must appear once$"):
            from_json_dict(doc)

    def test_self_loop_edge_record_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        doc["edges"][0]["v"] = doc["edges"][0]["u"]
        with pytest.raises(GraphFormatError, match="^bad edge endpoints"):
            from_json_dict(doc)

    def test_bad_edge_endpoints_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        doc["edges"][0]["v"] = 9
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    def test_boundary_out_of_range_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        doc["boundary"] = [5]
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    def test_invalid_json_rejected(self):
        with pytest.raises(GraphFormatError):
            loads("{not json")

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_are_read_as_newlines(self, tmp_path, p3_two_ends, newline):
        lf = dumps(p3_two_ends).encode() + b"\n"
        raw = lf.replace(b"\n", newline)
        path = tmp_path / "p3.json"
        path.write_bytes(raw)
        hasher = hashlib.sha256()
        assert load(path, hasher) == p3_two_ends
        assert hasher.hexdigest() == hashlib.sha256(raw).hexdigest()  # the raw bytes

    def test_malformed_crlf_document_reports_its_lf_position(self, tmp_path):
        lf = b'{\n  "vertices": [\n    {"id": 0,, "measure": 1.0}\n  ]\n}\n'
        messages = []
        for name, raw in (("lf", lf), ("crlf", lf.replace(b"\n", b"\r\n"))):
            path = tmp_path / f"{name}.json"
            path.write_bytes(raw)
            with pytest.raises(GraphFormatError) as err:
                load(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "line 3 column 14" in messages[0]

    def test_a_graph_is_never_equal_to_a_non_graph(self, p3_two_ends):
        assert (p3_two_ends == to_json_dict(p3_two_ends)) is False
        assert p3_two_ends != "p3"

    def test_extra_edge_key_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        doc["edges"][0]["color"] = "red"
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    @pytest.mark.parametrize(
        "where, value",
        [
            ("measure", "abc"),
            ("measure", None),
            ("measure", [1]),
            ("measure", True),
            ("measure", 10**400),
            ("id", "0"),
            ("id", 0.5),
            ("weight", [1]),
            ("weight", None),
            ("u", "1"),
            ("boundary", "x"),
            ("boundary", 1.5),
            ("boundary", 10**30),
        ],
    )
    def test_non_numeric_entries_rejected(self, p3_two_ends, where, value):
        doc = to_json_dict(p3_two_ends)
        if where in ("measure", "id"):
            doc["vertices"][0][where] = value
        elif where == "boundary":
            doc["boundary"][0] = value
        else:
            doc["edges"][0][where] = value
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    @pytest.mark.parametrize("key", ["vertices", "edges", "boundary"])
    def test_non_list_sections_rejected(self, p3_two_ends, key):
        doc = to_json_dict(p3_two_ends)
        doc[key] = 3
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    def test_non_object_record_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        doc["edges"][0] = ["u", "v", "weight"]
        with pytest.raises(GraphFormatError):
            from_json_dict(doc)

    def test_duplicate_edge_records_rejected(self, p3_two_ends):
        doc = to_json_dict(p3_two_ends)
        doc["edges"].append({"u": 1, "v": 0, "weight": 5.0})
        with pytest.raises(GraphFormatError, match=r"\(0, 1\)"):
            from_json_dict(doc)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        text = dumps(g)
        again = loads(text)
        assert again == g
        assert json.loads(text) == to_json_dict(g)


# The column parser against the sequential referee: each example draws a
# valid document, applies a few faults (or none) and parses it both ways.
INDEX_JUNK = st.sampled_from(
    [True, False, 0.0, 1.0, 2.5, -1, 6, 7, 10**30, -(10**30), 2**63, "1", None, [0]])
NUMBER_JUNK = st.sampled_from(
    [10**400, -(10**400), True, False, "1", None, [1.0], {}, 2**63 + 1, -(2**70) - 1,
     10**300, float("nan"), float("inf"), float("-inf"), -0.0, 0, 5e-324])
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-(2**70), 2**70))


@st.composite
def graph_documents(draw):
    n = draw(st.integers(0, 6))
    ids = draw(st.permutations(range(n)))
    vertices = [{"id": i, "measure": draw(NUMBERS)} for i in ids]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append({"u": u, "v": v, "weight": draw(NUMBERS)})
    boundary = draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
    return {"vertices": vertices, "edges": edges, "boundary": boundary}


def _pick(data, items):
    """A drawn item of ``items``, or ``None`` when it is empty."""
    return items[data.draw(st.integers(0, len(items) - 1))] if items else None


def _fault(doc, data):
    """Break ``doc`` in one drawn way; a fault that needs a record the
    document lacks leaves it as it is."""
    kind = data.draw(st.sampled_from([
        "id", "measure", "endpoint", "weight", "boundary", "reversed duplicate",
        "self-edge", "extra key", "missing key", "non-list section", "non-object record",
        "vertex order"]))
    sections = [doc.get(key) if isinstance(doc.get(key), list) else []
                for key in ("vertices", "edges", "boundary")]
    verts, edges, boundary = sections
    vertex = _pick(data, [r for r in verts if isinstance(r, dict) and {"id", "measure"} <= set(r)])
    edge = _pick(data, [r for r in edges if isinstance(r, dict) and {"u", "v", "weight"} <= set(r)])
    if kind == "id" and vertex:
        vertex["id"] = data.draw(INDEX_JUNK)
    elif kind == "measure" and vertex:
        vertex["measure"] = data.draw(NUMBER_JUNK)
    elif kind == "endpoint" and edge:
        edge[data.draw(st.sampled_from(["u", "v"]))] = data.draw(INDEX_JUNK)
    elif kind == "weight" and edge:
        edge["weight"] = data.draw(NUMBER_JUNK)
    elif kind == "boundary":
        boundary.insert(data.draw(st.integers(0, len(boundary))), data.draw(INDEX_JUNK))
    elif kind == "reversed duplicate" and edge:
        edges.insert(data.draw(st.integers(0, len(edges))),
                     {"u": edge["v"], "v": edge["u"], "weight": data.draw(NUMBERS)})
    elif kind == "self-edge":
        u = data.draw(st.integers(0, max(len(verts) - 1, 0)))
        edges.insert(data.draw(st.integers(0, len(edges))), {"u": u, "v": u, "weight": 1.0})
    elif kind == "extra key":
        target = _pick(data, [r for r in verts + edges if isinstance(r, dict)]) or doc
        target[data.draw(st.sampled_from(["id", "u", "color", "weight"]))] = 1
    elif kind == "missing key":
        target = _pick(data, [r for r in verts + edges if isinstance(r, dict) and r]) or doc
        if target:
            del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "non-list section" and doc:
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(
            st.sampled_from([3, {}, "x", None, (1,)]))
    elif kind == "non-object record" and (section := _pick(data, [s for s in (verts, edges) if s])):
        section[data.draw(st.integers(0, len(section) - 1))] = data.draw(
            st.sampled_from([[0, 1], None, 1, "u"]))
    elif kind == "vertex order":
        data.draw(st.randoms()).shuffle(verts)


def _parsed(parse, doc):
    """The arrays ``parse`` builds from a copy of ``doc``, with their dtypes
    and shapes, or the message of the ``GraphFormatError`` it raises."""
    try:
        g = parse(copy.deepcopy(doc))
    except GraphFormatError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (g.measure, g.weights, g.boundary)]


def _refuse_record_reading(doc):
    raise AssertionError("a sound document was read record by record")


class TestParserAgainstReference:
    @settings(max_examples=600)
    @given(doc=graph_documents(), faults=st.integers(0, 4), data=st.data())
    def test_same_arrays_or_same_message(self, doc, faults, data):
        for _ in range(faults):
            _fault(doc, data)
        assert _parsed(from_json_dict, doc) == _parsed(graph_from_json_sequential, doc)

    @pytest.mark.parametrize("seed", range(20))
    def test_generator_documents(self, seed):
        doc = to_json_dict(random_graph(np.random.default_rng(seed), 12))
        want = _parsed(graph_from_json_sequential, doc)
        assert isinstance(want, list)
        assert _parsed(from_json_dict, doc) == want

    # the record reader gives the same graph as the column reader, only
    # slower, so no other test sees a column reader that turns sound
    # documents away
    @pytest.mark.parametrize("n", [12, 32])
    def test_generator_documents_are_read_by_column(self, monkeypatch, n):
        monkeypatch.setattr("graphspec.graph._by_records", _refuse_record_reading)
        for seed in range(20):
            g = random_graph(np.random.default_rng(seed), n)
            assert from_json_dict(to_json_dict(g)) == g

    @settings(max_examples=200)
    @given(doc=graph_documents())
    def test_sound_documents_are_read_by_column(self, doc):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("graphspec.graph._by_records", _refuse_record_reading)
            parsed = _parsed(from_json_dict, doc)
        assert parsed == _parsed(graph_from_json_sequential, doc)

    def test_other_mappings_and_integer_types(self, p3_two_ends):
        class Index(int):
            pass

        doc = to_json_dict(p3_two_ends)
        doc["vertices"] = [collections.OrderedDict(v) for v in doc["vertices"]]
        doc["edges"][0]["u"] = Index(doc["edges"][0]["u"])
        doc["boundary"][0] = Index(doc["boundary"][0])
        assert isinstance(_parsed(from_json_dict, doc), list)
        assert _parsed(from_json_dict, doc) == _parsed(graph_from_json_sequential, doc)
        # a record that makes up missing keys is still one with the wrong keys
        doc["edges"][1] = collections.defaultdict(float, u=1, v=2, color=1.0)
        assert _parsed(from_json_dict, doc).startswith("bad edge record: defaultdict")
        assert _parsed(from_json_dict, doc) == _parsed(graph_from_json_sequential, doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["vertices"][1].update(id=True), "vertex id must be an integer: True"),
            (lambda d: d["vertices"][1].update(id=1.0), "vertex id must be an integer: 1.0"),
            (lambda d: d["edges"][1].update(weight=10**400),
             f"weight of edge (1, 2) is out of range: {10**400!r}"),
            # the faulty weight of record 0 comes before the bad endpoint of record 1
            (lambda d: (d["edges"][0].update(weight="w"), d["edges"][1].update(u=9)),
             "weight of edge (0, 1) must be a number: 'w'"),
            (lambda d: (d["edges"][1].update(u=9), d["edges"][0].update(weight="w")),
             "weight of edge (0, 1) must be a number: 'w'"),
            # within one record: u before v, v before the self-edge test
            (lambda d: d["edges"][1].update(u=-1, v=True), "edge endpoint out of range: -1"),
            (lambda d: d["edges"][1].update(u=2, v=2),
             "bad edge endpoints: {'u': 2, 'v': 2, 'weight': 1.0}"),
            (lambda d: d["edges"].insert(1, {"u": 1, "v": 0, "weight": "w"}),
             "duplicate edge records for the pair (0, 1)"),
            (lambda d: (d["boundary"].append(3), d["vertices"][2].update(measure=None)),
             "measure of vertex 2 must be a number: None"),
            (lambda d: d["boundary"].extend([1, 2.0, -1]), "boundary index must be an integer: 2.0"),
        ],
    )
    def test_first_faulty_record_in_document_order(self, p3_two_ends, edit, message):
        doc = to_json_dict(p3_two_ends)
        edit(doc)
        with pytest.raises(GraphFormatError) as err:
            from_json_dict(doc)
        assert str(err.value) == message
        assert _parsed(graph_from_json_sequential, doc) == message


def test_path_graph_shape():
    g = path_graph(4, boundary=[0, 3], weights=[2.0, 1.0, 0.5])
    assert list(g.edges()) == [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 0.5)]
    assert list(g.interior) == [1, 2]


def test_immutability(p3_two_ends):
    with pytest.raises(ValueError):
        p3_two_ends.weights[0, 1] = 5.0
