import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspec.graph import (
    GraphFormatError,
    GraphValidationError,
    WeightedBoundaryGraph,
    boundary_degree_vector,
    component_count,
    degree_vector,
    dumps,
    from_json_dict,
    interior_degree_vector,
    interior_subgraph,
    loads,
    to_json_dict,
    validate,
    volumes,
)
from graphspec.fixtures import path_graph, random_graph


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

    def test_self_loop_reported_before_negative_weight(self):
        g = graph_from([1, 1], [[1, -1], [-1, 0]], [0])
        assert kind_of(g) == "SelfLoop"

    def test_negative_reported_before_bad_measure(self):
        g = graph_from([1, -1], [[0, -1], [-1, 0]], [0])
        assert kind_of(g) == "NegativeWeight"

    def test_valid_graph_passes(self, p3_two_ends):
        validate(p3_two_ends)

    def test_interior_subgraph_skips_boundary_requirement(self, p3_two_ends):
        sub = interior_subgraph(p3_two_ends)
        validate(sub, require_boundary=False)


class TestDegrees:
    @pytest.mark.parametrize("seed", range(10))
    def test_degree_splits_into_interior_and_boundary_parts(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 10)
        omega = g.interior
        total = degree_vector(g)[omega]
        parts = interior_degree_vector(g) + boundary_degree_vector(g)
        assert np.abs(total - parts).max() <= 1e-12 * max(1.0, total.max())

    def test_volumes_add_up(self, k22):
        v_om, v_b, v_g = volumes(k22)
        assert v_om + v_b == v_g == 4.0

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


class TestJson:
    def test_round_trip_reconstruction(self, k22):
        assert loads(dumps(k22)) == k22

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


def test_path_graph_shape():
    g = path_graph(4, boundary=[0, 3], weights=[2.0, 1.0, 0.5])
    assert list(g.edges()) == [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 0.5)]
    assert list(g.interior) == [1, 2]


def test_immutability(p3_two_ends):
    with pytest.raises(ValueError):
        p3_two_ends.weights[0, 1] = 5.0
