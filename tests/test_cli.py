import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspec.cli import main
from graphspec.fixtures import complete_bipartite, path_graph, random_graph
from graphspec.graph import save, to_json_dict


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    save(path_graph(3, boundary=[0, 2]), path)
    return str(path)


@pytest.fixture()
def k22_file(tmp_path):
    path = tmp_path / "k22.json"
    save(complete_bipartite(2, 2), path)
    return str(path)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_validate_ok(self, capsys, p3_file):
        code, out = run(capsys, ["validate", "--graph", p3_file])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_validate_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _ = run(capsys, ["validate", "--graph", str(bad)])
        assert code == 4

    def test_validate_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"vertices": "\xff"}')
        code, _ = run(capsys, ["validate", "--graph", str(bad)])
        assert code == 4

    def test_validate_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, ["validate", "--graph", str(tmp_path / "none.json")])
        assert code == 4

    def test_validate_invalid_graph(self, capsys, tmp_path):
        # structurally invalid: adjacent boundary vertices
        doc = {
            "vertices": [{"id": i, "measure": 1.0} for i in range(3)],
            "edges": [
                {"u": 0, "v": 1, "weight": 1.0},
                {"u": 1, "v": 2, "weight": 1.0},
                {"u": 0, "v": 2, "weight": 1.0},
            ],
            "boundary": [0, 1],
        }
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, ["validate", "--graph", str(path)])
        assert code == 4

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_nan_measure_is_invalid_graph(self, capsys, tmp_path, command):
        g = path_graph(3, boundary=[0, 2], measure=[1.0, float("nan"), 1.0])
        path = tmp_path / "nan.json"
        save(g, path)
        code, out = run(capsys, [command, "--graph", str(path)])
        assert code == 4
        assert out == ""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["vertices"][1].update(measure="abc"),
            lambda doc: doc["vertices"][1].update(measure=None),
            lambda doc: doc["edges"][0].update(weight=[1]),
            lambda doc: doc["edges"].append({"u": 1, "v": 0, "weight": 5.0}),
        ],
        ids=["string-measure", "null-measure", "list-weight", "duplicate-edge"],
    )
    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_malformed_entries_are_invalid_graph(self, capsys, tmp_path, command, edit):
        doc = to_json_dict(path_graph(3, boundary=[0, 2]))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, [command, "--graph", str(path)])
        assert code == 4
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["random-audit", "--n", "-1"],
            ["random-audit", "--max-v", "2"],
            ["random-audit", "--max-v", "0"],
            ["random-audit", "--seed", "-1"],
            ["random-audit", "--tol", "-1"],
            ["compare", "--tol", "-1"],
            ["compare", "--tol", "nan"],
            ["certify", "--theorem", "NeuVsLap", "--tol", "-1e-9"],
            ["bounds", "--family", "fiedler", "--tol", "nan"],
            ["curvature", "--kind", "be", "--n", "abc"],
            ["curvature", "--kind", "be", "--n", "1"],
            ["curvature", "--kind", "be", "--n", "nan"],
        ],
    )
    def test_bad_argument_is_usage_error(self, capsys, p3_file, args):
        argv = args if args[0] == "random-audit" else [*args, "--graph", p3_file]
        code, out = run(capsys, argv)
        assert code == 1
        assert out == ""

    def test_usage_error(self, capsys):
        code, _ = run(capsys, ["compare"])  # missing --graph
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _ = run(capsys, ["frobnicate"])
        assert code == 1

    def test_compare_all_holds(self, capsys, k22_file):
        code, out = run(
            capsys, ["compare", "--graph", k22_file, "--theorems", "all", "--tol", "1e-9"]
        )
        assert code == 0
        doc = json.loads(out)
        verdicts = [r["verdict"] for r in doc["results"]]
        assert verdicts == ["Holds"] * 5

    def test_compare_unknown_theorem(self, capsys, k22_file):
        code, _ = run(capsys, ["compare", "--graph", k22_file, "--theorems", "Bogus"])
        assert code == 1

    def test_certify_true(self, capsys, k22_file):
        code, out = run(
            capsys, ["certify", "--graph", k22_file, "--theorem", "LapVsDiriUnitCorollary"]
        )
        assert code == 0
        assert json.loads(out)["results"]["conclusion"] is True

    def test_certify_false(self, capsys, tmp_path):
        path = tmp_path / "k23.json"
        save(complete_bipartite(2, 3), path)  # |Omega| = 3 > |B| = 2
        code, _ = run(
            capsys, ["certify", "--graph", str(path), "--theorem", "LapVsDiriUnitCorollary"]
        )
        assert code == 2

    def test_certify_unsupported(self, capsys, tmp_path):
        # weighted graph is outside the unit-weight corollary's scope
        path = tmp_path / "weighted.json"
        save(path_graph(3, boundary=[0, 2], weights=[2.0, 1.0]), path)
        code, _ = run(
            capsys, ["certify", "--graph", str(path), "--theorem", "LapVsDiriUnitCorollary"]
        )
        assert code == 3

    def test_spectrum(self, capsys, p3_file):
        code, out = run(capsys, ["spectrum", "--graph", p3_file])
        assert code == 0
        doc = json.loads(out)
        got = doc["results"]["FullLaplacian"]
        assert np.abs(np.array(got) - [0.0, 1.0, 3.0]).max() <= 1e-12

    def test_dump_operator(self, capsys, p3_file):
        code, out = run(
            capsys, ["dump-operator", "--graph", p3_file, "--operator", "DirichletLaplacian"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["matrix"] == [[2.0]]

    def test_curvature_be(self, capsys, k22_file):
        code, out = run(
            capsys, ["curvature", "--graph", k22_file, "--kind", "be", "--n", "inf"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["kind"] == "BakryEmery"

    def test_curvature_interior_disconnected(self, capsys, k22_file, p3_file):
        # K_{2,2}: two interior vertices, no interior edge; P3 with both ends
        # on the boundary: a single interior vertex
        for path in (k22_file, p3_file):
            for kind in ("be", "ollivier"):
                code, out = run(
                    capsys, ["curvature", "--graph", path, "--kind", kind, "--on", "interior"]
                )
                assert code == 3
                assert out == ""

    def test_bounds_fiedler(self, capsys, p3_file):
        code, out = run(capsys, ["bounds", "--graph", p3_file, "--family", "fiedler"])
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "Holds"

    def test_bounds_weighted_unsupported(self, capsys, tmp_path):
        path = tmp_path / "weighted.json"
        save(path_graph(3, boundary=[0, 2], weights=[2.0, 1.0]), path)
        code, _ = run(capsys, ["bounds", "--graph", str(path), "--family", "friedman"])
        assert code == 3

    def test_random_audit_clean(self, capsys):
        code, out = run(
            capsys, ["random-audit", "--n", "10", "--max-v", "8", "--seed", "7"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["failure_count"] == 0
        assert doc["seed"] == 7


class TestDeterminism:
    def test_byte_identical_output(self, capsys, k22_file):
        _, first = run(capsys, ["compare", "--graph", k22_file, "--theorems", "all"])
        _, second = run(capsys, ["compare", "--graph", k22_file, "--theorems", "all"])
        assert first == second

    def test_audit_reproducible_from_seed(self, capsys):
        argv = ["random-audit", "--n", "5", "--max-v", "8", "--seed", "3"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_floats_round_trip_exactly(self, capsys, k22_file):
        _, out = run(capsys, ["spectrum", "--graph", k22_file])
        lam = json.loads(out)["results"]["DirichletLaplacian"]
        assert np.abs(np.array(lam) - 2.0).max() <= 1e-12

    def test_help_lists_all_subcommands(self, capsys):
        code, out = run(capsys, ["--help"])
        assert code == 0
        for name in (
            "validate",
            "spectrum",
            "dump-operator",
            "compare",
            "certify",
            "curvature",
            "bounds",
            "random-audit",
        ):
            assert name in out


# Malformed graph documents: each example takes a small valid graph and
# breaks it one way, or replaces the whole document.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["id", "u", "weight"]), st.integers(0, 3), max_size=2),
    st.sampled_from([-1, 0, 3, 7, 10**30, 10**400, 0.5, -2.0, 0.0,
                     float("nan"), float("inf"), float("-inf")]),
)


def _set_vertex_field(doc, junk, k):
    doc["vertices"][k % len(doc["vertices"])][("id", "measure")[k % 2]] = junk


def _set_edge_field(doc, junk, k):
    doc["edges"][k % len(doc["edges"])][("u", "v", "weight")[k % 3]] = junk


def _set_boundary_entry(doc, junk, k):
    doc["boundary"][k % len(doc["boundary"])] = junk


def _set_section(doc, junk, k):
    doc[sorted(doc)[k % 3]] = junk


def _drop_key(doc, junk, k):
    record = (doc, doc["vertices"][0], doc["edges"][0])[k % 3]
    del record[sorted(record)[k % len(record)]]


def _duplicate_edge(doc, junk, k):
    e = doc["edges"][k % len(doc["edges"])]
    doc["edges"].append({"u": e["v"], "v": e["u"], "weight": e["weight"] if k % 2 else junk})


def _replace_record(doc, junk, k):
    section = ("vertices", "edges")[k % 2]
    doc[section][k % len(doc[section])] = junk


MUTATIONS = (_set_vertex_field, _set_edge_field, _set_boundary_entry, _set_section,
             _drop_key, _duplicate_edge, _replace_record)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.json"


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=150)
@given(
    seed=st.integers(0, 30),
    mutation=st.sampled_from(MUTATIONS + (None,)),
    junk=JUNK,
    k=st.integers(0, 100),
)
def test_malformed_documents_get_a_documented_exit_code(fuzz_path, seed, mutation, junk, k):
    doc = to_json_dict(random_graph(np.random.default_rng(seed), 5))
    if mutation is None:
        doc = junk
    else:
        mutation(doc, junk, k)
    fuzz_path.write_text(json.dumps(doc))
    code, out = run_quiet(["validate", "--graph", str(fuzz_path)])
    assert code in (0, 4)
    assert (out == "") == (code == 4)
    # compare rejects exactly the documents validate rejects, and certifies the rest
    assert run_quiet(["compare", "--graph", str(fuzz_path)])[0] == code
