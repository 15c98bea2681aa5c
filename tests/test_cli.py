import json

import numpy as np
import pytest

from graphspec.cli import main
from graphspec.fixtures import complete_bipartite, path_graph
from graphspec.graph import save


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

    def test_curvature_interior_disconnected(self, capsys, k22_file):
        code, _ = run(
            capsys,
            ["curvature", "--graph", k22_file, "--kind", "ollivier", "--on", "interior"],
        )
        assert code == 3

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
