import builtins
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphspec
from graphspec import cli, comparisons, operators
from graphspec import graph as graph_module
from graphspec.cli import dumps_json, main
from graphspec.combinatorial import fiedler_bounds, friedman_bounds
from graphspec.comparisons import certificate, run_all
from graphspec.curvature import LICHNEROWICZ_VARIANTS, certify_lichnerowicz
from graphspec.fixtures import random_graph
from graphspec.graph import (
    NotApplicable,
    degree_vector,
    interior_subgraph,
    save,
    to_json_dict,
)
from graphspec.rigidity import ALL_RIGIDITY

import replay
from builders import (
    bakry_emery_overflow_graph,
    complete_bipartite,
    float_range_graph,
    float_range_graphs,
    graph_from_edges,
    path_graph,
    rigidity_overflow_graph,
)
from oracle import (
    bakry_emery_by_polarization,
    dumps_json_reference,
    hop_distances_bfs,
    ollivier_bruteforce,
    ollivier_by_enumeration,
)


SUBCOMMANDS = ("validate", "spectrum", "dump-operator", "compare", "certify", "curvature",
               "bounds", "random-audit")


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


def run_streams(capsys, argv, entry=main):
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, argv):
    code, out, _ = run_streams(capsys, argv)
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

    def test_validate_deeply_nested_file(self, capsys, tmp_path):
        # json's decoder recurses once per bracket, past the interpreter's limit
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_streams(capsys, ["validate", "--graph", str(bad)])
        assert (code, out) == (4, "")
        assert err.startswith("invalid graph file: invalid JSON: ")

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

    @pytest.mark.parametrize("command,code", [
        (["curvature", "--kind", "be", "--on", "g"], 0),
        (["curvature", "--kind", "ollivier", "--on", "g"], 0),
        (["validate"], 4),
        (["spectrum"], 4),
        (["dump-operator"], 4),
        (["compare"], 4),
        (["certify", "--theorem", "NeuVsLap"], 4),
        (["bounds", "--family", "fiedler"], 4),
        (["curvature", "--kind", "be", "--on", "interior"], 4),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_graph_without_boundary(self, capsys, tmp_path, command, code):
        # the curvature of G itself is the only computation that needs no boundary
        path = tmp_path / "p3_no_boundary.json"
        save(path_graph(3, boundary=[]), path)
        assert json.loads(path.read_text())["boundary"] == []
        got, out, err = run_streams(capsys, [*command, "--graph", str(path)])
        assert got == code
        if code == 4:
            assert (out, err) == ("", "invalid graph file: EmptyBoundary\n")
        else:
            assert err == ""
            # every vertex, or every edge, of the path
            per_location = json.loads(out)["results"]["per_location"]
            assert len(per_location) == {"be": 3, "ollivier": 2}[command[2]]

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_nan_measure_is_invalid_graph(self, capsys, tmp_path, command):
        g = path_graph(3, boundary=[0, 2], measure=[1.0, float("nan"), 1.0])
        path = tmp_path / "nan.json"
        save(g, path)
        code, out = run(capsys, [command, "--graph", str(path)])
        assert code == 4
        assert out == ""

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["compare"], ["spectrum"], ["curvature", "--kind", "ollivier"],
         ["curvature", "--kind", "be"]],
        ids=" ".join,
    )
    def test_overflowing_degree_is_invalid_graph(self, capsys, tmp_path, command):
        # every entry is finite, but Deg(1) = 2e300 / 1e-320 is not
        path = tmp_path / "huge.json"
        save(float_range_graphs()["overflowing-degree"], path)
        code, out = run(capsys, [*command, "--graph", str(path)])
        assert code == 4
        assert out == ""

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["spectrum"], ["compare"], ["certify", "--theorem", "NeuVsLap"],
         ["curvature", "--kind", "ollivier"], ["curvature", "--kind", "be"]],
        ids=" ".join,
    )
    def test_doubled_degree_overflow_is_invalid_graph(self, capsys, tmp_path, command):
        # every Deg is finite, at most 1.5e308, but 2 Deg(0) = 2e308 is not;
        # the eigensolver's s + s.T and the edge curvature 2-3 reach 2 max Deg
        path = tmp_path / "doubled.json"
        save(float_range_graphs()["doubled-degree"], path)
        code, out, err = run_streams(capsys, [*command, "--graph", str(path)])
        assert (code, out) == (4, "")
        assert err == "invalid graph file: NonfiniteValue: 0\n"

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
            ["compare", "--theorems", "Bogus"],
            ["compare", "--theorems", "NeuVsLap,Bogus"],
        ],
    )
    def test_bad_argument_is_usage_error(self, capsys, tmp_path, p3_file, args):
        if args[0] == "random-audit":
            assert run(capsys, args) == (1, "")
            return
        # the arguments are checked before the graph file is read
        for graph in (p3_file, str(tmp_path / "missing.json")):
            assert run(capsys, [*args, "--graph", graph]) == (1, "")

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

    def test_certify_full_equality_anomaly(self, capsys, tmp_path):
        # every LapVsDiri index reads equal under a tolerance sized by the
        # tiny interior measures; ROADMAP item 2 will revisit this input
        path = tmp_path / "p3_light_interior.json"
        save(float_range_graphs()["full-equality"], path)
        code, out = run(capsys, ["certify", "--graph", str(path), "--theorem", "LapVsDiri"])
        assert code == 2
        results = json.loads(out)["results"]
        assert [c["name"] for c in results["conditions"]] == ["full_equality_anomaly"]
        assert results["consistent"] is False

    def test_certify_unsupported(self, capsys, tmp_path):
        # weighted graph is outside the unit-weight corollary's scope
        path = tmp_path / "weighted.json"
        save(path_graph(3, boundary=[0, 2], weights=[2.0, 1.0]), path)
        code, _ = run(
            capsys, ["certify", "--graph", str(path), "--theorem", "LapVsDiriUnitCorollary"]
        )
        assert code == 3

    def test_certify_neu_vs_lap_single_interior_vertex(self, capsys, p3_file):
        # the only index is nu_1 = mu_1 = 0, so no characterization applies
        code, out, err = run_streams(capsys, ["certify", "--graph", p3_file,
                                              "--theorem", "NeuVsLap"])
        assert code == 3
        assert out == ""
        assert err.startswith("not applicable: ") and err.count("\n") == 1

    @pytest.mark.parametrize("graph,theorem,code", [
        ("A", "NeuVsLap", 2), ("B", "NeuVsLap", 2),
        ("A", "DiriVsNeuTwoSided", 2), ("B", "DiriVsNeuTwoSided", 2),
        ("P", "DiriVsNeuTwoSided", 0),
    ])
    def test_certify_weights_spanning_the_float_range(self, capsys, tmp_path, graph,
                                                      theorem, code):
        # A, B: boundary {0, 1} joined to both of the interior vertices 2, 3
        # (edge 2-3 of weight 1) with weight a from 0 and b from 1; P: the
        # path 0-1-2 with boundary {0, 2}.  The rank-one term of the NeuVsLap
        # form and the squared weights of the boundary influence overflowed.
        path = tmp_path / f"{graph}.json"
        save(float_range_graphs()[f"span-{graph}"], path)
        got, out, err = run_streams(capsys, ["certify", "--graph", str(path),
                                             "--theorem", theorem])
        assert (got, err) == (code, "")
        results = json.loads(out)["results"]
        assert results["consistent"] is True
        for cond in results["conditions"]:
            if cond["witness"] is not None:
                assert np.isfinite(np.asarray(cond["witness"], dtype=float)).all(), cond

    @pytest.mark.parametrize("theorem", ["LapVsDiri", "NeuVsLap"])
    def test_certify_rho_beyond_the_float_range(self, capsys, tmp_path, theorem):
        # boundary {0} joined to both interior vertices with weight 1e300,
        # all measures 1e-5: the weights factor exactly as rho m_x m_y with
        # rho = 1e310, which overflows, while rho m_x = 1e305 does not
        path = tmp_path / "rho.json"
        save(float_range_graphs()["rho"], path)
        code, out, err = run_streams(capsys, ["certify", "--graph", str(path),
                                              "--theorem", theorem])
        assert err == ""
        results = json.loads(out)["results"]
        conditions = {c["name"]: c for c in results["conditions"]}
        assert conditions["rho_factorization"]["holds"] is True
        if theorem == "LapVsDiri":
            assert code == 2  # equality fails only at j = 2, and the interior is connected
            head, rho_mass = conditions["lambda_head_equals_rho_mass"]["witness"]
            assert rho_mass == pytest.approx(1e305, rel=1e-12)
        else:
            assert conditions["rho_constant_bound"]["witness"][1] == pytest.approx(
                2e305, rel=1e-12)  # rho V_Omega
            # compare finds nu_i = mu_i at both indices, at its tolerance
            # 1e-7 * max Deg; certify reads the same flags
            assert code == 0
            assert results["equality_observed"] is True
            assert results["consistent"] is True

    @pytest.mark.parametrize("graph", ["G1", "G2", "G3", "G4"])
    @pytest.mark.parametrize("theorem", ["NeuVsLap", "LapVsDiri"])
    def test_certify_rigidity_forms_beyond_the_float_range(self, capsys, tmp_path, graph,
                                                           theorem):
        # the NeuVsLap quadratic form overflows on G1 and G2, and the
        # eigensolver refuses it as out of scope, with no overflow warning.
        # On G3 rho is constant, and rho (V_Omega - V_B) = -1e300 is finite.
        # On G4 each r_x = mean_y w_xy / m_y underflows, and the fit's
        # residual, formed from r_x's mantissa and exponent, is 0
        path = tmp_path / f"{graph}.json"
        save(rigidity_overflow_graph(graph), path)
        code, out, err = run_streams(capsys, ["certify", "--graph", str(path),
                                              "--theorem", theorem])
        assert code in (0, 2, 3) and err.count("\n") <= 1
        if theorem == "NeuVsLap" and graph == "G3":
            assert (code, err) == (2, "")
            conditions = json.loads(out)["results"]["conditions"]
            assert [c["name"] for c in conditions] == ["rho_factorization",
                                                      "rho_constant_bound"]
            assert conditions[1]["witness"] == [0.0, -1e300]
        elif theorem == "NeuVsLap" and graph == "G4":
            assert (code, err) == (0, "")
            results = json.loads(out)["results"]
            conditions = [(c["name"], c["holds"]) for c in results["conditions"]]
            assert conditions == [("rho_factorization", True), ("rho_constant_bound", True)]
            assert results["consistent"] is True
        elif theorem == "NeuVsLap":
            assert (code, out, err) == (3, "", "not applicable: matrix has non-finite entries\n")

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

    @pytest.mark.parametrize("weight", [1e200, 1e-13])
    def test_curvature_be_far_from_unit_scale(self, capsys, tmp_path, weight):
        # valid graphs whose Gamma forms overflow or sit below any absolute
        # tolerance unless they are rescaled: the paths whose weights are
        # both ``weight``
        path = tmp_path / "scaled.json"
        save(float_range_graphs()[{1e200: "be-heavy", 1e-13: "be-light"}[weight]], path)
        code, out = run(capsys, ["curvature", "--graph", str(path), "--kind", "be",
                                 "--n", "4", "--on", "g"])
        assert code == 0
        assert json.loads(out)["results"]["global_min"] == pytest.approx(weight / 2, rel=1e-12)

    def test_curvature_ollivier_near_the_float_range(self, capsys, tmp_path):
        # a valid symmetric path whose edge curvatures are both 4e307; the
        # edge curvature divides the objective row by its power-of-two scale
        # before it forms c and const, so no sum overflows to inf or warns
        path = tmp_path / "heavy.json"
        save(float_range_graphs()["ollivier-heavy"], path)
        code, out, err = run_streams(capsys, ["curvature", "--graph", str(path),
                                              "--kind", "ollivier"])
        assert (code, err) == (0, "")
        per = json.loads(out)["results"]["per_location"]
        assert set(per) == {"0,1", "1,2"}
        for kappa in per.values():
            assert kappa == pytest.approx(4e307, rel=1e-12)

    def test_curvature_be_forms_overflow(self, capsys, tmp_path):
        # a valid graph whose degrees in one 2-ball differ by more than the
        # float range, so the Bakry-Emery forms overflow
        path = tmp_path / "extreme.json"
        save(float_range_graphs()["be-overflow"], path)
        code, out, err = run_streams(capsys, ["curvature", "--graph", str(path), "--kind", "be",
                                              "--n", "4"])
        assert code == 3
        assert out == ""
        assert err.startswith("not applicable: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n", ["4", "inf"])
    def test_curvature_be_beyond_the_float_range(self, capsys, tmp_path, n):
        # every Bakry-Emery form is finite, but K at vertex 4 overflows
        path = tmp_path / "k_overflow.json"
        save(bakry_emery_overflow_graph(), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_streams(capsys, ["curvature", "--graph", str(path),
                                                  "--kind", "be", "--n", n])
        assert (code, out) == (3, "")
        assert err == ("not applicable: the curvature at vertex 4 overflows: it lies beyond "
                       "the float range\n")

    def test_curvature_interior_disconnected(self, capsys, k22_file, p3_file):
        # K_{2,2}: two interior vertices, no interior edge; P3 with both ends
        # on the boundary: a single interior vertex
        for path in (k22_file, p3_file):
            for kind in ("be", "ollivier"):
                code, out, err = run_streams(
                    capsys, ["curvature", "--graph", path, "--kind", kind, "--on", "interior"]
                )
                assert code == 3
                assert out == ""
                assert err == "not applicable: curvature needs a connected graph with an edge\n"

    def test_curvature_finds_hop_distances_once_after_validation(self, monkeypatch, capsys,
                                                                 k22_file):
        calls = []
        distances = graph_module._graph_distances

        def counted(graph):
            calls.append(1)
            return distances(graph)

        monkeypatch.setattr(graph_module, "_graph_distances", counted)
        for kind in ("be", "ollivier"):
            calls.clear()
            code, _ = run(capsys, ["curvature", "--graph", k22_file, "--kind", kind])
            assert code == 0
            # validate reaches from one vertex; the curvature alone builds
            # the hop distances, once, and its balls read them from the memo
            assert len(calls) == 1

    def test_curvature_matches_the_oracles_on_corpus_graphs(self, capsys, tmp_path):
        # every value that `curvature` prints, on the whole graph and on its
        # interior, against the referees; the LP's basis enumeration takes
        # seconds from four free ball vertices on, so larger balls go to the
        # integer enumeration
        rng = np.random.default_rng(42)
        ran = {"g": 0, "interior": 0}
        for i in range(10):
            g = random_graph(rng, 12)
            path = tmp_path / f"corpus{i}.json"
            save(g, path)
            for on, target in (("g", g), ("interior", interior_subgraph(g))):
                for kind in ("ollivier", "be"):
                    code, out = run(capsys, ["curvature", "--graph", str(path), "--kind", kind,
                                             "--n", "4", "--on", on])
                    if code == 3:  # a disconnected or edgeless interior
                        assert on == "interior"
                        continue
                    assert code == 0
                    ran[on] += 1
                    per = json.loads(out)["results"]["per_location"]
                    tol = 4e-13 * float(degree_vector(target).max())
                    near = hop_distances_bfs(target.weights) <= 1
                    for key, got in per.items():
                        if kind == "be":
                            want = bakry_emery_by_polarization(
                                target.measure, target.weights, int(key), 4.0)
                        else:
                            x, y = map(int, key.split(","))
                            free = np.count_nonzero(near[x] | near[y]) - 2
                            referee = ollivier_bruteforce if free <= 3 else ollivier_by_enumeration
                            want = referee(target, x, y)
                        assert got == pytest.approx(want, abs=tol), (i, on, kind, key)
        assert ran["g"] == 20 and ran["interior"] > 0

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

    def test_certify_unsupported_equality_pattern(self, capsys, tmp_path):
        # K_{2,3}: mu_{i+2} = lambda_i only at i = 1
        path = tmp_path / "k23.json"
        save(complete_bipartite(2, 3), path)
        code, out, err = run_streams(
            capsys, ["certify", "--graph", str(path), "--theorem", "LapVsDiri"])
        assert (code, out, err) == (3, "", "not applicable: equality fails at indices "
                                    "[2, 3]; no characterization applies\n")

    def test_random_audit_with_curvature(self, capsys):
        code, out = run(capsys, ["random-audit", "--n", "20", "--seed", "42", "--curvature"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["failure_count"] == 0
        assert results["lichnerowicz_checked"] > 0

    def test_random_audit_lists_failures(self, capsys, monkeypatch):
        def fails_at_index_1(graph, tol):
            return certificate("LapVsDiri", degree_vector(graph), tol, [0.0], [1.0])

        monkeypatch.setitem(comparisons.ALL_COMPARISONS, "LapVsDiri", fails_at_index_1)
        code, out = run(capsys, ["random-audit", "--n", "3", "--seed", "42"])
        assert code == 2
        results = json.loads(out)["results"]
        assert results["failure_count"] == 3
        assert results["failures"] == [
            {"instance": k, "theorem_id": "LapVsDiri", "failing_indices": [1]} for k in range(3)
        ]

    def test_random_audit_lists_lichnerowicz_failures(self, capsys, monkeypatch):
        def fails(graph, variant, n, tol):
            return certificate("LichnerowiczBE", degree_vector(graph), tol, [0.0], [1.0])

        monkeypatch.setattr(cli, "certify_lichnerowicz", fails)
        code, out = run(capsys, ["random-audit", "--n", "2", "--seed", "42", "--curvature"])
        assert code == 2
        results = json.loads(out)["results"]
        assert results["lichnerowicz_checked"] == 4
        assert results["failures"] == [
            {"instance": k, "theorem_id": "LichnerowiczBE", "variant": variant}
            for k in range(2) for variant in ("be-g-nu2", "ollivier-g-nu2")
        ]

    def test_not_applicable_from_any_subcommand_exits_3(self, capsys, monkeypatch, p3_file):
        def out_of_scope(graph, label):
            raise NotApplicable("no spectrum here")

        monkeypatch.setattr(cli, "spectrum", out_of_scope)
        code, out, err = run_streams(capsys, ["spectrum", "--graph", p3_file])
        assert (code, out, err) == (3, "", "not applicable: no spectrum here\n")

    def test_eigensolver_failure_exits_3(self, capsys, monkeypatch, p3_file):
        def fail(matrices):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run_streams(capsys, ["compare", "--graph", p3_file])
        assert (code, out, err) == (3, "", "not applicable: Eigenvalues did not converge\n")

    @pytest.mark.parametrize("case,command,code", [
        ("coupling", ["spectrum"], 0),
        ("coupling", ["compare"], 2),
        ("coupling", ["certify", "--theorem", "NeuVsLap"], 2),
        ("coupling", ["validate"], 0),
        ("coupling", ["certify", "--theorem", "DiriVsInteriorTwoSided"], 2),
        ("spread", ["certify", "--theorem", "DiriVsInteriorTwoSided"], 0),
        ("spread", ["certify", "--theorem", "DiriVsNeuTwoSided"], 0),
        ("rho_fit", ["certify", "--theorem", "NeuVsLap"], 2),
        ("influence_sum", ["certify", "--theorem", "DiriVsNeuTwoSided"], 0),
        ("influence_underflow", ["certify", "--theorem", "DiriVsNeuTwoSided"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_valid_graphs_at_the_ends_of_the_float_range(self, capsys, tmp_path, case,
                                                         command, code):
        # coupling: on the path 0-1-2 with B = {0}, Deg(0) = 1e-30 / 1e300
        # underflows to 0, but the Neumann coupling is formed from the
        # weights, w_10 (w_01 / w_01) / m_1 = 1e-30, so every command runs.
        # compare fails on LapVsDiri's full-equality anomaly alone: the
        # boundary all but decouples, so the real gaps lie below the
        # tolerance, which is not rounding (ROADMAP item 2).  NeuVsLap's rho
        # fit fails on the missing edge 0-2, and its report is consistent.
        # spread: with m_1 = 1e300 every Deg_b and s(z) on the interior
        # underflows to 0, a constant vector.  rho_fit: r_0 m_2 = 5e299 *
        # 1e300 overflows in the fit's residual, and the fit fails.
        # influence_sum: each of B = {0, 1, 2} has one interior neighbour and
        # m_3 = m_4 = 1e300, so a / m_z is 1.4 least subnormals; s = 2a / m_z,
        # the weights summed before the one division by m_z, reads 3 of them
        # at both z and is constant.  influence_underflow: s = (0, 2.15e-166,
        # 0) is not constant though w_02 / m_0 underflows; the certificate
        # observes equality at tol * max Deg (ROADMAP items 2 and 14), so the
        # report is inconsistent
        a = 1.4 * (1e300 * 5e-324)
        graphs = {
            "influence_sum": graph_from_edges(
                (1.0, 1.0, 1.0, 1e300, 1e300),
                [(0, 3, a), (1, 3, a), (2, 4, 2 * a), (3, 4, 1.0)], [0, 1, 2]),
            "influence_underflow": graph_from_edges(
                (1.08e251, 3.21e294, 2.29e-21, 1.93e103),
                [(0, 1, 1.56e-69), (0, 2, 2.77e-128), (1, 2, 2.24e-40), (1, 3, 7.0e-88),
                 (2, 3, 7.99e-16)], [0]),
        }
        path = tmp_path / f"{case}.json"
        save(graphs[case] if case in graphs else float_range_graphs()[f"ends-{case}"], path)
        got, out, err = run_streams(capsys, [*command, "--graph", str(path)])
        assert got == code
        assert err == ""
        results = json.loads(out).get("results")
        if case == "coupling" and command == ["compare"]:
            failing = {c["theorem_id"]: c["extra"] for c in results if c["verdict"] != "Holds"}
            assert failing == {"LapVsDiri": {"full_equality_anomaly": True}}
        if case == "coupling" and command[-1] == "NeuVsLap":
            assert results["consistent"] is True
            assert results["conditions"] == [
                {"name": "rho_factorization", "holds": False, "witness": [0, 2]}]
        if case in ("spread", "influence_sum"):
            assert results["consistent"] is True
            assert results["conditions"][-1]["witness"] == 0.0
        if case == "influence_sum":
            assert [c["holds"] for c in results["conditions"]] == [True, True]
        if case == "influence_underflow":
            assert results["conditions"] == [
                {"name": "one_interior_neighbor_each", "holds": False, "witness": None},
                {"name": "boundary_influence_constant", "holds": False, "witness": 1.0}]
            assert (results["conclusion"], results["equality_observed"]) == (False, True)
        if case == "rho_fit":
            assert results["conditions"][0] == {
                "name": "rho_factorization", "holds": False, "witness": None}


def test_certificates_and_reports_are_written_as_their_fields(corpus):
    """Every certificate and report the CLI prints, on the audit corpus,
    reads the same as the standard encoder's text of ``dataclasses.asdict``:
    the curvature reports of ``curvature --on g`` too, keyed by string."""
    objs, curvatures = [], []
    for g in corpus:
        objs += run_all(g)
        for build in [fiedler_bounds, friedman_bounds, *ALL_RIGIDITY.values()]:
            with contextlib.suppress(NotApplicable):
                objs.append(build(g))
        for variant in LICHNEROWICZ_VARIANTS:
            with contextlib.suppress(NotApplicable):
                objs.append(certify_lichnerowicz(g, variant))
        for kind in ("be", "ollivier"):
            with contextlib.suppress(NotApplicable):
                args = types.SimpleNamespace(kind=kind, n="4", on="g")
                curvatures.append(cli.cmd_curvature(g, args)[0])
    theorems = {obj.theorem_id for obj in objs}
    assert theorems >= set(comparisons.ALL_COMPARISONS) | set(ALL_RIGIDITY) | {
        "FiedlerType", "FriedmanType", "LichnerowiczBE", "LichnerowiczOllivier"}
    assert {obj.kind for obj in curvatures} == {"BakryEmery", "Ollivier"}
    assert all(isinstance(k, str) for obj in curvatures for k in obj.per_location)
    for obj in objs + curvatures:
        assert dumps_json(obj) == dumps_json_reference(dataclasses.asdict(obj))


class TestGraphFileReadOnce:
    @pytest.mark.parametrize(
        "command",
        [["validate"], ["spectrum"], ["dump-operator"], ["compare"],
         ["certify", "--theorem", "LapVsDiri"], ["curvature", "--kind", "be"],
         ["bounds", "--family", "fiedler"]],
        ids=" ".join,
    )
    def test_digest_is_the_hash_of_the_file_opened_once(self, monkeypatch, capsys, p3_file,
                                                        command):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == p3_file:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out = run(capsys, [*command, "--graph", p3_file])
        monkeypatch.undo()
        assert code in (0, 2)
        assert len(opened) == 1
        with open(p3_file, "rb") as fh:
            assert json.loads(out)["graph_digest"] == hashlib.sha256(fh.read()).hexdigest()

    def test_digest_is_of_the_bytes_parsed(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "p3.json"
        save(path_graph(3, boundary=[0, 2]), path)
        parsed = path.read_bytes()
        validate = cli.validate

        def rewrite_then_validate(graph, **kwargs):
            path.write_text("{}")
            validate(graph, **kwargs)

        monkeypatch.setattr(cli, "validate", rewrite_then_validate)
        code, out = run(capsys, ["compare", "--graph", str(path)])
        assert code == 0
        assert json.loads(out)["graph_digest"] == hashlib.sha256(parsed).hexdigest()


# sha256 of the `results` objects that `curvature --kind ollivier` prints,
# `--on g` then `--on interior`, over the 200 graphs random_graph(rng, 12) of
# default_rng(42), each preceded by its exit code.  The edge curvature takes no
# LAPACK call, so these bits do not depend on the platform; a change to the
# flow or the closed form that moves the last bit of a kappa shows here
OLLIVIER_CORPUS_DIGEST = "d2d0c9f5f0135730461d99b32ef470470e2deaa9e75590ef9f9500fae9922ccf"


class TestDeterminism:
    def test_ollivier_output_is_pinned(self, capsys, tmp_path):
        digest = hashlib.sha256()
        rng = np.random.default_rng(42)
        path = tmp_path / "corpus.json"
        for _ in range(200):
            save(random_graph(rng, 12), path)
            for on in ("g", "interior"):
                code, out = run(capsys, ["curvature", "--graph", str(path), "--kind", "ollivier",
                                         "--on", on])
                digest.update(f"{on} {code}\n".encode())
                if code == 0:
                    digest.update(dumps_json(json.loads(out)["results"]).encode())
        assert digest.hexdigest() == OLLIVIER_CORPUS_DIGEST

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
        for flag in ("-h", "--help"):
            code, out = run(capsys, [flag])
            assert code == 0
            for name in SUBCOMMANDS:
                assert name in out


class TestDerivedPartsBuiltOnce:
    """Each graph's full Laplacian, Neumann coupling, interior subgraph and
    hop distances are computed at most once per graph object and shared by
    every operator, spectrum and bound that reads them; the hop distances
    only where a curvature or a component count needs them."""

    def test_each_part_built_once_per_graph(self, monkeypatch, capsys, tmp_path):
        # unit weights reach the Fiedler bounds, and the interior 1-2-3 is a
        # path, so every call below reaches the interior subgraph
        path = tmp_path / "p5.json"
        save(path_graph(5, boundary=[0, 4]), path)
        built = {"full": [], "coupling": [], "distances": []}

        def spy(key, compute):
            def counted(graph):
                built[key].append(graph)
                return compute(graph)
            return counted

        monkeypatch.setitem(operators.BUILDERS, "FullLaplacian",
                            spy("full", operators.full_laplacian))
        monkeypatch.setattr(operators, "_coupling", spy("coupling", operators._coupling))
        monkeypatch.setattr(graph_module, "_graph_distances",
                            spy("distances", graph_module._graph_distances))
        loaded = []

        def validate(graph, **kwargs):
            loaded.append(graph)
            return graph_module.validate(graph, **kwargs)

        monkeypatch.setattr(cli, "validate", validate)
        for argv in (["compare"], ["bounds", "--family", "fiedler"],
                     ["curvature", "--kind", "be", "--on", "interior"]):
            for calls in (*built.values(), loaded):
                calls.clear()
            code, _ = run(capsys, argv + ["--graph", str(path)])
            assert code == 0
            g, = loaded  # the graph read from the file
            sub = interior_subgraph(g)
            assert interior_subgraph(g) is sub
            for key in built:
                assert len({id(x) for x in built[key]}) == len(built[key]), (argv, key)
            ids = {key: [id(x) for x in calls] for key, calls in built.items()}
            if argv[0] == "compare":
                assert ids["full"] == [id(g), id(sub)] and ids["coupling"] == [id(g)]
                assert ids["distances"] == []
            elif argv[0] == "bounds":
                # the minimum cut itself reads 0 on a disconnected graph
                assert ids["distances"] == []
            else:
                # the interior's curvature balls alone
                assert ids["distances"] == [id(sub)]


class TestCommandLine:
    """The option table's grammar: ``--opt value`` or ``--opt=value`` under
    exact names, the last of a repeated option, and usage errors that exit 1
    before any file is read."""

    def test_equals_form_reads_as_the_spaced_form(self, capsys, p3_file):
        spaced = ["curvature", "--graph", p3_file, "--kind", "be", "--n", "4", "--on", "g"]
        joined = ["curvature", f"--graph={p3_file}", "--kind=be", "--n=4", "--on=g"]
        first = run_streams(capsys, spaced)
        assert first[0] == 0
        assert run_streams(capsys, joined) == first

    def test_repeated_option_keeps_its_last_value(self, capsys, p3_file):
        once = run_streams(capsys, ["compare", "--graph", p3_file, "--tol", "1e-6",
                                    "--theorems", "NeuVsLap"])
        assert once[0] == 0
        assert run_streams(capsys, [
            "compare", "--theorems", "all", "--graph", "missing.json", "--tol", "1",
            "--graph", p3_file, "--tol", "1e-6", "--theorems", "NeuVsLap"]) == once

    @pytest.mark.parametrize("args", [
        ["compare", "--graph", "GRAPH", "--tol"],  # an option without its value
        ["compare", "--graph", "GRAPH", "--bogus"],  # an unknown option
        ["compare", "--graph", "GRAPH", "extra"],  # a stray positional argument
        ["compare", "--graph", "GRAPH", "--theo", "all"],  # an abbreviation
        ["compare", "--gr", "GRAPH"],
        ["compare", "--graph", "-x"],
        ["compare", "--graph", "GRAPH", "--table=yes"],  # a flag takes no value
        [],  # no subcommand
        ["--graph", "GRAPH", "compare"],
    ], ids=lambda args: " ".join(args) or "none")
    def test_usage_error_exits_1_before_any_file_is_read(self, monkeypatch, capsys, p3_file,
                                                          args):
        opened = []
        monkeypatch.setattr(cli, "load", lambda *a: opened.append(a))
        code, out, err = run_streams(capsys, [p3_file if a == "GRAPH" else a for a in args])
        assert (code, out, opened) == (1, "", [])
        lines = err.splitlines()
        assert lines[0].startswith("usage: graphspec")
        assert [line for line in lines if line.startswith("error: ")] == lines[1:]
        assert len(lines) == 2

    @pytest.mark.parametrize("command, names", [
        (["validate"], ["--graph"]),
        (["spectrum"], ["--graph"]),
        (["dump-operator"], ["--graph", "--operator"]),
        (["compare"], ["--graph", "--theorems", "--tol", "--table"]),
        (["certify"], ["--graph", "--theorem", "--tol"]),
        (["curvature"], ["--graph", "--kind", "--n", "--on"]),
        (["bounds"], ["--graph", "--family", "--tol"]),
        (["random-audit"], ["--n", "--max-v", "--seed", "--tol", "--curvature"]),
    ], ids=lambda v: v[0])
    def test_subcommand_help_exits_0_and_names_every_option(self, capsys, command, names):
        for flag in ("-h", "--help"):
            code, out, err = run_streams(capsys, [*command, flag])
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: graphspec {command[0]} ")
            assert all(name in out for name in names)

    def test_version(self, capsys):
        assert run_streams(capsys, ["--version"]) == (0, graphspec.__version__ + "\n", "")

    @pytest.mark.parametrize("args", [
        ["compare", "--graph", "GRAPH"],
        ["compare", "--graph", "GRAPH", "--table"],
        ["validate", "--graph", "GRAPH"],
        ["--help"],
    ], ids=" ".join)
    def test_closed_stdout_exits_1_with_nothing_on_stderr(self, p3_file, args):
        """The reader of stdout goes away before anything is written: the pipe
        is closed while the child is still importing numpy, so its first
        write or flush finds no reader."""
        src = os.path.dirname(os.path.dirname(graphspec.__file__))
        child = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "graphspec.cli",
             *(p3_file if a == "GRAPH" else a for a in args)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err.decode()) == (1, "")

    def test_each_call_reads_as_the_first_of_its_process(self, capsys, k22_file, p3_file):
        calls = [
            ["compare", "--graph", k22_file, "--tol", "-1"],  # usage error
            ["compare", "--graph", k22_file, "--theorems", "all"],
            ["certify", "--graph", k22_file, "--theorem", "NeuVsLap"],
            ["curvature", "--graph", k22_file, "--kind", "be", "--n", "2"],
            ["compare", "--graph", p3_file, "--table"],
            ["certify", "--graph", p3_file, "--theorem", "LapVsDiri", "--tol", "1e-3"],
            ["curvature", "--graph", k22_file, "--kind", "be"],  # --n back to its default
            ["compare", "--graph", p3_file],  # JSON again after --table
            ["curvature", "--graph", p3_file, "--kind", "ollivier", "--on", "g"],
            ["certify", "--graph", p3_file, "--theorem", "Bogus"],  # usage error
        ]
        first = {}
        for argv in calls:  # each call through a newly executed copy of the module
            spec = importlib.util.spec_from_file_location("graphspec._first_cli", cli.__file__)
            fresh = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(fresh)
            first[tuple(argv)] = run_streams(capsys, argv, fresh.main)
        assert first[tuple(calls[0])][0] == 1
        for argv in calls + calls[::-1]:
            assert run_streams(capsys, argv) == first[tuple(argv)]

    def test_invocation_echo_is_pinned(self, capsys, tmp_path):
        """Each report's ``invocation``, value types included, with each
        subcommand's defaults and with every option that keeps the report set."""
        path = tmp_path / "p5.json"
        save(path_graph(5, boundary=[0, 4]), path)
        g = str(path)
        expected = [
            (["spectrum"], {"command": "spectrum", "graph": g}),
            (["dump-operator"],
             {"command": "dump-operator", "graph": g, "operator": "FullLaplacian"}),
            (["dump-operator", "--operator", "NeumannLaplacian"],
             {"command": "dump-operator", "graph": g, "operator": "NeumannLaplacian"}),
            (["compare"], {"command": "compare", "graph": g, "table": False,
                           "theorems": "all", "tol": 1e-09}),
            (["compare", "--theorems", "NeuVsLap,LapVsDiri", "--tol", "1e-6"],
             {"command": "compare", "graph": g, "table": False,
              "theorems": "NeuVsLap,LapVsDiri", "tol": 1e-06}),
            (["certify", "--theorem", "NeuVsLap"],
             {"command": "certify", "graph": g, "theorem": "NeuVsLap", "tol": 1e-07}),
            (["certify", "--theorem", "NeuVsLap", "--tol", "1e-3"],
             {"command": "certify", "graph": g, "theorem": "NeuVsLap", "tol": 0.001}),
            (["curvature", "--kind", "be"],
             {"command": "curvature", "graph": g, "kind": "be", "n": "inf", "on": "g"}),
            (["curvature", "--kind", "be", "--n", "1.5", "--on", "interior"],
             {"command": "curvature", "graph": g, "kind": "be", "n": "1.5", "on": "interior"}),
            (["bounds", "--family", "fiedler"],
             {"command": "bounds", "family": "fiedler", "graph": g, "tol": 1e-09}),
            (["bounds", "--family", "friedman", "--tol", "1e-6"],
             {"command": "bounds", "family": "friedman", "graph": g, "tol": 1e-06}),
            (["random-audit"], {"command": "random-audit", "curvature": False, "max_v": 12,
                                "n": 200, "seed": 42, "tol": 1e-09}),
            (["random-audit", "--n", "2", "--max-v", "5", "--seed", "3", "--tol", "1e-8",
              "--curvature"], {"command": "random-audit", "curvature": True, "max_v": 5,
                               "n": 2, "seed": 3, "tol": 1e-08}),
        ]
        assert {argv[0] for argv, _ in expected} == set(SUBCOMMANDS) - {"validate"}
        for argv, invocation in expected:
            graph = [] if argv[0] == "random-audit" else ["--graph", g]
            code, out, _ = run_streams(capsys, [*argv, *graph])
            assert code in (0, 2), argv
            echoed = json.loads(out)["invocation"]
            assert {k: (type(v), v) for k, v in echoed.items()} == {
                k: (type(v), v) for k, v in invocation.items()}, argv


# fixed before the sweep was first run
FLOAT_RANGE_DRAWS = 150


def test_every_command_on_float_range_draws(tmp_path):
    """The first FLOAT_RANGE_DRAWS valid draws of
    ``float_range_graph(default_rng(5))``, and the graph whose Bakry-Emery K
    overflows, under every graph command of the replay but ``validate``,
    ``dump-operator`` and ``compare --table``, with every warning an error.
    No call ends in a traceback (exit 1): each exits 0, 2 or 3, an exit 3
    writes one stderr line, and no certificate but LapVsDiri reads
    ``FailsAt``; LapVsDiri's full-equality anomaly is not rounding (ROADMAP
    item 2)."""
    rng = np.random.default_rng(5)
    graphs = []
    while len(graphs) < FLOAT_RANGE_DRAWS:
        g = float_range_graph(rng)
        if g is not None:
            graphs.append(g)
    graphs.append(bakry_emery_overflow_graph())
    commands = [command for command in replay.GRAPH_COMMANDS
                if command[0] not in ("validate", "dump-operator") and "--table" not in command]
    failing = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, g in enumerate(graphs):
            path = tmp_path / f"draw{k}.json"
            save(g, path)
            for command in commands:
                code, out, err = replay.run_call([*command, "--graph", str(path)])
                assert code in (0, 2, 3), (k, command, err)
                if code == 3:
                    assert err.startswith("not applicable: ") and err.count("\n") == 1
                    continue
                results = json.loads(out)["results"]
                for cert in results if isinstance(results, list) else [results]:
                    if cert.get("verdict") == "FailsAt":
                        failing.add(cert["theorem_id"])
    assert failing <= {"LapVsDiri"}


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                     float("inf"), float("-inf"), float("nan"), 0.1, 1e16]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=6),
    st.sampled_from(["é", "Ω ∂", "\U0001f600", "\x00\n\"\\"]),
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=3).map(np.array),
    # values json refuses
    st.sampled_from([{1, 2}, np.bool_(True), b"bytes", 1j, object()]),
)
JSON_TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
        # str and int keys together cannot be sorted
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)), inner, max_size=3),
        st.dictionaries(st.one_of(st.none(), st.booleans(), FLOATS), inner, max_size=3),
        # keys json refuses
        st.dictionaries(st.one_of(st.tuples(st.integers(0, 3)), st.binary(max_size=2),
                                  st.frozensets(st.integers(0, 3), max_size=2)),
                        inner, max_size=2),
    ),
    max_leaves=12,
)


def _text_or_type_error(dumps, obj):
    try:
        return dumps(obj)
    except TypeError:
        return TypeError


def _outside_the_report_types(obj) -> bool:
    """Whether ``obj`` holds a dict key that is not a string, or a NumPy
    float other than float64: the values no command emits."""
    if isinstance(obj, np.floating):
        return not isinstance(obj, np.float64)
    if isinstance(obj, dict):
        return any(not isinstance(k, str) or _outside_the_report_types(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return any(_outside_the_report_types(v) for v in obj)
    return False


@settings(max_examples=300)
@given(obj=JSON_TREES)
def test_dumps_json_matches_reference(obj):
    """The writer refuses what no command emits, and elsewhere writes the
    reference's text or refuses what the reference refuses."""
    refused = _outside_the_report_types(obj)
    expected = TypeError if refused else _text_or_type_error(dumps_json_reference, obj)
    assert _text_or_type_error(dumps_json, obj) == expected


@pytest.mark.parametrize("obj, text", [
    ({1: 0.5}, TypeError), ({None: 1}, TypeError), ({1.5: 1}, TypeError), ({True: 1}, TypeError),
    (np.float32(0.5), TypeError), (np.int64(3), "3"), (np.float64(0.1), "0.10000000000000001"),
])
def test_dumps_json_writes_report_scalars_and_refuses_the_rest(obj, text):
    assert _text_or_type_error(dumps_json, obj) == text


@dataclasses.dataclass(frozen=True)
class _Record:
    b: float
    a: list


@dataclasses.dataclass(eq=False)
class _FloatRecord(float):
    tag: str = "t"


@dataclasses.dataclass(eq=False)
class _DictRecord(dict):
    tag: str = "t"


def test_dataclasses_are_written_as_fields_unless_a_scalar_or_container():
    """A dataclass is the object of its fields, at any depth, and one that
    subclasses float or dict is written as the float or dict, as the
    standard encoder writes it."""
    nested = _Record(0.1, [_Record(float("inf"), []), {"k": _Record(-0.0, [1, True, None])}])
    assert dumps_json(nested) == dumps_json_reference(dataclasses.asdict(nested))
    assert dumps_json([nested, nested]) == dumps_json_reference([dataclasses.asdict(nested)] * 2)
    as_float = _FloatRecord(2.5)
    as_dict = _DictRecord({"x": 0.5})
    for obj in (as_float, as_dict, [as_float, {"d": as_dict}]):
        assert dumps_json(obj) == dumps_json_reference(obj)


@dataclasses.dataclass(frozen=True)
class _EmptyRecord:
    pass


def test_fieldless_dataclasses_and_numpy_strings_match_the_reference():
    """A dataclass with no fields is an empty object, and an ``np.str_``,
    a str subclass, is written as its string."""
    assert dumps_json(_EmptyRecord()) == dumps_json_reference({})
    assert dumps_json([_EmptyRecord(), {"e": _EmptyRecord()}]) == dumps_json_reference([{}, {"e": {}}])
    for obj in (np.str_("a\u00e9\"b"), [np.str_("")], {"s": np.str_("x")}):
        assert dumps_json(obj) == dumps_json_reference(obj)


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
