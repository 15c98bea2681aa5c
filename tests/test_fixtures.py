"""The seeded random generator: its stream of draws against the frozen
reference, and its normalized weight model's scaling against the
total-support referee and in the audit corpus."""

import itertools

import numpy as np
import pytest

from graphspec import fixtures
from graphspec.fixtures import random_graph
from graphspec.graph import save, validate
from graphspec.rigidity import check_corollary_normalized

import oracle
from builders import complete_bipartite, path_graph
from oracle import random_graph_reference, total_support
from test_cli import run


def _has_leaf(weights):
    return bool(np.any(np.count_nonzero(weights, axis=1) == 1))


def test_total_support_referee():
    assert total_support(complete_bipartite(2, 2).weights)
    assert total_support(np.ones((3, 3)) - np.eye(3))
    # the edge 0-1 of a path lies on no positive diagonal
    assert not total_support(path_graph(3).weights)
    assert not total_support(path_graph(5).weights)


@pytest.mark.parametrize("n", range(1, 6))
def test_total_support_test_on_every_symmetric_pattern(n):
    iu, iv = np.triu_indices(n, 1)
    for bits in itertools.product((0.0, 1.0), repeat=iu.size):
        w = np.zeros((n, n))
        w[iu, iv] = w[iv, iu] = bits
        assert fixtures._has_total_support(w) == total_support(w), w


@pytest.mark.parametrize("n", range(1, 7))
def test_total_support_test_on_random_patterns(n):
    rng = np.random.default_rng(n)
    for density in (0.2, 0.4, 0.6, 0.8):
        for _ in range(40):
            w = (rng.random((n, n)) < density) * rng.lognormal(size=(n, n))
            assert fixtures._has_total_support(w) == total_support(w), w
            sym = np.triu(w, 1) + np.triu(w, 1).T
            assert fixtures._has_total_support(sym) == total_support(sym), sym


def test_normalized_draws_against_total_support(monkeypatch):
    calls = []
    normalize = fixtures._normalize_weights

    def spy(weights):
        scaled = normalize(weights)
        calls.append((weights, scaled))
        return scaled

    monkeypatch.setattr(fixtures, "_normalize_weights", spy)
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, 7, weight_model="normalized") for _ in range(40)]
    assert any(_has_leaf(weights) for weights, _ in calls)
    for weights, scaled in calls:
        assert fixtures._has_total_support(weights) == total_support(weights)
        if scaled is not None:
            assert total_support(weights)
        if _has_leaf(weights):
            assert scaled is None
            assert not total_support(weights)
    # every scaled draw is returned, so none fails validation
    accepted = [scaled for _, scaled in calls if scaled is not None]
    assert len(accepted) == len(graphs)
    for g, scaled in zip(graphs, accepted):
        assert np.array_equal(g.weights, scaled)
        validate(g)
        assert np.array_equal(g.weights, g.weights.T)
        assert g.is_normalized()


class _Recorder:
    """A generator whose draws pass through and are logged as (method, value)."""

    def __init__(self, rng):
        self.rng, self.log = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args):
            value = method(*args)
            self.log.append((name, value))
            return value

        return call


def test_draws_match_the_reference_bit_for_bit(monkeypatch):
    # the stream feeds the benchmark inputs, the replay digest and every
    # random-audit report, so no draw may move by one bit
    unscalable = []  # whether each normalized draw redrawn had total support
    normalize = oracle._normalize_weights_reference

    def spy(measure, weights):
        scaled = normalize(measure, weights)
        if scaled is None:
            unscalable.append(fixtures._has_total_support(weights))
        return scaled

    monkeypatch.setattr(oracle, "_normalize_weights_reference", spy)
    empty_rows = 0
    for seed in range(12):
        for max_vertices in (3, 4, 5, 7, 12, 32, 49):
            for model in (None, "unit", "lognormal", "normalized"):
                rng = np.random.default_rng(seed)
                recorder = _Recorder(np.random.default_rng(seed))
                for _ in range(3):
                    g = random_graph(rng, max_vertices, weight_model=model)
                    want = random_graph_reference(recorder, max_vertices, weight_model=model)
                    for got, ref in ((g.measure, want.measure), (g.weights, want.weights),
                                     (g.boundary, want.boundary)):
                        assert got.dtype == ref.dtype and got.shape == ref.shape
                        assert got.tobytes() == ref.tobytes()
                    assert rng.bit_generator.state == recorder.rng.bit_generator.state
                # an attachment row left empty draws one more interior vertex
                empty_rows += sum(
                    a[0] == "random" and b[0] == "integers" and bool(np.all(a[1] >= 0.5))
                    for a, b in zip(recorder.log, recorder.log[1:]))
    # the sample reaches every branch of the stream
    assert empty_rows > 0
    assert unscalable.count(False) > 0  # no total support
    assert unscalable.count(True) > 0  # the Sinkhorn rounds run out, then redrawn


def test_corpus_reaches_the_normalized_corollary(corpus, capsys, tmp_path):
    normalized = [g for g in corpus if g.is_normalized()]
    assert normalized
    for g in normalized:
        # raises NotApplicable on a graph it does not accept
        assert check_corollary_normalized(g).consistent is not False
    path = tmp_path / "normalized.json"
    save(normalized[0], path)
    code, _ = run(capsys, ["certify", "--graph", str(path),
                           "--theorem", "LapVsDiriNormalizedCorollary"])
    assert code in (0, 2)
