"""The seeded random generator's normalized weight model: its scaling against
the total-support referee, and its graphs in the audit corpus."""

import itertools

import numpy as np
import pytest

from graphspec import fixtures
from graphspec.fixtures import random_graph
from graphspec.graph import save, validate
from graphspec.rigidity import check_corollary_normalized

from builders import complete_bipartite, path_graph
from oracle import total_support
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

    def spy(measure, weights):
        scaled = normalize(measure, weights)
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
