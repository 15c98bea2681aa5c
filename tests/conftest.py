from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from graphspec.comparisons import run_all
from graphspec.fixtures import complete_bipartite, path_graph, random_graph

AUDIT_SEED = 42
AUDIT_SIZE = 200
AUDIT_MAX_V = 12

# Property tests draw the same examples on every run, with no time limit.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def p3_two_ends():
    """Unit path v0 - v1 - v2 with boundary {v0, v2}."""
    return path_graph(3, boundary=[0, 2])


@pytest.fixture(scope="session")
def p3_one_end():
    """Unit path v0 - v1 - v2 with boundary {v2}."""
    return path_graph(3, boundary=[2])


@pytest.fixture(scope="session")
def k22():
    """Unit K_{2,2} with one side as boundary."""
    return complete_bipartite(2, 2)


@pytest.fixture(scope="session")
def corpus():
    """The seeded 200-graph audit corpus (mixed weight models, |V| <= 12)."""
    rng = np.random.default_rng(AUDIT_SEED)
    return [random_graph(rng, AUDIT_MAX_V) for _ in range(AUDIT_SIZE)]


@pytest.fixture(scope="session")
def corpus_certificates(corpus):
    """All five comparison certificates for every corpus graph."""
    return [run_all(g) for g in corpus]
