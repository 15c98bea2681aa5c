"""Seeded inputs and call rounds for the four benchmark workloads.

A workload is a sequence of rounds; a round is a list of calls with a fixed
composition of commands and graph sizes.  A run executes a fixed number of
whole rounds, so for a given seed every commit runs exactly the same calls.
Every graph is drawn with ``graphspec.fixtures.random_graph`` from a
generator seeded by the harness seed and written to a JSON file; CLI calls
see only those files.  The CLI workloads cycle through a 200-graph corpus;
each CLI call reads its file afresh, so a repeat shares nothing with the
first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The seven `certify --theorem` ids the CLI documents.
THEOREMS = (
    "NeuVsLap",
    "DiriVsInteriorTwoSided",
    "NeuVsInterior",
    "DiriVsNeuTwoSided",
    "LapVsDiri",
    "LapVsDiriUnitCorollary",
    "LapVsDiriNormalizedCorollary",
)

AUDIT_CALLS = 1 + len(THEOREMS) + 2   # compare, certify per theorem, bounds x2
CORPUS_SIZE = 200          # the audit corpus: mixed models, |V| <= 12
CORPUS_MAX_V = 12
AUDIT_GRAPHS_PER_ROUND = 10
AUDIT_RANDOM_N = 10        # graphs drawn by the one random-audit call per round
CURVATURE_GRAPHS_PER_ROUND = 10
SWEEP_SIZES = (16, 24, 32)
SWEEP_MODELS = ("unit", "lognormal")
TRANSPORT_SIZES = tuple(range(40, 50)) * 2
TRANSPORT_BALL = (26, 36)  # the 10th to 90th percentile of |B_1(x) u B_1(y)|


@dataclass(frozen=True)
class Call:
    """One timed call: a CLI invocation (``argv``) or an API call (``edge``)."""

    command: str            # CLI subcommand, or "ollivier_curvature"
    label: str              # key of the detailed exit-code histogram
    graphs: int             # graphs this call processes
    argv: tuple = ()
    graph: object = None    # the in-memory graph, for API calls and reference checks
    edge: tuple = ()


def _draw(gs, rng, n, model, boundary_sizes=None):
    """Redraw until the generator returns exactly ``n`` vertices and, when
    given, a boundary size in ``boundary_sizes``."""
    while True:
        graph = gs.fixtures.random_graph(rng, max_vertices=n, weight_model=model)
        if graph.vertex_count == n and (
                boundary_sizes is None or graph.boundary.size in boundary_sizes):
            return graph


def _write(gs, graph, workdir: Path, name: str) -> str:
    path = workdir / f"{name}.json"
    gs.graph.save(graph, path)
    return str(path)


def _cli(label, graph, path, *args):
    command = label.split()[0]
    return Call(command, label, 1, (command, "--graph", path, *args), graph)


def _corpus(gs, rng, workdir, sized=False):
    """CORPUS_SIZE graphs of the mixed-model generator.  ``sized`` fixes
    |V| = 3, 4, ..., CORPUS_MAX_V in turn, the generator's own size
    distribution stratified, so that every block of ten holds one of each."""
    if sized:
        sizes = [3 + i % (CORPUS_MAX_V - 2) for i in range(CORPUS_SIZE)]
        graphs = [_draw(gs, rng, n, None) for n in sizes]
    else:
        graphs = [gs.fixtures.random_graph(rng, max_vertices=CORPUS_MAX_V)
                  for _ in range(CORPUS_SIZE)]
    return [(g, _write(gs, g, workdir, f"corpus{i:03d}")) for i, g in enumerate(graphs)]


def _slice(corpus, k, size):
    """The k-th block of ``size`` corpus entries, wrapping around."""
    return [corpus[(k * size + i) % len(corpus)] for i in range(size)]


def _audit_calls(graph, path):
    calls = [_cli("compare", graph, path, "--theorems", "all")]
    calls += [_cli(f"certify {th}", graph, path, "--theorem", th) for th in THEOREMS]
    calls += [_cli(f"bounds {fam}", graph, path, "--family", fam)
              for fam in ("fiedler", "friedman")]
    return calls


def build_audit(gs, seed, workdir, count):
    rng = np.random.default_rng(seed)
    corpus = _corpus(gs, rng, workdir)
    rounds = []
    for k in range(count):
        calls = []
        for graph, path in _slice(corpus, k, AUDIT_GRAPHS_PER_ROUND):
            calls += _audit_calls(graph, path)
        audit_seed = str(seed * 1000 + k)
        calls.append(Call(
            "random-audit", "random-audit", AUDIT_RANDOM_N,
            ("random-audit", "--n", str(AUDIT_RANDOM_N), "--max-v", str(CORPUS_MAX_V),
             "--seed", audit_seed),
        ))
        rounds.append(calls)
    return rounds


def build_sweep(gs, seed, workdir, count):
    """Round r draws its graphs from the r-th of ``count`` strata of the
    boundary size |B| (1 .. |V|/2 for this generator), which sets the size of
    the Dirichlet and Neumann problems and most of the cost."""
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(count):
        calls = []
        for n in SWEEP_SIZES:
            stratum = set(np.array_split(np.arange(1, n // 2 + 1), count)[r].tolist())
            for model in SWEEP_MODELS:
                graph = _draw(gs, rng, n, model, stratum)
                path = _write(gs, graph, workdir, f"sweep{r}-{n}-{model}")
                calls.append(_cli("spectrum", graph, path))
                calls += _audit_calls(graph, path)
        rounds.append(calls)
    return rounds


def build_curvature(gs, seed, workdir, count):
    """Curvature costs grow steeply with |V|, so the corpus is size-stratified."""
    rng = np.random.default_rng(seed)
    corpus = _corpus(gs, rng, workdir, sized=True)
    rounds = []
    for k in range(count):
        calls = []
        for graph, path in _slice(corpus, k, CURVATURE_GRAPHS_PER_ROUND):
            for on in ("g", "interior"):
                calls.append(_cli(f"curvature be --on {on}", graph, path,
                                  "--kind", "be", "--n", "4", "--on", on))
                calls.append(_cli(f"curvature ollivier --on {on}", graph, path,
                                  "--kind", "ollivier", "--on", on))
        rounds.append(calls)
    return rounds


def build_transport(gs, seed, workdir, count):
    """One edge of each graph per round.  The LP of edge {x, y} has about
    k(k-1) rows for k = |B_1(x) u B_1(y)|; round r takes, from every graph, a
    seeded choice among the edges whose k is nearest the r-th of ``count``
    targets spread over TRANSPORT_BALL, so every seed runs the same LP sizes."""
    rng = np.random.default_rng(seed)
    targets = np.linspace(*TRANSPORT_BALL, count)
    picks = []
    for i, n in enumerate(TRANSPORT_SIZES):
        drawn = _draw(gs, rng, n, "lognormal")
        # the API call gets the graph as read back from its file
        graph = gs.graph.load(_write(gs, drawn, workdir, f"transport{i:02d}"))
        adjacent = graph.weights > 0.0
        edges = [(u, v) for u, v, _w in graph.edges()]
        ball = np.array([np.count_nonzero(adjacent[u] | adjacent[v]) for u, v in edges])
        per_round = []
        for target in targets:
            gap = np.abs(ball - target)
            per_round.append(edges[rng.choice(np.flatnonzero(gap == gap.min()))])
        picks.append((graph, per_round))
    return [
        [Call("ollivier_curvature", "ollivier_curvature", 1, graph=graph, edge=per_round[r])
         for graph, per_round in picks]
        for r in range(count)
    ]


@dataclass(frozen=True)
class Workload:
    build: object             # (graphspec, seed, workdir, rounds) -> list of rounds
    calls_per_round: int
    rounds_per_second: float  # rounds the defining commit ran per second
    trace_rounds: int         # whole rounds the traced run executes


# Rates were measured at the commit that defined the benchmark, on a 2-vCPU
# virtual machine (Xeon, 2.1 GHz) with the numpy Jacobi path; a run of S
# seconds executes ceil(S * rate) rounds there, and the same rounds on every
# other commit.
WORKLOADS = {
    "audit": Workload(build_audit, AUDIT_GRAPHS_PER_ROUND * AUDIT_CALLS + 1, 0.8, 8),
    "sweep": Workload(build_sweep, len(SWEEP_SIZES) * len(SWEEP_MODELS) * (AUDIT_CALLS + 1),
                      0.18, 1),
    "curvature": Workload(build_curvature, CURVATURE_GRAPHS_PER_ROUND * 4, 1.0, 10),
    "transport": Workload(build_transport, len(TRANSPORT_SIZES), 0.3, 3),
}
