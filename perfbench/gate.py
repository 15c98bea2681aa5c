"""Correctness gate: decides whether one call failed.

A call fails when it raises, exits with a code its command must not give on
generated valid input, reports a false certificate or an inconsistent
rigidity check, or disagrees with an independent reference:

* ``spectrum`` eigenvalues against ``numpy.linalg.eigvalsh`` of the
  measure-symmetrized operators, built here from the graph data alone;
* ``ollivier_curvature`` values against the same transport LP solved by
  ``scipy.optimize.linprog`` (HiGHS), when scipy is importable.

Both references use a tolerance scaled the way the certificates scale theirs.
"""

from __future__ import annotations

import json
import math

import numpy as np

try:
    from scipy.optimize import linprog
    from scipy.sparse.csgraph import shortest_path
except ImportError:  # the LP reference is optional; the run records its absence
    linprog = None

# Exit codes a command may give on generated valid input.  compare and
# random-audit must certify (2 is a false comparison); certify and bounds may
# report a false conclusion (2) or an out-of-scope request (3); curvature may
# refuse a disconnected interior (3).
ACCEPTED = {
    "spectrum": {0},
    "compare": {0},
    "certify": {0, 2, 3},
    "bounds": {0, 2, 3},
    "curvature": {0, 3},
    "random-audit": {0},
}
SPECTRUM_TOL = 1e-9
LP_TOL = 1e-7


def lp_reference_available() -> bool:
    return linprog is not None


def check(call, code, output) -> str | None:
    """Reason the call failed, or None when it passed."""
    if call.command == "ollivier_curvature":
        return _check_transport(call, output)
    if code not in ACCEPTED[call.command]:
        return f"exit {code}"
    if call.command == "certify" and output.strip():
        results = json.loads(output)["results"]
        if results.get("consistent") is False:
            return "inconsistent rigidity report"
    elif call.command == "random-audit":
        if json.loads(output)["results"]["failure_count"] != 0:
            return "nonzero failure_count"
    elif call.command == "spectrum":
        return _check_spectrum(call.graph, json.loads(output)["results"])
    return None


def _sym(mat, m_row, m_col):
    """M^{1/2} A M^{-1/2} for a block with row measure m_row, column m_col."""
    return np.sqrt(m_row)[:, None] * mat / np.sqrt(m_col)[None, :]


def reference_operators(graph) -> dict:
    """The four measure-symmetrized operators, straight from (m, w, B)."""
    m, w = graph.measure, graph.weights
    b = graph.boundary
    om = np.setdiff1d(np.arange(m.size), b)
    full = _sym((np.diag(w.sum(axis=1)) - w) / m[:, None], m, m)
    w_int = w[np.ix_(om, om)]
    interior = (np.diag(w_int.sum(axis=1)) - w_int) / m[om][:, None]
    deg_b = w[np.ix_(om, b)].sum(axis=1) / m[om]            # Deg_b(y), y in Omega
    deg = w.sum(axis=1)[b] / m[b]                             # Deg(x), x in B
    coupling = (w[np.ix_(om, b)] / m[om][:, None]) @ (
        w[np.ix_(b, om)] / (m[b] * deg)[:, None])
    neumann = interior + np.diag(deg_b) - coupling
    return {
        "FullLaplacian": full,
        "DirichletLaplacian": full[np.ix_(om, om)],
        "NeumannLaplacian": _sym(neumann, m[om], m[om]),
        "InteriorLaplacian": _sym(interior, m[om], m[om]),
    }


def _check_spectrum(graph, results) -> str | None:
    for label, sym in reference_operators(graph).items():
        ref = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        got = np.asarray(results.get(label, []), dtype=float)
        if got.shape != ref.shape:
            return f"{label}: {got.size} eigenvalues, expected {ref.size}"
        tol = SPECTRUM_TOL * max(1.0, float(np.abs(ref).max(initial=0.0)))
        if float(np.abs(got - ref).max(initial=0.0)) > tol:
            return f"{label}: eigenvalues differ from eigvalsh by more than {tol:.3e}"
    return None


def transport_reference(graph, x, y) -> float:
    """kappa(x, y) = min Lap f(y) - Lap f(x) over 1-Lipschitz f on
    B_1(x) u B_1(y) with f(x) = 1, f(y) = 0."""
    m, w = graph.measure, graph.weights
    lap = (w - np.diag(w.sum(axis=1))) / m[:, None]
    dist = shortest_path(w > 0.0, unweighted=True, directed=False)
    ball = np.flatnonzero((dist[x] <= 1) | (dist[y] <= 1))
    i, j = np.triu_indices(ball.size, 1)
    d = dist[np.ix_(ball, ball)][i, j]
    pair = np.zeros((i.size, ball.size))
    pair[np.arange(i.size), i] = 1.0
    pair[np.arange(i.size), j] = -1.0
    a_eq = np.zeros((2, ball.size))
    a_eq[0, np.flatnonzero(ball == x)] = 1.0
    a_eq[1, np.flatnonzero(ball == y)] = 1.0
    c = (lap[y] - lap[x])[ball]
    res = linprog(c, A_ub=np.vstack([pair, -pair]), b_ub=np.concatenate([d, d]),
                  A_eq=a_eq, b_eq=[1.0, 0.0], bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def _check_transport(call, value) -> str | None:
    if not math.isfinite(value):
        return f"curvature {value}"
    if linprog is None:
        return None
    graph, (x, y) = call.graph, call.edge
    ref = transport_reference(graph, x, y)
    scale = float(np.abs(graph.weights[[x, y]]).sum() / graph.measure[[x, y]].min())
    tol = LP_TOL * max(1.0, scale)
    if abs(value - ref) > tol:
        return f"curvature {value!r} differs from the reference LP {ref!r} by more than {tol:.3e}"
    return None
