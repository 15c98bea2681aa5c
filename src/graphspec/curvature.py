"""Curvature lower bounds and the Lichnerowicz-type certificates.

Two notions of curvature are computed on a plain weighted connected graph:

* a curvature-dimension constant per vertex, defined through the iterated
  gradient forms ``Gamma(f, g) = (Lap(fg) - f Lap g - g Lap f)/2`` and
  ``Gamma2(f) = (Lap Gamma(f, f))/2 - Gamma(f, Lap f)``: ``K(x, n)`` is the
  largest ``K`` with ``Gamma2(f)(x) >= (Lap f(x))^2 / n + K Gamma(f)(x)``
  for every ``f`` supported on the 2-ball of ``x``.  Both sides are
  quadratic forms in the values of ``f`` on the spheres ``S_1`` and ``S_2``
  around ``x``.  ``Gamma(f)(x)`` sees only ``S_1``, and K needs just three
  blocks of the Gamma2 form: the ``S_1`` block, the ``S_1 x S_2`` block and
  the ``S_2`` block, which is diagonal and positive.  Each has a closed form
  in the Laplacian's rows at ``x`` and on ``S_1`` (Cushing-Liu-Peyerimhoff),
  and eliminating ``S_2`` leaves one symmetric eigenproblem on ``S_1`` (see
  ``bakry_emery_curvature``);
* an edge-wise transport curvature defined through 1-Lipschitz test
  functions: ``kappa(x, y) = inf { Lap f(y) - Lap f(x) }`` over ``f`` with
  Lipschitz constant at most 1 for the graph distance and
  ``f(x) - f(y) = 1``, a small linear program over the union of the unit
  balls around ``x`` and ``y`` (the Laplacian-based Ollivier curvature of
  Muench-Wojciechowski).  Its constraints are one pair per vertex pair of
  the ball, so it is solved through its dual, an optimal transport problem
  on the hop metric of the ball with the same optimum.  A free vertex
  whose objective coefficient is negative is a sender and ships out its
  excess, one whose coefficient is positive is a receiver and takes in at
  most its coefficient, and ``x`` and ``y`` send and receive freely.  By
  the triangle inequality a detour through a third vertex is never
  cheaper than going direct, and ``x`` and ``y`` are priced in closed
  form: as they are adjacent, each sender's cheapest outlet is shipping to
  ``y`` and each receiver's cheapest fill is taking from ``x``.  Every
  column out of a sender costs at least 0, so some optimal plan ships
  exactly each sender's excess, and what is left is to choose the
  sender-receiver pairs that gain (by 1 or 2 per unit) by shipping direct
  instead: a bipartite max-gain problem whose totally unimodular dual is
  a minimum s-t cut, so the gain is a maximum flow on a bipartite
  network, found from a one-pass start by shortest augmenting paths (see
  ``ollivier_curvature``).  The flow keeps its sets of copies as Python-int
  bitsets and its capacities as Python floats: the start visits only the
  receiver copies with demand left and leaves a sender copy once it is
  spent, and each search level is a union of bitsets (``_max_gain``).

Both are computed for a whole graph in one pass, and the one-edge entry
point runs the transport pass on one edge.  The Laplacian, the
power-of-two scales and the hop distances are set up once per graph.  The
vertices' forms are assembled in blocks, as a few (vertices x S_1 x
vertices) array expressions with each ``S_1`` padded to a width set by
``|S_1|`` and the graph's largest ``|S_1|``, not by the block, and the
forms of one ``|S_1|`` in a block are solved in one stacked eigenvalue
call, so a vertex's K is the same number whichever vertices share its
block.  Every edge's closed-form transport part is one
row of a few (edges x vertices) array expressions, and only edges with a
pair that gains solve a flow.  Those rows are summed left to right, in a
fixed order that does not depend on the BLAS library, so an edge's kappa
is the same number alone or with the others.

Positive lower bounds feed the spectral-gap certificates for the Neumann
and Dirichlet spectra.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .comparisons import DEFAULT_TOL, ComparisonCertificate, certificate
from .graph import (
    NotApplicable,
    WeightedBoundaryGraph,
    boundary_degree_vector,
    degree_vector,
    distances,
    interior_subgraph,
)
# perfbench's tracer times the distance computation under this name
from .graph import _graph_distances  # noqa: F401
from .operators import operator_by_label
from .spectra import spectrum, symmetric_eigvalsh, weighted_singular_values


@dataclass(frozen=True)
class CurvatureResult:
    kind: str  # "BakryEmery" | "Ollivier"
    dimension: float | None  # n for BakryEmery (may be inf), None for Ollivier
    per_location: dict  # vertex -> K(x) or edge (u, v) -> kappa
    global_min: float


def _require_connected(graph: WeightedBoundaryGraph) -> None:
    """Both curvatures are defined on a connected graph with an edge."""
    if graph.vertex_count < 2 or not np.isfinite(distances(graph)).all():
        raise NotApplicable("curvature needs a connected graph with an edge")


# (vertices x rows x columns) entries per whole-array pass of
# bakry_emery_curvature, which bounds its temporaries on large graphs
_FORM_ENTRIES = 1 << 18
# each S_1 is padded up to a multiple of this many vertices, at most the
# graph's largest |S_1|
_PAD_STEP = 16


def bakry_emery_curvature(graph: WeightedBoundaryGraph, n: float) -> CurvatureResult:
    """K(x, n), the optimal local curvature-dimension constant, at every vertex.

    The forms at ``x`` are taken on the functions with ``f(x) = 0`` supported
    on the spheres ``S_1``, ``S_2`` of radius 1 and 2 around ``x``, and are
    read off the rows of ``x`` and ``S_1`` alone (Cushing-Liu-Peyerimhoff,
    "Bakry-Emery curvature functions on graphs", 2020).  With ``L`` the
    Laplacian divided by a power of two ``s`` near ``Deg(x)``, let
    ``p = L_{x,S_1} > 0``, ``L_11 = L_{S_1,S_1}`` (whose diagonal is
    ``-Deg / s``), ``P_12 = L_{S_1,S_2}`` and ``t = (L^2)_x`` on ``S_1`` and
    ``S_2``.  Then

    * ``Gamma(f)(x) = f^T G f`` with ``G = diag(p / 2)`` on ``S_1`` and 0
      on ``S_2``;
    * ``Gamma2(f)(x) - (Lap f(x))^2 / n = f^T Q f`` with the blocks
      ``Q_11 = (1/2 - 1/n) p p^T - (diag(p) L_11 + L_11^T diag(p)) / 2
      + diag(t_{S_1}) / 4``, ``Q_12 = -diag(p) P_12 / 2`` and
      ``Q_22 = diag(t_{S_2}) / 4``.

    ``Q_22`` is diagonal because on ``S_2`` both ``Lap f(x)`` and
    ``Gamma(f, Lap f)(x)`` vanish, and ``t_z = sum_{y in S_1} p_y L_yz > 0``
    there.  Minimizing over the ``S_2`` values leaves the Schur complement
    ``Q_11 - (p p^T) o (P_12 diag(1 / t_{S_2}) P_12^T)``, with ``o`` the
    entrywise product.  Its ``S_2`` term is summed as
    ``R diag(1 / t_{S_2}) R^T`` with ``R = diag(p) P_12``: each
    ``p_u P_uw / t_w`` is at most 1, while ``p_u p_v`` alone underflows
    once the weights at ``x`` span about 1e154.  ``K`` is ``s`` times the
    Schur complement's least eigenvalue relative to ``G_11``, and only that
    eigenvalue is solved for.

    The Laplacian, the power-of-two scales and the float error state are set
    up once.  A spare vertex, with a zero row and column of the Laplacian,
    pads each ``S_1`` up to a multiple of ``_PAD_STEP`` vertices, at most
    the graph's largest ``|S_1|``; below ``_PAD_STEP`` that is the largest
    ``|S_1|`` for every vertex.  The width depends on the graph, not on the
    block, so a vertex's form is the same number whichever vertices share
    its block.  The vertices are taken in order of ``|S_1|``, in blocks of one
    width that bound the temporaries, and each block's forms are assembled
    at once (``_bakry_emery_forms``).  The forms of one ``|S_1|`` in a block
    are solved in one stacked eigenvalue call, without their padding.

    Raises NotApplicable for a graph that is not connected or has no edge,
    ValueError for an ``n`` that is not above 1, and NotApplicable, naming
    the first such vertex, when ``t`` or the form is not finite, which
    happens only when the degrees in a 2-ball differ by more than the float
    range, or when ``K`` itself lies beyond the float range.
    """
    _require_connected(graph)
    if not n > 1.0:
        raise ValueError("dimension parameter must exceed 1 (or be inf)")
    nv = graph.vertex_count
    dist = np.full((nv, nv + 1), np.inf)  # no vertex reaches the spare vertex nv
    dist[:, :nv] = distances(graph)
    lap = np.zeros((nv + 1, nv + 1))
    lap[:nv, :nv] = -operator_by_label(graph, "FullLaplacian").matrix
    # dividing by an exact power of two near Deg(x) keeps the forms of
    # moderate size at any weight scale, and K is scaled back exactly
    scales = np.ldexp(0.5, np.frexp(-lap.diagonal()[:nv])[1])
    inv_n = 0.0 if math.isinf(n) else 1.0 / n
    adjacent = dist == 1.0
    sizes = adjacent.sum(axis=1)
    largest = int(sizes.max())
    widths = np.minimum(-(-sizes // _PAD_STEP) * _PAD_STEP, largest)
    # each S_1 in ascending order, then the spare vertex
    ranked = np.argsort(~adjacent, axis=1, kind="stable")[:, :largest]
    spheres = np.where(np.arange(largest) < sizes[:, None], ranked, nv)
    least = np.zeros(nv)
    finite = np.zeros(nv, dtype=bool)
    order = np.argsort(sizes, kind="stable")
    # sorted(set(...)): numpy's unique imports numpy.ma on its first call
    with np.errstate(all="ignore"):
        for width in sorted(set(widths.tolist())):
            same_width = order[widths[order] == width]
            step = max(1, _FORM_ENTRIES // ((width + 1) * (nv + 1)))
            for lo in range(0, same_width.size, step):
                x = same_width[lo : lo + step]
                forms, finite[x] = _bakry_emery_forms(
                    lap, dist[x], x, spheres[x, :width], scales[x], inv_n)
                ks = sizes[x]
                for k in sorted(set(ks.tolist())):
                    same = ks == k
                    if finite[x[same]].all():
                        least[x[same]] = symmetric_eigvalsh(forms[same, :k, :k])[:, 0]
        values = scales * least
    if not finite.all():
        raise NotApplicable(f"the curvature forms at vertex {np.argmin(finite)} overflow: the "
                            "degrees in its 2-ball differ by more than the float range")
    if not np.isfinite(values).all():
        raise NotApplicable(f"the curvature at vertex {np.argmin(np.isfinite(values))} overflows: "
                            "it lies beyond the float range")
    per = dict(enumerate(values.tolist()))
    return CurvatureResult(
        kind="BakryEmery",
        dimension=n,
        per_location=per,
        global_min=min(per.values()),
    )


def _bakry_emery_forms(lap, near, x, s1, scale, inv_n):
    """The scaled forms of ``bakry_emery_curvature`` at the vertices
    ``x``, as one (vertices x width x width) stack, and whether each
    vertex's ``t`` on ``S_1`` and ``S_2`` and form are finite.

    ``lap`` is the Laplacian with the spare vertex last, ``near`` holds the
    hop distances from each ``x``, ``s1`` each ``S_1`` padded with the
    spare vertex, and ``scale`` each power of two.  The rows of ``x`` and
    ``S_1`` are gathered over all columns: ``t`` is (L^2)_x over all
    columns, and the ``S_2`` term ``R diag(1 / t) R^T`` is one stacked
    product, with ``t`` read as infinite off ``S_2``.  Padding adds only
    zero rows and columns.
    """
    scale = scale[:, None, None]
    ball = np.concatenate((x[:, None], s1), axis=1)
    rows = lap[ball] / scale  # L on rows x, S_1; x first
    head = lap[x[:, None, None], ball[:, None, :]] / scale  # L_xx, then p
    p = head[:, 0, 1:]
    l11 = lap[s1[:, :, None], s1[:, None, :]] / scale
    t = (head @ rows)[:, 0]  # (L^2)_x over all columns
    q11 = (0.5 - inv_n) * (p[:, :, None] * p[:, None, :]) - 0.5 * (
        p[:, :, None] * l11 + l11.transpose(0, 2, 1) * p[:, None, :])
    diag = np.arange(s1.shape[1])
    q11[:, diag, diag] += 0.25 * t[np.arange(x.size)[:, None], s1]
    # R = diag(p) P_12: each p_u P_uw / t_w is at most 1, so no p_u p_v
    # underflows alone; off S_2 the infinite t zeroes R / t
    r = p[:, :, None] * rows[:, 1:]
    schur = q11 - (r / np.where(near == 2.0, t, np.inf)[:, None, :]) @ r.transpose(0, 2, 1)
    # 0 on the padding, whose p is 0, so that its rows and columns stay 0
    d = np.where(s1 < len(lap) - 1, 1.0 / np.sqrt(0.5 * p), 0.0)
    forms = d[:, :, None] * schur * d[:, None, :]
    # an entry of rows that overflows leaves t or the form non-finite; t is
    # checked too, as an infinite t on S_2 zeroes its Schur term
    t_finite = np.isfinite(t) | ~((near == 1.0) | (near == 2.0))
    return forms, t_finite.all(axis=1) & np.isfinite(forms).all(axis=(1, 2))


def ollivier_curvature(
    graph: WeightedBoundaryGraph, x: int, y: int
) -> float:
    """kappa(x, y) for an edge {x, y}, solved as a sender-to-receiver gain problem.

    The primal LP is over the free values of ``f`` on ``B_1(x) u B_1(y)``
    (all but ``f(x) = 1`` and ``f(y) = 0``), shifted to
    ``g = f + d(y, .) >= 0``: ``min c.g + const`` subject to
    ``f(s) - f(r) <= d(s, r)`` for each ordered pair of ball vertices but
    {x, y}.  It is feasible (``f = 1 - d(x, .)``) and bounded (every free
    vertex is adjacent to ``x`` or ``y``, so ``|f| <= 2``), so by strong
    duality its optimum is minus that of its dual, an optimal transport
    problem: ``u_sr`` ships mass from ``s`` to ``r`` at cost
    ``d(s, r) - (f - g)(s) + (f - g)(r)``, each free vertex ``v`` takes in
    ``c_v`` more than it sends out, and ``x`` and ``y`` send and receive
    freely.  A free vertex with ``c_v < 0`` is a sender, one with
    ``c_v > 0`` a receiver.  Along a route ``s -> v -> r`` the ``f - g``
    terms telescope, and the triangle inequality of the hop metric makes a
    detour through a third vertex never cheaper than going direct
    (Kantorovich duality; Muench-Wojciechowski).  So some optimal plan
    ships only from a sender or from {x, y}, only to a receiver or to
    {x, y}, and not between x and y, whose columns touch no row and cost
    0 or 2.

    In that plan ``x`` and ``y`` are priced in closed form.  As
    ``d(x, y) = 1``, ``|d(x, u) - d(y, u)| <= 1`` for every ``u``.  Sender
    ``v`` ships to ``y`` at ``2 d(y, v)`` and to ``x`` at
    ``d(x, v) + d(y, v) + 1``, which is no less, so its cheapest outlet is
    ``a_v = 2 d(y, v)``.  Receiver ``w`` takes from ``y`` at 0 and from
    ``x`` at ``d(x, w) - 1 - d(y, w)``, which is no more, so its cheapest
    fill is ``b_w = d(x, w) - 1 - d(y, w) <= 0``.  Every column out of a
    sender costs at least 0, so some optimal plan ships exactly ``|c_v|``
    from each sender, and each receiver takes what it has left from ``x``.
    Shipping ``t_vw`` from ``v`` straight to ``w`` instead then gains
    ``g_vw = a_v + b_w - (d(v, w) + d(y, v) - d(y, w))
    = d(y, v) + d(x, w) - 1 - d(v, w)`` per unit, so the dual optimum is
    ``sum |c_v| a_v + sum c_w b_w - max sum g_vw t_vw`` over ``t >= 0``
    with ``sum_w t_vw <= |c_v|`` and ``sum_v t_vw <= c_w``.  Only pairs
    with ``g_vw > 0`` can raise that maximum, and each such gain is 1 or 2,
    since free vertices lie at distance 1 or 2 from ``x`` and ``y`` and
    ``d(v, w) >= 1``.  An edge without a gaining pair needs no flow.

    The gain problem's constraint matrix is a bipartite incidence matrix,
    so it is totally unimodular, and with integral gains its dual
    ``min sum |c_v| p_v + sum c_w q_w`` over ``p, q >= 0`` with
    ``p_v + q_w >= g_vw`` has an optimum with ``p, q`` in {0, 1, 2}
    (Schrijver, Combinatorial Optimization, 2003).  Split sender ``v`` into
    ``v1``, ``v2``, each fed from the source at capacity ``|c_v|``, and
    receiver ``w`` into ``w1``, ``w2``, each draining to the sink at
    ``c_w``.  A gaining pair gives the unbounded arc ``v1 -> w1``, and a
    pair that gains 2 also ``v2 -> w1`` and ``v1 -> w2``.  With unbounded
    arcs ``v1 -> v2`` and ``w2 -> w1`` added, the finite cuts would be
    exactly the feasible ``p, q``: ``v1`` (``v2``) on the sink side where
    ``p_v >= 1`` (2), ``w1`` (``w2``) on the source side where ``q_w >= 1``
    (2), each cut costing the dual objective.  A minimum cut never needs
    those two arcs, so the network is bipartite, from sender copies to
    receiver copies.  In a finite cut, the heads of the arcs out of a
    source-side ``v1`` are on the source side, and they include the heads of
    ``v2``'s arcs, so ``v2`` can join ``v1`` there at no cost.  Likewise the
    tails of the arcs into a sink-side ``w1`` are on the sink side and
    include the tails of ``w2``'s arcs, so ``w2`` can join ``w1`` there.  So
    the maximum gain is the value of a maximum flow (``_max_gain``).

    The code works in units of ``scale``, a power of two near
    ``Deg(x) + Deg(y)``: it divides the objective row by ``scale`` before
    it forms ``c`` and ``const``, and returns ``scale * (const - value)``.
    Dividing and multiplying by a power of two are exact, the flow's
    capacities are unit-sized for weights of any magnitude, and no
    intermediate sum overflows for weights near the float range.  The edge
    goes through the same whole-array pass as every edge of
    ``ollivier_curvature_all`` (``_ollivier_edges``).  Raises ValueError
    for a vertex outside the graph or a pair that is not an edge.
    """
    for v in (x, y):
        if not 0 <= operator.index(v) < graph.vertex_count:
            raise ValueError(f"vertex {v} is not in 0..{graph.vertex_count - 1}")
    if graph.weights[x, y] <= 0.0:
        raise ValueError(f"{{{x},{y}}} is not an edge")
    return float(_ollivier_edges(graph, np.array([x]), np.array([y]))[0])


# (edges x vertices) entries per whole-array pass of _ollivier_edges, which
# bounds its temporaries on large graphs
_PASS_ENTRIES = 1 << 16


def _ollivier_edges(graph: WeightedBoundaryGraph, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """kappa(xs[i], ys[i]) for edges given by their ends, as in
    ``ollivier_curvature``, in whole-array passes over blocks of edges.

    Row ``i`` of each (edges x vertices) array holds edge ``i``'s scaled
    objective row with its entries at ``x`` and ``y`` set to 0, and the hop
    distances from its ends, capped at 2 where they are gathered.  The row
    is 0 off the ball, since a vertex adjacent to neither end has no weight
    to either, so the free ball needs no mask, and the closed-form part of
    every edge in a block is a few array expressions.  The sums ``c.dy``,
    ``supply.outlet`` and ``demand.fill`` are taken left to right along
    each row; zero terms leave such a sum as it is, so an edge's kappa
    depends neither on the vertices off its ball nor on which edges share
    its pass.  Only an edge with a pair that gains goes on to ``_max_gain``.
    """
    op = operator_by_label(graph, "FullLaplacian").matrix  # -Lap
    dist = distances(graph)
    deg = op.diagonal()
    step = max(1, _PASS_ENTRIES // graph.vertex_count)
    kappa = np.empty(len(xs))
    for lo in range(0, len(xs), step):
        x, y = xs[lo : lo + step], ys[lo : lo + step]
        rows = np.arange(x.size)
        # objective Lap f(y) - Lap f(x) = scale * (c.g + const)
        scale = np.ldexp(0.5, np.frexp(deg.take(x) + deg.take(y))[1])
        c = (op.take(x, axis=0) - op.take(y, axis=0)) / scale[:, None]
        at_x = c[rows, x]
        c[rows, x] = c[rows, y] = 0.0
        # capping at 2 is exact on the free ball, within 2 hops of both ends,
        # and off it, where c is 0, keeps d = inf between components out of c * d
        dx, dy = np.minimum(dist.take((x, y), axis=0), 2.0)
        supply, demand = np.maximum(-c, 0.0), np.maximum(c, 0.0)
        # sender v ships |c_v| to y at a_v = 2 d(y, v); receiver w takes c_w
        # from x at b_w = d(x, w) - 1 - d(y, w).  Each sum runs left to right
        # along its row, in an order that the code fixes and BLAS does not
        dx1 = dx - 1.0  # d(x, .) - 1, in every fill and every gain
        terms = np.array((c * dy, supply * (2.0 * dy), demand * (dx1 - dy)))
        c_dy, outlets, fills = terms.cumsum(axis=-1)[..., -1]
        const, value = at_x - c_dy, outlets + fills
        send, recv = supply > 0.0, demand > 0.0
        gains = np.zeros(x.size)
        for e in range(x.size):
            vs, ws = send[e].nonzero()[0], recv[e].nonzero()[0]
            if not (vs.size and ws.size):
                continue
            # g_vw = d(y, v) + d(x, w) - 1 - d(v, w)
            gain = (dy[e].take(vs)[:, None] + dx1[e].take(ws)
                    - dist.take(vs, axis=0).take(ws, axis=1))
            if np.count_nonzero(gain > 0.0):
                gains[e] = _max_gain(supply[e].take(vs), demand[e].take(ws), gain)
        kappa[lo : lo + step] = scale * (const - (value - gains))
    return kappa


# gain > 1 marks a pair that gains 2, gain > 0 a pair that gains at all
_GAIN_THRESHOLDS = np.array([[1.0], [0.0]])


def _max_gain(supply: np.ndarray, demand: np.ndarray, gain: np.ndarray) -> float:
    """Maximum of ``sum gain_vw t_vw`` over ``t >= 0`` with row sums at most
    ``supply`` and column sums at most ``demand`` (gains at most 2): the
    value of a maximum flow on the network of ``ollivier_curvature``.
    Every supply and demand is positive, as ``_ollivier_edges`` passes them.

    Sender copies are ``v2 = v`` and ``v1 = ns + v``, receiver copies
    ``w2 = w`` and ``w1 = nr + w``.  A set of copies is a Python int used as
    a bitset, bit ``i`` standing for copy ``i``: ``heads[t]`` holds the
    heads of the arcs out of sender copy ``t``, read off one packbits of the
    gain matrix, and ``fed_heads[t]`` and ``fed_tails[h]`` the heads and
    tails of the arcs that carry flow.  The supply or demand each copy has
    left and the flow on each arc are Python floats.

    A one-pass start pushes along the arcs in turn, those of the pairs that
    gain 2 first (``v2 -> w1``, ``v1 -> w2``, then every ``v1 -> w1``), each
    row visiting only the receiver copies that still have demand and
    stopping once its sender copy is spent.  Then each breadth-first search
    from the receiver copies with demand left levels the copies by their
    distance to the sink: a level's sender copies are those whose heads meet
    the receiver copies of the level before, and its next receiver copies
    the union of their fed heads.  The shortest augmenting path (Edmonds and
    Karp, J. ACM 1972) runs down the levels from a sender copy with supply
    left, forward along an arc and backward along one that carries flow.  It
    takes the lowest copy at each step, and the lowest sender, ``v1`` before
    ``v2``, at the start: that fixes which path is taken, and so the
    rounding of the total, the same number that
    ``tests/oracle.py::max_gain_by_levels`` finds with boolean matrices.
    The flow is maximum once no path is left, which is so without a search
    when no sender copy with an arc has supply left or no receiver copy with
    an arc has demand left.  Every push leaves its bottleneck (a supply, a
    demand or a flow carried backward) at exactly 0, since ``a - a == 0`` in
    floating point, so as in exact arithmetic the distance to the sink never
    falls and at most copies times arcs paths are pushed.
    """
    ns, nr = gain.shape
    width, w2s = 2 * nr, (1 << nr) - 1
    # (v, 0, w): v gains 2 with w, (v, 1, w): v gains with w, so the bits of
    # sender v are the heads of v1, its w2 copies then its w1 copies
    packed = np.packbits(gain[:, None] > _GAIN_THRESHOLDS, bitorder="little")
    bits, mask = int.from_bytes(packed.tobytes(), "little"), (1 << width) - 1
    v1s = [bits >> width * v & mask for v in range(ns)]
    heads = [(row & w2s) << nr for row in v1s] + v1s
    left, right = supply.tolist() * 2, demand.tolist() * 2
    unfilled, supplied = (1 << 2 * nr) - 1, (1 << 2 * ns) - 1
    flow, total = {}, 0.0
    # the arcs block by block, v2 -> w1, v1 -> w2, then v1 -> w1, each by rows
    for first, part in ((0, -1), (ns, w2s), (ns, ~w2s)):
        for t in range(first, first + ns):
            s = left[t]
            if s > 0.0:
                free = heads[t] & part & unfilled
                while free:
                    low = free & -free
                    h = low.bit_length() - 1
                    r = right[h]
                    if r < s:  # fills h
                        s -= r
                        right[h] = 0.0
                        flow[t, h] = r
                        total += r
                        unfilled ^= low
                        free ^= low
                    else:  # spends t
                        right[h] = r - s
                        flow[t, h] = s
                        total += s
                        if r == s:
                            unfilled ^= low
                        s = 0.0
                        supplied ^= 1 << t
                        break
                left[t] = s
    # a path needs a sender copy with supply left and a receiver copy with
    # demand left, each with an arc; rows holds each sender copy that has an
    # arc, as its bit and its heads
    rows = [(1 << t, row) for t, row in enumerate(heads) if row]
    arc_tails = sum([bit for bit, _row in rows])
    arc_heads = reduce(operator.or_, v1s, 0)
    if not (supplied & arc_tails and unfilled & arc_heads):
        return total
    fed_heads, fed_tails = [0] * (2 * ns), [0] * (2 * nr)
    for t, h in flow:
        fed_heads[t] |= 1 << h
        fed_tails[h] |= 1 << t
    low_copies = (1 << ns) - 1
    while supplied & arc_tails and unfilled & arc_heads:
        receivers, senders = [unfilled], []
        reached, seen = unfilled, 0
        while True:
            level = receivers[-1]
            new = sum([bit for bit, row in rows if row & level]) & ~seen
            found = new & supplied
            if found:
                break
            back = _gather(new, fed_heads) & ~reached
            if not back:
                return total
            seen, reached = seen | new, reached | back
            senders.append(new)
            receivers.append(back)
        # the lowest sender with a start, its v1 copy before its v2 copy
        v = _lowest((found | found >> ns) & low_copies)
        ts, hs = [v + ns if found >> ns + v & 1 else v], []
        for k in range(len(receivers) - 1, -1, -1):
            hs.append(_lowest(receivers[k] & heads[ts[-1]]))
            if k:
                ts.append(_lowest(senders[k - 1] & fed_tails[hs[-1]]))
        # the path's arcs (ts[i], hs[i]) forward and (ts[i + 1], hs[i]) back
        forward, backward = list(zip(ts, hs)), list(zip(ts[1:], hs))
        push = min(left[ts[0]], right[hs[-1]], *map(flow.__getitem__, backward))
        left[ts[0]] -= push
        right[hs[-1]] -= push
        for t, h in forward:
            flow[t, h] = flow.get((t, h), 0.0) + push
            fed_heads[t] |= 1 << h
            fed_tails[h] |= 1 << t
        for t, h in backward:
            flow[t, h] -= push
            if flow[t, h] == 0.0:
                fed_heads[t] ^= 1 << h
                fed_tails[h] ^= 1 << t
        total += push
        if left[ts[0]] == 0.0:
            supplied ^= 1 << ts[0]
        if right[hs[-1]] == 0.0:
            unfilled ^= 1 << hs[-1]
    return total


def _gather(bitset: int, table: list) -> int:
    """The union of ``table[i]`` over the set bits ``i`` of ``bitset``."""
    union = 0
    while bitset:
        low = bitset & -bitset
        union |= table[low.bit_length() - 1]
        bitset ^= low
    return union


def _lowest(bitset: int) -> int:
    """The index of the lowest set bit of a nonzero ``bitset``."""
    return (bitset & -bitset).bit_length() - 1


def ollivier_curvature_all(graph: WeightedBoundaryGraph) -> CurvatureResult:
    """Transport curvature kappa(u, v) on every edge, u < v."""
    _require_connected(graph)
    us, vs = np.nonzero(np.triu(graph.weights, k=1))
    kappa = _ollivier_edges(graph, us, vs)
    per = dict(zip(zip(us.tolist(), vs.tolist()), kappa.tolist()))
    return CurvatureResult(
        kind="Ollivier",
        dimension=None,
        per_location=per,
        global_min=min(per.values()),
    )


# ---------------------------------------------------------------------------
# Lichnerowicz-type certificates

LICHNEROWICZ_VARIANTS = (
    "be-g-nu2",
    "ollivier-g-nu2",
    "be-interior",
    "ollivier-interior",
    "be-g-lambda2",
    "ollivier-g-lambda2",
)


def _curvature_bound(graph, variant, n, tol):
    """The curvature lower bound of ``graph`` behind ``variant``.

    Curvature scales like the degrees, so a value within ``tol * max Deg``
    of zero counts as zero (not positive).  max Deg is positive once the
    curvature is computed at all: both curvatures need a connected graph
    with an edge, which rules out an edgeless interior."""
    zero_tol = tol * float(degree_vector(graph).max())
    if variant.startswith("be"):
        k_min = bakry_emery_curvature(graph, n).global_min
        if k_min <= zero_tol:
            raise NotApplicable(f"curvature-dimension bound {k_min} is not positive")
        return k_min if math.isinf(n) else n * k_min / (n - 1.0)
    kappa = ollivier_curvature_all(graph).global_min
    if kappa <= zero_tol:
        raise NotApplicable(f"edge curvature bound {kappa} is not positive")
    return kappa


def certify_lichnerowicz(
    graph: WeightedBoundaryGraph,
    variant: str,
    n: float = float("inf"),
    tol: float = DEFAULT_TOL,
) -> ComparisonCertificate:
    """One of the six spectral-gap lower bounds from positive curvature.

    Variants: curvature of the whole graph bounding nu_2; curvature of the
    interior bounding both nu_2 and lambda_2 (with min boundary degree);
    curvature of the whole graph bounding lambda_2 (with the smallest
    squared singular value).  Raises NotApplicable when hypotheses fail,
    first, before any curvature, when nu_2 and lambda_2 do not exist.
    """
    if variant not in LICHNEROWICZ_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if graph.interior.size < 2:
        raise NotApplicable("nu_2 and lambda_2 do not exist (singleton interior)")
    theorem_id = "LichnerowiczBE" if variant.startswith("be") else "LichnerowiczOllivier"
    interior = variant.endswith("-interior")
    degrees = degree_vector(graph)[graph.interior] if interior else degree_vector(graph)
    bound = _curvature_bound(interior_subgraph(graph) if interior else graph, variant, n, tol)
    if interior:
        lhs = [float(spectrum(graph, "NeumannLaplacian")[1]),
               float(spectrum(graph, "DirichletLaplacian")[1])]
        rhs = [bound, bound + float(boundary_degree_vector(graph).min())]
    elif variant.endswith("-nu2"):
        lhs = [float(spectrum(graph, "NeumannLaplacian")[1])]
        rhs = [bound]
    else:  # *-g-lambda2: lambda_2 >= bound + s_1^2
        lhs = [float(spectrum(graph, "DirichletLaplacian")[1])]
        rhs = [bound + weighted_singular_values(graph)[0]]
    return certificate(theorem_id, degrees, tol, lhs, rhs,
                       extra={"variant": variant, "bound": bound})
