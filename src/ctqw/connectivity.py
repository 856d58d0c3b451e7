"""Graph connectivity measures.

Vertex and edge connectivity come from unit-capacity max-flow (BFS
augmenting paths; vertex version on the standard vertex-split digraph,
where vertex v is an arc v_in -> v_out of capacity 1). The BFS takes one
whole level per step: the frontier's residual rows, as one boolean block
with the visited columns masked out, give the next level, and each new
vertex takes as parent the first frontier vertex that reaches it
(`argmax` down the block's column). It stops at the level that reaches
t, so every augmenting path is a shortest one, as Edmonds-Karp needs;
the path may differ from a vertex-at-a-time BFS's, but the flow value
does not.

Whitney's inequality kappa <= lambda <= delta (Amer. J. Math. 54, 1932)
settles lambda whenever kappa = delta, and bounds it below otherwise.
Two classic bounds keep the number of flows small, and every flow stops
augmenting once it reaches the best cut found so far, since only a
smaller value can change the answer:

- kappa (Even, SIAM J. Comput. 4, 1975): only sources v_0 ... v_kappa are
  needed, each against the non-adjacent vertices of larger index. The
  smallest index i outside a minimum separator S has i <= kappa, and
  every vertex that S cuts off from v_i has a larger index. Starting from
  best = delta, sources s < best suffice: while best > kappa, i < best.
- lambda (Esfahanian and Hakimi, Networks 14, 1984, after Matula): when
  lambda < delta, each side of a minimum edge cut holds a vertex with no
  neighbor across it, so every dominating set D meets both sides. Then
  lambda = min(delta, maxflow(v, w) over w in D - {v}) for any v in D,
  and lambda = delta when |D| = 1. These flows run only when kappa <
  delta, and the search stops once the best cut equals kappa.

Common neighbors take kappa's pairs off the flow network. For
non-adjacent s, t, every s-t separator contains C = N(s) & N(t), so
kappa(s, t) = |C| + kappa_{G-C}(s, t) (Menger). One product A @ A gives
|C| for every pair; kappa(s, t) >= |C|, so a pair whose |C| reaches the
best cut is skipped, and since the best cut only falls it stays skipped.
The others' flows run from zero with C's split arcs removed, stopping at
the best cut less |C|. A connected graph with at least two vertices has
kappa >= 1, so kappa's search stops as soon as the best cut is 1.

Algebraic connectivity is the second-smallest Laplacian eigenvalue; the
normalized variant divides entries by sqrt(deg_i * deg_j). Both come from
the eigenvalues alone (LAPACK ``eigvalsh``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, laplacian
from .numerics import sym_eigvals


def _max_flow(residual: np.ndarray, s: int, t: int, cutoff: int) -> int:
    """Edmonds-Karp max flow from zero on the int64 capacity matrix
    `residual`, which the caller owns and this overwrites with the final
    residual network. Each augmenting path carries one unit, which any path
    with integer residuals can, and augmenting stops once the flow reaches
    `cutoff`: the result is min(maxflow, cutoff)."""
    n = residual.shape[0]
    flow = 0
    while flow < cutoff:
        # breadth-first, one level per step: a new vertex's parent is the
        # first frontier vertex with a residual arc to it
        parent = np.full(n, -1, dtype=np.int64)
        parent[s] = s
        frontier = np.array([s])
        while parent[t] < 0:
            reach = (residual[frontier] > 0) & (parent < 0)
            fresh = np.flatnonzero(reach.any(axis=0))
            if fresh.size == 0:
                return flow
            parent[fresh] = frontier[reach[:, fresh].argmax(axis=0)]
            frontier = fresh
        v = t
        while v != s:
            u = int(parent[v])
            residual[u, v] -= 1
            residual[v, u] += 1
            v = u
        flow += 1
    return flow


def _dominating_set(adj: np.ndarray) -> list[int]:
    """Greedy dominating set: repeatedly take the vertex whose closed
    neighborhood covers the most uncovered vertices (lowest index on ties)."""
    closed = adj.astype(bool) | np.eye(adj.shape[0], dtype=bool)
    uncovered = np.ones(adj.shape[0], dtype=bool)
    chosen = []
    while uncovered.any():
        v = int(np.argmax(closed[:, uncovered].sum(axis=1)))
        chosen.append(v)
        uncovered &= ~closed[v]
    return chosen


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects the graph.

    Complete graphs have no separating set; by convention they score n - 1.
    Otherwise this is the minimum degree, lowered by kappa(s, t) = |C| +
    maxflow(s, t) over each source s below the best cut so far and each
    non-adjacent t > s, the flow through the vertex-split digraph with unit
    vertex capacities and the common neighbors C cut out; pairs whose |C|
    reaches the best cut are skipped, and the search stops at 1 (see the
    module docstring).
    """
    if not g.is_connected():
        return 0
    adj = g.adjacency.astype(bool)
    n = g.n
    best = int(g.degrees.min())
    if best == n - 1:  # complete
        return best
    shared = g.adjacency @ g.adjacency  # common-neighbor counts, exact
    # split: node v -> in-node v, out-node v + n, internal capacity 1
    capacity = np.zeros((2 * n, 2 * n), dtype=np.int64)
    capacity[np.arange(n), np.arange(n) + n] = 1
    capacity[n:, :n] = n * adj
    # the pairs s < t that need a flow now, row by row; best only falls, so
    # no other pair needs one later
    for s, t in np.argwhere(np.triu(~adj & (shared < best), 1)[:best]).tolist():
        if s >= best:
            break
        if shared[s, t] >= best:
            continue
        common = np.flatnonzero(adj[s] & adj[t])
        residual = capacity.copy()
        residual[common, common + n] = 0
        best = min(best, common.size + _max_flow(residual, s + n, t, best - common.size))
        if best == 1:
            return 1
    return best


def _edge_connectivity(g: Graph, kappa: int) -> int:
    """Edge connectivity of `g`, whose vertex connectivity is `kappa`: kappa
    itself when it is 0 or the minimum degree (Whitney), otherwise the
    minimum degree lowered by the max flows from one vertex of a greedy
    dominating set to each of the others, stopping at kappa (see the module
    docstring)."""
    best = int(g.degrees.min())
    if kappa in (0, best):
        return kappa
    capacity = g.adjacency.astype(np.int64)
    v, *others = _dominating_set(g.adjacency)
    for w in others:
        best = _max_flow(capacity.copy(), v, w, best)
        if best == kappa:
            break
    return best


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects the graph; 0 for a
    disconnected graph.

    Computes the vertex connectivity first (Whitney's lower bound), so a
    call on its own costs kappa's flows too; :func:`connectivity_report`
    computes kappa once for both.
    """
    return _edge_connectivity(g, vertex_connectivity(g))


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue."""
    if g.n < 2:
        raise ValueError("needs at least 2 vertices")
    return float(sym_eigvals(laplacian(g))[1])


def _normalized_laplacian(g: Graph) -> np.ndarray:
    degs = g.degrees
    if np.any(degs == 0):
        raise ValueError("normalized Laplacian undefined with isolated vertices")
    inv_sqrt = 1.0 / np.sqrt(degs)
    return laplacian(g) * np.outer(inv_sqrt, inv_sqrt)


def normalized_algebraic_connectivity(g: Graph) -> float:
    """Second-smallest eigenvalue of the degree-normalized Laplacian."""
    if g.n < 2:
        raise ValueError("needs at least 2 vertices")
    return float(sym_eigvals(_normalized_laplacian(g))[1])


@dataclass(frozen=True)
class ConnectivityReport:
    min_degree: int
    vertex_conn: int
    edge_conn: int
    algebraic_conn: float
    normalized_algebraic_conn: float


def connectivity_report(g: Graph) -> ConnectivityReport:
    """Every measure of this module for `g`, with kappa computed once and
    lambda derived from it. Raises ValueError when `g` has fewer than 2
    vertices or an isolated vertex (no normalized Laplacian)."""
    kappa = vertex_connectivity(g)
    return ConnectivityReport(
        min_degree=int(g.degrees.min()),
        vertex_conn=kappa,
        edge_conn=_edge_connectivity(g, kappa),
        algebraic_conn=algebraic_connectivity(g),
        normalized_algebraic_conn=normalized_algebraic_connectivity(g),
    )
