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
  and lambda = delta when |D| = 1.

Certificates skip or shorten the flows that remain:

- Common neighbors. For non-adjacent s, t, each common neighbor c gives
  the path s_out -> c_in -> c_out -> t_in, and distinct c give paths that
  share no vertex; so maxflow(s, t) >= |N(s) & N(t)|. One product A @ A
  gives that count for every pair, and kappa's flow loop visits only the
  pairs whose count is below the best cut when their source's turn comes;
  the best cut only falls, so a pair screened out then stays out.
- Length-3 paths, for lambda. Let v, w be any two vertices, A = N(v) -
  N[w] and B = N(w) - N[v], and M a matching between A and B in G. The
  paths v - c - w over the common neighbors c, the edge v - w when
  present, and v - a - b - w over the pairs (a, b) of M share no edge.
  Their edges at v lead to w, to the c and to the a, all distinct since A
  holds neither w nor a common neighbor; likewise at w; the one edge at
  both, v - w, is one path. Each a - b edge touches neither v nor w (a is
  neither v nor w, and b neither), and M holds it once. So maxflow(v, w)
  >= |N(v) & N(w)| + [v ~ w] + |M| for any matching M; a greedy one
  serves.

A flow whose certificate reaches the best cut cannot lower it and is
skipped. Otherwise the certificate's paths are a feasible flow, and
Edmonds-Karp augments from it instead of from zero: augmenting paths reach
the maximum from any feasible flow, one unit at a time, so the result is
the same min(maxflow, cutoff). A connected graph with at least two
vertices has kappa >= 1 and lambda >= 1, so the search stops as soon as
the best cut is 1.

Algebraic connectivity is the second-smallest Laplacian eigenvalue; the
normalized variant divides entries by sqrt(deg_i * deg_j). Both come from
the eigenvalues alone (LAPACK ``eigvalsh``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, laplacian
from .numerics import sym_eigvals


def _max_flow(
    capacity: np.ndarray,
    s: int,
    t: int,
    cutoff: int,
    paths: Sequence[Sequence[int]],
) -> int:
    """Edmonds-Karp max flow on an integer capacity matrix, starting from one
    unit along each of `paths` (s-t node sequences whose arcs are disjoint
    and have capacity). Each augmenting path carries one unit, which any
    path with integer residuals can, and augmenting stops once the flow
    reaches `cutoff`: the result is min(maxflow, cutoff)."""
    residual = capacity.astype(np.int64)
    for path in paths:
        for u, v in zip(path, path[1:]):
            residual[u, v] -= 1
            residual[v, u] += 1
    n = residual.shape[0]
    flow = len(paths)
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


def _greedy_matching(block: np.ndarray) -> list[tuple[int, int]]:
    """A matching of the bipartite graph with boolean biadjacency `block`,
    as (row, column) pairs: each row in turn takes its first free column."""
    taken_rows: set[int] = set()
    taken_cols: set[int] = set()
    pairs = []
    rows, cols = np.nonzero(block)  # row-major order
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i not in taken_rows and j not in taken_cols:
            taken_rows.add(i)
            taken_cols.add(j)
            pairs.append((i, j))
    return pairs


def _edge_certificate(adj: np.ndarray, v: int, w: int) -> list[tuple[int, ...]]:
    """Edge-disjoint v-w paths (see the module docstring): v - c - w over
    the common neighbors c, the edge v - w when present, and v - a - b - w
    over a greedy matching between N(v) - N[w] and N(w) - N[v]."""
    paths: list[tuple[int, ...]] = [(v, c, w) for c in np.flatnonzero(adj[v] & adj[w])]
    if adj[v, w]:
        paths.append((v, w))
    only_v = np.flatnonzero(adj[v] & ~adj[w])
    only_w = np.flatnonzero(adj[w] & ~adj[v])
    only_v, only_w = only_v[only_v != w], only_w[only_w != v]
    if only_v.size and only_w.size:
        pairs = _greedy_matching(adj[np.ix_(only_v, only_w)])
        paths += [(v, int(only_v[a]), int(only_w[b]), w) for a, b in pairs]
    return paths


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects the graph; 0 for a
    disconnected graph.

    The minimum degree, lowered by the unit-capacity max flows from one
    vertex of a greedy dominating set to each of the others, skipping
    those whose path certificate reaches the best cut so far and stopping
    at 1 (see the module docstring); no flow runs when one vertex
    dominates.
    """
    if g.n < 2 or not g.is_connected():
        return 0
    capacity = g.adjacency.astype(np.int64)
    adj = g.adjacency.astype(bool)
    best = int(g.degrees.min())
    v, *others = _dominating_set(g.adjacency)
    for w in others:
        paths = _edge_certificate(adj, v, w)
        if len(paths) >= best:
            continue
        best = min(best, _max_flow(capacity, v, w, best, paths))
        if best == 1:
            return 1
    return best


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects the graph.

    Complete graphs have no separating set; by convention they score n - 1.
    Otherwise this is the minimum degree, lowered by the max flows through
    the vertex-split digraph with unit vertex capacities from each source
    s below the best cut so far to the non-adjacent vertices t > s,
    skipping pairs whose common neighbors reach the best cut and stopping
    at 1 (see the module docstring).
    """
    if not g.is_connected():
        return 0
    adj = g.adjacency.astype(bool)
    n = g.n
    best = int(g.degrees.min())
    if best == n - 1:  # complete
        return best
    shared = g.adjacency @ g.adjacency  # common-neighbor counts, exact
    # the pairs s < t that need a flow now; best only falls, so no other
    # pair needs one later
    pending = np.triu(~adj & (shared < best), 1)
    sources = np.flatnonzero(pending[:best].any(axis=1))
    if sources.size == 0:
        return best
    # split: node v -> in-node v, out-node v + n, internal capacity 1
    capacity = np.zeros((2 * n, 2 * n), dtype=np.int64)
    capacity[np.arange(n), np.arange(n) + n] = 1
    capacity[n:, :n] = n * adj
    for s in sources.tolist():
        if s >= best:
            break
        for t in np.flatnonzero(pending[s]).tolist():
            if shared[s, t] >= best:
                continue
            paths = [(s + n, c, c + n, t) for c in np.flatnonzero(adj[s] & adj[t])]
            best = min(best, _max_flow(capacity, s + n, t, best, paths))
            if best == 1:
                return 1
    return best


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
    return ConnectivityReport(
        min_degree=int(g.degrees.min()),
        vertex_conn=vertex_connectivity(g),
        edge_conn=edge_connectivity(g),
        algebraic_conn=algebraic_connectivity(g),
        normalized_algebraic_conn=normalized_algebraic_connectivity(g),
    )
