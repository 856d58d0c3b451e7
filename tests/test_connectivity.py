import math
import random

import numpy as np
import pytest

from ctqw import (
    CompleteBipartite,
    Graph,
    JoinedComplete,
    Petersen,
    Rook,
    algebraic_connectivity,
    build,
    connectivity_report,
    edge_connectivity,
    normalized_algebraic_connectivity,
    vertex_connectivity,
)
from ctqw.graphs import (
    build_complete,
    build_complete_bipartite,
    build_joined_complete,
    build_paley_prime,
    build_petersen,
    build_rook,
    build_simplex,
)

from ctqw import connectivity
from _oracles import (
    brute_cut_edge_connectivity,
    brute_edge_connectivity,
    brute_local_edge_cut,
    brute_local_vertex_cut,
    brute_vertex_connectivity,
    normalized_laplacian,
)

SMALL_INSTANCES = [
    build_complete(4),
    build_complete(6),
    build_complete_bipartite(1, 1),
    build_complete_bipartite(2, 2),
    build_complete_bipartite(4, 3),
    build_paley_prime(5),
    build_petersen(),
    build_rook(3),
    build_joined_complete(2),
    build_joined_complete(3),
    build_joined_complete(5),
    build_simplex(2),
]

LARGER_INSTANCES = [
    build_complete_bipartite(8, 4),
    build_paley_prime(13),
    build_paley_prime(17),
    build_joined_complete(6),
    build_simplex(3),
    build_simplex(5),
]


def test_vertex_connectivity_examples():
    assert vertex_connectivity(build_complete(6)) == 5
    for half in (2, 4, 6):
        assert vertex_connectivity(build_joined_complete(half)) == 1
    assert vertex_connectivity(build_simplex(5)) == 5


def test_edge_connectivity_examples():
    assert edge_connectivity(build_complete_bipartite(8, 4)) == 4
    assert edge_connectivity(build_petersen()) == 3
    assert edge_connectivity(build_joined_complete(6)) == 1


def test_petersen_edge_connectivity_against_brute_force():
    g = build_petersen()
    assert brute_edge_connectivity(g.n, set(g.edges)) == 3


def test_algebraic_connectivity_examples():
    assert algebraic_connectivity(build_complete(6)) == pytest.approx(6.0, abs=1e-9)
    assert algebraic_connectivity(build_paley_prime(13)) == pytest.approx(
        (13 - math.sqrt(13)) / 2, abs=1e-9
    )
    assert algebraic_connectivity(build_joined_complete(6)) == pytest.approx(
        (16 - math.sqrt(224)) / 4, abs=1e-9
    )


def test_normalized_algebraic_connectivity():
    for n in (4, 6, 9):
        g = build_complete(n)
        assert normalized_algebraic_connectivity(g) == pytest.approx(
            n / (n - 1), abs=1e-12
        )
    # any regular graph: normalized value is the plain one divided by degree
    for g in (build_petersen(), build_simplex(3), build_paley_prime(13)):
        deg = int(g.degrees[0])
        assert normalized_algebraic_connectivity(g) == pytest.approx(
            algebraic_connectivity(g) / deg, abs=1e-12
        )
    # K_{n1,n2} with n1 + n2 >= 3: the normalized spectrum is {0, 1, 2}
    for n1, n2 in ((1, 2), (5, 3), (8, 4), (22, 12)):
        g = build_complete_bipartite(n1, n2)
        assert normalized_algebraic_connectivity(g) == pytest.approx(1.0, abs=1e-12)


def test_disconnected_graph_scores_zero():
    g = Graph(4, ((0, 1), (2, 3)))
    assert vertex_connectivity(g) == 0
    assert edge_connectivity(g) == 0


@pytest.mark.parametrize(
    "g", SMALL_INSTANCES, ids=lambda g: f"n{g.n}e{len(g.edges)}"
)
def test_connectivity_matches_brute_force_cuts(g):
    edges = set(g.edges)
    assert vertex_connectivity(g) == brute_vertex_connectivity(g.n, edges)
    assert edge_connectivity(g) == brute_edge_connectivity(g.n, edges)


# (edge density, largest order): brute-force edge cuts cost C(|E|, lambda)
# enumerations, so the densest graphs stay at n <= 7.
_RANDOM_GRID = [(0.1, 9), (0.25, 9), (0.4, 9), (0.55, 9), (0.7, 7), (0.85, 7)]


@pytest.mark.parametrize("density, max_n", _RANDOM_GRID, ids=[f"p{p}" for p, _ in _RANDOM_GRID])
def test_random_graphs_match_brute_force_cuts(density, max_n):
    rng = random.Random(f"connectivity:{density}")
    disconnected = 0
    for _ in range(30):
        n = rng.randint(1, max_n)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
        g = Graph(n, tuple(edges))
        disconnected += not g.is_connected()
        assert vertex_connectivity(g) == brute_vertex_connectivity(n, edges), edges
        assert edge_connectivity(g) == brute_edge_connectivity(n, edges), edges
    if density <= 0.25:
        assert disconnected > 0


def _clique_blocks(
    size: int, starts: tuple[int, ...], links: list[tuple[int, int]], shift: int
) -> Graph:
    """Cliques K_size on vertices start..start+size-1 (blocks may share a
    vertex), plus `links` between them, relabeled v -> v + shift (mod n)."""
    n = max(starts) + size
    edges = [(i, j) for b in starts for i in range(b, b + size) for j in range(i + 1, b + size)]
    return Graph(n, tuple(((i + shift) % n, (j + shift) % n) for i, j in edges + links))


# name: (clique size, block starts, links, kappa, lambda, delta)
_BLOCK_CASES = {
    # two K5 sharing one vertex: kappa < lambda = delta
    "shared": (5, (0, 4), [], 1, 4, 4),
    # two triangles sharing one vertex: at shift 0 the shared v_0 is adjacent
    # to all, so source v_1 = v_(delta-1) must run
    "bowtie": (3, (0, 2), [], 1, 2, 2),
    # two K5 joined by two disjoint edges: kappa = lambda < delta
    "bridged": (5, (0, 5), [(0, 5), (1, 6)], 2, 2, 4),
    # a chain of three K5 joined by three edges, then one: the minimum cut
    # separates only one member of a three-vertex dominating set
    "chain": (5, (0, 5, 10), [(0, 5), (1, 6), (2, 7), (8, 10)], 1, 1, 4),
    # two K5 linked by two edges at one vertex: kappa < lambda < delta, so
    # lambda is neither kappa nor delta
    "fan": (5, (0, 5), [(0, 5), (0, 6)], 1, 2, 4),
}


@pytest.mark.parametrize("shift", range(15))
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_connectivity_below_min_degree(flow_calls, case, shift):
    # family instances almost all have kappa = lambda = delta, so they
    # cannot catch a wrong pair set
    size, starts, links, kappa, lam, delta = _BLOCK_CASES[case]
    g = _clique_blocks(size, starts, links, shift)
    assert int(g.degrees.min()) == delta
    assert vertex_connectivity(g) == kappa == brute_vertex_connectivity(g.n, set(g.edges))
    assert edge_connectivity(g) == lam == brute_edge_connectivity(g.n, set(g.edges))
    # the best cut falls here, and no pair runs whose common neighbors reach it
    assert all(cutoff >= 1 for _, _, cutoff, _ in flow_calls)
    assert all(source < best for source, best in _kappa_sources(flow_calls, g))


def _removed_split_arcs(residual):
    """How many internal arcs v_in -> v_out are zeroed, on kappa's split
    network (the only one with arcs above capacity 1); 0 on lambda's."""
    if residual.max() <= 1:
        return 0
    return int((np.diagonal(residual, residual.shape[0] // 2) == 0).sum())


def _kappa_sources(flow_calls, g):
    """(source vertex, best cut when its flow started) for each of kappa's
    flows in `flow_calls`: they run from the out-node s + n, and stop at the
    best cut less the common neighbors they cut out."""
    return [(s - g.n, cutoff + removed) for s, _, cutoff, removed in flow_calls if s >= g.n]


@pytest.fixture
def flow_calls(monkeypatch):
    calls = []
    kernel = connectivity._max_flow

    def counted(residual, s, t, cutoff):
        calls.append((s, t, cutoff, _removed_split_arcs(residual)))
        return kernel(residual, s, t, cutoff)

    monkeypatch.setattr(connectivity, "_max_flow", counted)
    return calls


@pytest.mark.parametrize("n", [2, 5, 12])
def test_complete_graph_edge_connectivity_runs_no_flow(flow_calls, n):
    assert edge_connectivity(build_complete(n)) == n - 1
    assert flow_calls == []


def test_simplex_vertex_connectivity_uses_few_sources(flow_calls):
    g = build_simplex(6)
    kappa = vertex_connectivity(g)
    assert kappa == 6
    assert 0 < len(flow_calls) <= (kappa + 1) * g.n
    assert max(s - g.n for s, *_ in flow_calls) <= kappa


def test_dense_bipartite_vertex_connectivity_runs_no_flow(flow_calls):
    # every non-adjacent pair shares a whole side, at least delta = 12
    assert vertex_connectivity(build_complete_bipartite(22, 12)) == 12
    assert flow_calls == []


@pytest.mark.parametrize("n1, n2", [(18, 19), (12, 30)])
def test_dense_bipartite_edge_connectivity_runs_no_flow(flow_calls, n1, n2):
    # kappa = delta: every non-adjacent pair shares a whole side, and
    # Whitney's inequality then fixes lambda
    assert edge_connectivity(build_complete_bipartite(n1, n2)) == min(n1, n2)
    assert flow_calls == []


def test_vertex_connectivity_stops_at_one(flow_calls):
    # the first flow, trap to the far bridge end, finds the bridge
    assert vertex_connectivity(build_joined_complete(17)) == 1
    assert len(flow_calls) == 1


def test_vertex_connectivity_sources_stay_below_best_cut(flow_calls):
    # Even's bound: sources v_0 ... v_(best - 1) suffice. Two K5 joined by
    # two disjoint edges: source 0's flows drop the best cut from delta = 4
    # to kappa = 2 while sources 2 and 3 are still ahead, and they never run
    g = _clique_blocks(*_BLOCK_CASES["bridged"][:3], 0)
    assert vertex_connectivity(g) == 2
    sources = _kappa_sources(flow_calls, g)
    assert sources[0] == (0, 4) and sources[-1][1] == 2
    assert all(source < best for source, best in sources)


def _edge_flows(flow_calls, g):
    """The flows of `flow_calls` that ran on the n-vertex edge network;
    kappa's run on the 2n-node split digraph from an out-node s >= n."""
    return [call for call in flow_calls if call[0] < g.n]


def test_edge_connectivity_stops_at_kappa(flow_calls):
    # chain of three K5: the dominating set has three members, and the
    # first flow already crosses the single link, down to kappa = 1
    g = _clique_blocks(5, (0, 5, 10), [(0, 5), (1, 6), (2, 7), (8, 10)], 0)
    assert edge_connectivity(g) == 1
    assert len(_edge_flows(flow_calls, g)) == 1


def test_connectivity_report_computes_kappa_once(flow_calls):
    # JCG(17): one flow finds the bridge for kappa, one for lambda
    g = build_joined_complete(17)
    report = connectivity_report(g)
    assert (report.vertex_conn, report.edge_conn) == (1, 1)
    assert len(flow_calls) == 2
    assert len(_edge_flows(flow_calls, g)) == 1


# (kappa, max flows run for kappa, lambda, max flows run for lambda): a
# faster flow kernel leaves this schedule alone, and a new way to skip
# pairs should lower the counts; kappa = delta on all three, so Whitney's
# inequality settles lambda with no flow
@pytest.mark.parametrize(
    "g, schedule",
    [
        (build_paley_prime(41), (20, 317, 20, 0)),
        (build_rook(6), (10, 230, 10, 0)),
        (build_simplex(6), (6, 210, 6, 0)),
    ],
    ids=["paley41", "rook6", "simplex6"],
)
def test_flow_schedule_is_pinned(flow_calls, g, schedule):
    report = connectivity_report(g)
    lambda_flows = len(_edge_flows(flow_calls, g))
    kappa_flows = len(flow_calls) - lambda_flows
    assert (report.vertex_conn, kappa_flows, report.edge_conn, lambda_flows) == schedule


def _complete_multipartite(parts: tuple[int, ...]) -> Graph:
    side = [k for k, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n) if side[i] != side[j]))


@pytest.mark.parametrize(
    "parts",
    [(1, 1), (1, 3), (2, 2), (1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 3, 3), (1, 1, 5), (2, 3, 4),
     (1, 1, 1, 4), (2, 2, 2, 2), (1, 2, 2, 5)]
    # K_n minus one edge, n = 3..9: minimum degree n - 2, one short of the
    # complete-graph shortcut in vertex_connectivity
    + [(1,) * (n - 2) + (2,) for n in range(3, 10)],
    ids=str,
)
def test_complete_multipartite_against_brute_force(parts):
    # kappa = lambda = n - (largest part); every non-adjacent pair shares
    # at least that many neighbors, so the common-neighbor screen skips
    # every pair
    g = _complete_multipartite(parts)
    edges = set(g.edges)
    expected = g.n - max(parts)
    assert vertex_connectivity(g) == brute_vertex_connectivity(g.n, edges) == expected
    assert edge_connectivity(g) == brute_cut_edge_connectivity(g.n, edges) == expected


def test_bipartite_with_edges_removed_against_brute_force(flow_calls):
    # K_{a,b} minus a few edges: common-neighbor counts fall to just below
    # the best cut, so flows run with those neighbors cut out and one unit
    # left to find
    rng = random.Random("cbg-minus-edges")
    for a in range(2, 6):
        for b in range(a, 7):
            full = [(i, j) for i in range(a) for j in range(a, a + b)]
            for removed in (1, 2, 3, a):
                edges = set(rng.sample(full, len(full) - removed))
                g = Graph(a + b, tuple(edges))
                assert vertex_connectivity(g) == brute_vertex_connectivity(g.n, edges), edges
                assert edge_connectivity(g) == brute_cut_edge_connectivity(g.n, edges), edges
    near_misses = [c for c in flow_calls if c[2] == 1]
    assert len(near_misses) > 20
    assert any(removed > 0 for *_, removed in near_misses)


def _check_flows(capacity, s, t, n, common, expected):
    """|C| plus the kernel from zero on `capacity` with the common neighbors
    C = `common` cut out gives min(maxflow, cutoff) at every cutoff above
    |C| up to the max flow and at n, as vertex_connectivity runs it (C is
    empty on the edge network). Returns how many of those cutoffs were
    below the max flow."""
    below = 0
    for cutoff in sorted({*range(common.size + 1, expected + 1), n}):
        residual = capacity.copy()
        residual[common, common + n] = 0
        flow = connectivity._max_flow(residual, s, t, cutoff - common.size)
        assert common.size + flow == min(expected, cutoff), (s, t, cutoff, common)
        below += cutoff < expected
    return below


def test_flows_from_zero_and_without_common_neighbors_match_brute_force():
    # on both networks the kernel runs on, against brute-force local cuts,
    # always from zero: the edge network as edge_connectivity runs it, and
    # the split network with the common neighbors cut out; every fourth
    # graph has two components, so some t are unreachable
    rng = random.Random("preflow")
    seen = {
        "below cutoff": 0,
        "unreachable": 0,
        "residual exhausted": 0,
        "first level": 0,
    }
    for k in range(40):
        n = rng.randint(4, 10)
        side = rng.randint(2, n - 2) if k % 4 == 3 else n
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6 and (i < side) == (j < side)
        }
        g = Graph(n, tuple(edges))
        adj = g.adjacency.astype(bool)
        capacity = g.adjacency.astype(np.int64)
        split = np.zeros((2 * n, 2 * n), dtype=np.int64)  # as in vertex_connectivity
        split[np.arange(n), np.arange(n) + n] = 1
        split[n:, :n] = n * adj
        for v in range(n):
            for w in range(v + 1, n):
                cut = brute_local_edge_cut(n, edges, v, w)
                seen["below cutoff"] += _check_flows(capacity, v, w, n, np.array([], int), cut)
                seen["unreachable"] += (v < side) != (w < side)
                if adj[v, w]:
                    seen["first level"] += 1
                    # s_out -> t_in has capacity n: every BFS ends at level 1
                    for cutoff in range(1, n + 1):
                        assert connectivity._max_flow(split.copy(), v + n, w, cutoff) == cutoff
                    continue
                common = np.flatnonzero(adj[v] & adj[w])
                cut = brute_local_vertex_cut(n, edges, v, w)
                seen["below cutoff"] += _check_flows(split, v + n, w, n, common, cut)
                # the common neighbors alone separate v and w
                seen["residual exhausted"] += 0 < common.size == cut
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize(
    "g",
    SMALL_INSTANCES + LARGER_INSTANCES,
    ids=lambda g: f"n{g.n}e{len(g.edges)}",
)
def test_whitney_and_fiedler_inequalities(g):
    report = connectivity_report(g)
    assert report.vertex_conn <= report.edge_conn <= report.min_degree
    complete = len(g.edges) == g.n * (g.n - 1) // 2
    if not complete:
        assert report.algebraic_conn <= report.vertex_conn + 1e-9


def test_zero_eigenvalue_multiplicity_counts_components():
    for g in LARGER_INSTANCES:
        vals = np.sort(np.linalg.eigvalsh(np.diag(g.degrees) - g.adjacency))
        assert np.sum(np.abs(vals) < 1e-9) == 1
    # simplex with every inter-block edge removed: m+1 components
    m = 4
    g = build_simplex(m)
    intra = tuple((i, j) for i, j in g.edges if i // m == j // m)
    stripped = Graph(g.n, intra)
    lap = np.diag(stripped.adjacency.sum(axis=1)) - stripped.adjacency
    vals = np.sort(np.linalg.eigvalsh(lap))
    assert np.sum(np.abs(vals) < 1e-9) == m + 1


def test_connectivity_report_forms_no_eigenvectors(monkeypatch):
    def eigh(*args, **kwargs):
        raise AssertionError("connectivity_report called np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for g in (build_complete_bipartite(8, 4), build_petersen(), build_joined_complete(6)):
        report = connectivity_report(g)
        want = np.linalg.eigvalsh(np.diag(g.degrees) - g.adjacency)[1]
        assert report.algebraic_conn == pytest.approx(want, abs=1e-12)
        want = np.linalg.eigvalsh(normalized_laplacian(g))[1]
        assert report.normalized_algebraic_conn == pytest.approx(want, abs=1e-12)


def test_connectivity_report_fields():
    report = connectivity_report(build_complete_bipartite(8, 4))
    assert report.min_degree == 4
    assert report.vertex_conn == 4
    assert report.edge_conn == 4
    assert report.algebraic_conn == pytest.approx(4.0, abs=1e-9)
