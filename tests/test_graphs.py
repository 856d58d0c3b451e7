import json
import tracemalloc

import numpy as np
import pytest

from ctqw import Graph, build, graph_to_json, laplacian
from ctqw.graphs import (
    build_complete,
    build_complete_bipartite,
    build_joined_complete,
    build_paley_prime,
    build_petersen,
    build_rook,
    build_simplex,
)

import _oracles as reference
from _oracles import components, girth, graph_from_json, pair_count_srg, validate_srg

ALL_INSTANCES = [
    build_complete(3),
    build_complete(6),
    build_complete_bipartite(1, 1),
    build_complete_bipartite(4, 3),
    build_complete_bipartite(8, 4),
    build_paley_prime(5),
    build_paley_prime(13),
    build_petersen(),
    build_rook(2),
    build_rook(3),
    build_joined_complete(2),
    build_joined_complete(3),
    build_joined_complete(6),
    build_simplex(2),
    build_simplex(3),
    build_simplex(5),
]


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1),), classes={0: "w", 1: "a"})
    assert Graph(3, ((0, 1),), classes=["w", "a", "a"]).classes == ("w", "a", "a")
    # a full-length class map is no label sequence: its tuple() is its keys
    with pytest.raises(ValueError):
        Graph(3, ((0, 1),), classes={0: "w", 1: "a", 2: "a"})
    with pytest.raises(ValueError):
        Graph(3, ((0, 1),), classes=("w", "a"))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1),), classes=("w", "a", 1))


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, (), "graph needs at least one vertex"),
        (3, ((0, 0),), "self-loop at vertex 0"),
        (3, ((0, 3),), "edge (0,3) out of range for n=3"),
        (3, ((-1, 2),), "edge (-1,2) out of range for n=3"),
        (3, ((2, -1),), "edge (2,-1) out of range for n=3"),
        (3, ((0, 1), (0, 1)), "duplicate edge (0, 1)"),
        (3, ((0, 1), (1, 0)), "duplicate edge (0, 1)"),
        (3, ((2, 1), (1, 2)), "duplicate edge (1, 2)"),
        # several bad edges: the first in input order is named ...
        (3, ((0, 1), (2, 5), (1, 1)), "edge (2,5) out of range for n=3"),
        (3, ((0, 1), (0, 1), (0, 0)), "duplicate edge (0, 1)"),
        (3, ((1, 2), (0, 1), (2, 1), (1, 0)), "duplicate edge (1, 2)"),
        (4, ((3, 1), (0, 2), (2, 0), (1, 3)), "duplicate edge (0, 2)"),
        # ... and a self-loop outranks a range error on the same edge
        (3, ((5, 5),), "self-loop at vertex 5"),
        (3, ((-1, -1), (0, 9)), "self-loop at vertex -1"),
        # (0,5) has the key 0*3+5 of (1,2); neither hides the other
        (3, ((0, 5), (1, 2)), "edge (0,5) out of range for n=3"),
        (3, ((1, 2), (0, 5)), "edge (0,5) out of range for n=3"),
        # indices beyond int64 are out of range, and a self-loop still first
        (3, ((0, 1), (2, 2**70)), "edge (2,1180591620717411303424) out of range for n=3"),
        (3, ((-(2**70), 1),), "edge (-1180591620717411303424,1) out of range for n=3"),
        (3, ((2**70, 2**70), (0, 9)), "self-loop at vertex 1180591620717411303424"),
        (3, ((0, 1), (np.uint64(2**64 - 1), 1)), "edge (18446744073709551615,1) out of range for n=3"),
        (3, ((np.int64(1), 2**70),), "edge (1,1180591620717411303424) out of range for n=3"),
    ],
)
def test_graph_error_messages(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert str(err.value) == message


def _assert_canonical(g, expected):
    assert g.edges == expected
    assert type(g.edges) is tuple
    assert all(type(e) is tuple and len(e) == 2 for e in g.edges)
    assert all(type(v) is int for e in g.edges for v in e)


CANONICAL = ((0, 1), (0, 3), (1, 2), (2, 3), (2, 4))


@pytest.mark.parametrize(
    "edges",
    [
        CANONICAL,
        tuple(reversed(CANONICAL)),
        tuple((j, i) for i, j in CANONICAL),
        ((2, 4), (1, 0), (3, 2), (0, 3), (2, 1)),
        [list(e) for e in CANONICAL[::-1]],
        [(3, 0), [2, 1], (4, 2), [0, 1], (2, 3)],
    ],
    ids=["sorted", "reversed", "flipped", "shuffled", "list-pairs", "mixed"],
)
def test_graph_canonicalizes_edges(edges):
    _assert_canonical(Graph(5, edges), CANONICAL)


def test_graph_accepts_generator_input():
    g = Graph(5, ((j, i) for i, j in reversed(CANONICAL)))
    _assert_canonical(g, CANONICAL)
    assert g == Graph(5, CANONICAL)


def test_graph_stores_numpy_int_pairs_as_python_ints():
    for dtype in (np.int64, np.int32, np.uint8):
        edges = tuple((dtype(j), dtype(i)) for i, j in CANONICAL)
        _assert_canonical(Graph(5, edges), CANONICAL)
    _assert_canonical(Graph(5, tuple(np.array(CANONICAL))), CANONICAL)


def test_graph_rejects_non_integer_entries():
    for edges in (((0, 0.5),), ((0, 1.0),), ((0, 1), (1, np.float64(2))), ((0, None),)):
        with pytest.raises(ValueError):
            Graph(3, edges)


def test_graph_single_vertex_without_edges():
    g = Graph(1, ())
    assert g.edges == ()
    assert np.array_equal(g.adjacency, np.zeros((1, 1)))
    assert np.array_equal(g.degrees, [0.0])
    assert g.is_connected()


@pytest.mark.parametrize("g", ALL_INSTANCES, ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_adjacency_matches_loop_reference(g):
    ref = np.zeros((g.n, g.n))
    for i, j in g.edges:
        ref[i, j] = ref[j, i] = 1.0
    assert g.adjacency.dtype == ref.dtype
    assert np.array_equal(g.adjacency, ref)
    assert not g.adjacency.flags.writeable


def test_complete_250_build_memory_peak():
    # keeping the builder's canonical tuple and filling the adjacency from
    # one index array holds the transient peak of K_250 (31,125 edges); the
    # largest instance of each other family in the benchmark's query deck
    # shares the bound
    for build_graph in (
        lambda: build_complete(250),
        lambda: build_complete_bipartite(125, 125),
        lambda: build_paley_prime(241),
        lambda: build_rook(16),
        lambda: build_joined_complete(125),
        lambda: build_simplex(15),
    ):
        build_graph().adjacency  # warm caches outside the measurement
        tracemalloc.start()
        try:
            g = build_graph()
            g.adjacency
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6, f"n={g.n}: peak {peak / 1e6:.2f} MB"


PALEY_PRIMES = [p for p in range(5, 242, 4) if all(p % d for d in range(2, int(p**0.5) + 1))]

REFERENCE_RANGES = {
    "complete": [(n,) for n in range(2, 61)],
    "cbg": [(n1, n2) for n1 in range(1, 13) for n2 in range(1, 13)],
    "paley": [(p,) for p in PALEY_PRIMES],
    "petersen": [()],
    "rook": [(n,) for n in range(2, 17)],
    "jcg": [(half,) for half in range(2, 61)],
    "simplex": [(m,) for m in range(2, 21)],
}


@pytest.mark.parametrize("family", sorted(REFERENCE_RANGES))
def test_builders_match_reference_definitions(family):
    # the pair-by-pair definitions in _oracles against the adjacency rules
    from ctqw.graphs import FAMILIES

    builder = FAMILIES[family][1]
    reference_builder = getattr(reference, builder.__name__)
    for args in REFERENCE_RANGES[family]:
        g, ref = builder(*args), reference_builder(*args)
        assert type(g.edges) is tuple
        assert all(type(e) is tuple and tuple(map(type, e)) == (int, int) for e in g.edges)
        assert g.edges == ref.edges, (family, args)
        assert g.classes == ref.classes, (family, args)


@pytest.mark.parametrize("g", ALL_INSTANCES, ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_builder_invariants(g):
    adj = g.adjacency
    assert np.all(np.diag(adj) == 0)
    assert np.array_equal(adj, adj.T)
    assert type(g.classes) is tuple
    assert len(g.classes) == g.n
    assert g.classes[0] == "w"
    # Laplacian rows sum to zero and the matrix is positive semidefinite
    l = laplacian(g)
    assert np.allclose(l @ np.ones(g.n), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(l).min() > -1e-9


def test_complete_k3_edges():
    assert build_complete(3).edges == ((0, 1), (0, 2), (1, 2))


def test_complete_k6_regular_and_spectrum():
    g = build_complete(6)
    assert np.all(g.degrees == 5)
    vals = np.sort(np.linalg.eigvalsh(laplacian(g)))
    assert abs(vals[0]) < 1e-12
    assert np.allclose(vals[1:], 6.0, atol=1e-12)


def test_complete_rejects_small():
    with pytest.raises(ValueError):
        build_complete(1)


def test_cbg_degrees_and_classes():
    g = build_complete_bipartite(4, 3)
    assert np.all(g.degrees[:4] == 3)
    assert np.all(g.degrees[4:] == 4)
    assert g.class_vertices("b") == (1, 2, 3)
    assert g.class_vertices("a") == (4, 5, 6)


def test_cbg_edge_counts_and_bipartite():
    assert build_complete_bipartite(1, 1).edges == ((0, 1),)
    g = build_complete_bipartite(8, 4)
    assert len(g.edges) == 32
    assert all(i < 8 <= j for i, j in g.edges)


def test_cbg_connected_spectrum():
    vals = np.sort(np.linalg.eigvalsh(laplacian(build_complete_bipartite(4, 3))))
    assert abs(vals[0]) < 1e-12 and vals[1] > 1e-9  # zero is simple


def test_cbg_rejects_empty_partition():
    with pytest.raises(ValueError):
        build_complete_bipartite(0, 3)


def test_paley_13_is_srg_13_6_2_3():
    g = build_paley_prime(13)
    assert pair_count_srg(g.adjacency) == (13, 6, 2, 3)
    params = validate_srg(g)
    assert (params.n, params.k, params.lam, params.mu) == (13, 6, 2, 3)


def test_paley_5_is_pentagon():
    g = build_paley_prime(5)
    assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert pair_count_srg(g.adjacency) == (5, 2, 0, 1)


def test_paley_17_brute_force():
    assert pair_count_srg(build_paley_prime(17).adjacency) == (17, 8, 3, 4)


@pytest.mark.parametrize("p", [9, 7, 4, 1])
def test_paley_rejects_bad_modulus(p):
    with pytest.raises(ValueError):
        build_paley_prime(p)


def test_petersen():
    g = build_petersen()
    assert np.all(g.degrees == 3)
    params = validate_srg(g)
    assert (params.n, params.k, params.lam, params.mu) == (10, 3, 0, 1)
    assert girth(g.adjacency) == 5
    assert g.class_vertices("a") == (1, 4, 5)


def test_rook_graphs():
    assert validate_srg(build_rook(3)) is not None
    p3 = validate_srg(build_rook(3))
    assert (p3.n, p3.k, p3.lam, p3.mu) == (9, 4, 1, 2)
    assert pair_count_srg(build_rook(4).adjacency) == (16, 6, 2, 2)
    g2 = build_rook(2)
    assert len(g2.edges) == 4 and np.all(g2.degrees == 2)  # 4-cycle


def test_validate_srg_failures():
    assert validate_srg(build_complete_bipartite(4, 3)) is None  # not regular
    assert validate_srg(build_complete(6)) is None  # complete excluded
    assert validate_srg(build_simplex(2)) is None  # hexagon: mu not constant
    assert validate_srg(build_simplex(3)) is None  # cubic: lam, mu not constant
    assert validate_srg(build_joined_complete(4)) is None  # not regular
    triangles = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    assert validate_srg(triangles) is None  # regular but disconnected


def test_paley_type_one_parameters():
    for p in (5, 13, 17, 29):
        params = validate_srg(build_paley_prime(p))
        mu = (p - 1) // 4
        assert (params.n, params.k, params.lam, params.mu) == (
            4 * mu + 1,
            2 * mu,
            mu - 1,
            mu,
        )


def test_joined_complete_layout():
    g = build_joined_complete(6)
    assert g.n == 12
    crossing = [(i, j) for i, j in g.edges if i < 6 <= j]
    assert crossing == [(5, 6)]
    assert g.degrees[5] == g.degrees[6] == 6
    assert np.all(np.delete(g.degrees, [5, 6]) == 5)
    vals = np.sort(np.linalg.eigvalsh(laplacian(g)))
    assert abs(vals[0]) < 1e-12
    assert any(abs(v - 6.0) < 1e-9 for v in vals)


def test_joined_complete_small():
    assert list(build_joined_complete(3).degrees) == [2, 2, 3, 3, 2, 2]
    with pytest.raises(ValueError):
        build_joined_complete(1)


def test_simplex_regularity_and_classes():
    g = build_simplex(5)
    assert g.n == 30
    assert np.all(g.degrees == 5)
    for label in ("a", "c", "d", "e"):
        assert len(g.class_vertices(label)) == 4
    assert len(g.class_vertices("f")) == 12
    assert len(g.class_vertices("b")) == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_simplex_edge_count_and_blocks(m):
    g = build_simplex(m)
    assert len(g.edges) == m * m * (m + 1) // 2
    # deleting all inter-block edges leaves m+1 blocks of size m
    intra = {(i, j) for i, j in g.edges if i // m == j // m}
    assert components(g.n, intra) == m + 1


def test_simplex_m2_is_hexagon():
    g = build_simplex(2)
    assert g.n == 6 and np.all(g.degrees == 2)
    vals = np.sort(np.linalg.eigvalsh(laplacian(g)))
    assert abs(vals[1] - 1.0) < 1e-9


def test_laplacian_k3():
    l = laplacian(build_complete(3))
    assert np.array_equal(l, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))


def test_json_round_trip_bit_exact():
    for g in ALL_INSTANCES:
        obj = graph_to_json(g)
        text = json.dumps(obj, sort_keys=True)
        back = graph_from_json(json.loads(text))
        assert back == g
        assert json.dumps(graph_to_json(back), sort_keys=True) == text


def test_build_dispatch_covers_all_families():
    from dataclasses import asdict, fields
    from typing import get_args

    from ctqw import (
        Complete,
        CompleteBipartite,
        FamilySpec,
        JoinedComplete,
        PaleyPrime,
        Petersen,
        Rook,
        Simplex,
        family_name,
    )
    from ctqw.graphs import FAMILIES

    registered = [spec_cls for spec_cls, *_ in FAMILIES.values()]
    assert set(registered) == set(get_args(FamilySpec))
    for member in get_args(FamilySpec):
        assert registered.count(member) == 1
    for spec_cls in registered:
        assert all(f.metadata.get("help") for f in fields(spec_cls))

    instances = [
        (Complete(5), 5),
        (CompleteBipartite(3, 2), 5),
        (PaleyPrime(13), 13),
        (Petersen(), 10),
        (Rook(3), 9),
        (JoinedComplete(4), 8),
        (Simplex(3), 12),
    ]
    assert {type(spec) for spec, _ in instances} == set(registered)
    for spec, n in instances:
        spec_cls, builder, order = FAMILIES[family_name(spec)]
        assert spec_cls is type(spec)
        assert build(spec) == builder(**asdict(spec))
        assert build(spec).n == order(spec) == n
