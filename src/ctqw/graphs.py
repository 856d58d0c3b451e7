"""Graph families for quantum-walk transport studies.

Every builder returns an immutable :class:`Graph` with 0-based vertex
indices, the trap vertex at index 0 (class ``"w"``), and each remaining
vertex tagged with the label of its symmetry class: ``classes`` holds one
label per vertex, in vertex order. Graphs are small
(desk scale, a few hundred vertices at most) and stored densely.

:data:`FAMILIES` registers each family once: its name, its parameter
record (a frozen dataclass whose fields carry the CLI help), its builder
and its order. :func:`build` and :func:`family_name` are lookups in it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from numbers import Integral
from typing import Callable, Union

import numpy as np

Edge = tuple[int, int]


# Merged class labels, each naming the union of classes that share every
# transport property: the simplex's ``c`` and ``d``. Vertex lookups and the
# closed-form records both read this table.
MERGED_CLASSES: dict[str, tuple[str, ...]] = {"cd": ("c", "d")}


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with optional vertex-class labels.

    ``edges`` (any iterable of index pairs) is canonicalized to a
    lexicographically sorted tuple of ``(i, j)`` Python-int pairs with
    ``i < j``; an input that already has that form is kept as it is.
    Entries must be integers. A self-loop, an index outside ``range(n)`` or
    a repeated edge raises ValueError naming the first offending edge in
    input order. ``classes``, when present, is any sequence of ``n``
    strings, the label of each vertex in vertex order, stored as a tuple;
    anything else raises ValueError. ``adjacency`` (the dense 0/1 matrix)
    and ``degrees`` are read-only arrays set at construction. Only the
    ``graph`` printer reads ``edges``; every route reads the arrays.
    """

    n: int
    edges: tuple[Edge, ...]
    classes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = self.edges if type(self.edges) is tuple else tuple(self.edges)
        try:
            pairs = set(map(len, edges)) <= {2}
        except TypeError:
            pairs = False
        if not pairs:
            raise ValueError("edges must be pairs of vertex indices")
        flat = tuple(chain.from_iterable(edges))
        kinds = set(map(type, flat))
        # `kinds <= {int}` settles the usual case without the ABC check,
        # which costs about 2 of the 25 µs of a small build
        if not (kinds <= {int} or all(issubclass(kind, Integral) for kind in kinds)):
            i, j = next(e for e in edges if not all(isinstance(v, Integral) for v in e))
            raise ValueError(f"edge ({i!r},{j!r}) has a non-integer vertex index")
        # the one conversion to an index array; every check below is vectorized
        try:
            ij = np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
        except OverflowError:  # beyond int64, so out of range: -1 stands in
            flat = [v if -(2**63) <= v < 2**63 else -1 for v in flat]
            ij = np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
        # read unsigned, a negative index wraps above any n, so a row is an
        # edge of range(n) iff lo < hi < n once sorted
        rows = ij.view(np.uint64)
        lo, hi = rows[:, 0], rows[:, 1]  # views: (lo, hi) once sorted in place
        oriented = np.count_nonzero(lo < hi) == len(rows)
        rows.sort(axis=1)
        keys = lo * n + hi
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        # an edge is bad if it is a self-loop, out of range or (the stable
        # sort keeps input order among equal keys) repeats an earlier edge
        bad = (lo == hi) | (hi >= n)
        repeat = ranked[1:] == ranked[:-1]
        if np.count_nonzero(bad) or np.count_nonzero(repeat):
            bad[order[1:][repeat]] = True
            i, j = edges[int(bad.argmax())]
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            raise ValueError(f"duplicate edge {(min(i, j), max(i, j))}")
        # with no repeats, the input is sorted iff its keys are
        in_order = oriented and np.count_nonzero(ranked == keys) == len(keys)
        index = (ij if in_order else ij[order]).T  # (2, E), in the order of edges
        if not (
            in_order
            and type(self.edges) is tuple
            and kinds <= {int}
            and set(map(type, edges)) <= {tuple}
        ):
            object.__setattr__(self, "edges", tuple(zip(*index.tolist())))
        if self.classes is not None:
            # a dict's tuple() is its int keys, so an old-style class map fails here
            classes = tuple(self.classes)
            if len(classes) != n or not all(isinstance(c, str) for c in classes):
                raise ValueError(f"classes must be {n} string labels, one per vertex")
            object.__setattr__(self, "classes", classes)
        # plain read-only attributes: a cached_property takes a lock on first
        # access before Python 3.12
        adjacency = np.zeros((n, n))
        adjacency[index, index[::-1]] = 1.0
        degrees = adjacency.sum(axis=1)
        for name, array in (("adjacency", adjacency), ("degrees", degrees)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def class_vertices(self, label: str) -> tuple[int, ...]:
        """Vertices carrying a class label, ascending. A label of
        :data:`MERGED_CLASSES` (simplex ``cd``) names the union of its
        classes, on a graph that has every one of them. Raises ValueError
        when no vertex carries the label."""
        if self.classes is None:
            raise ValueError("graph has no class labels")
        parts = MERGED_CLASSES.get(label, ())
        labels = parts if parts and set(parts) <= set(self.classes) else (label,)
        vs = tuple(v for v, c in enumerate(self.classes) if c in labels)
        if not vs:
            raise ValueError(f"no vertices with class {label!r}")
        return vs

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        # breadth-first from vertex 0, one whole frontier per step
        adj = self.adjacency.astype(bool)
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian ``L = D - A`` (real symmetric, rows sum to zero)."""
    return np.diag(g.degrees) - g.adjacency


# --- family parameter records -------------------------------------------------
#
# Each family is one frozen dataclass whose fields are the builder's keyword
# arguments; the ``help`` metadata of a field becomes its CLI option help.


@dataclass(frozen=True)
class Complete:
    n: int = field(metadata={"help": "vertex count"})


@dataclass(frozen=True)
class CompleteBipartite:
    n1: int = field(metadata={"help": "trap-side partition size"})
    n2: int = field(metadata={"help": "opposite partition size"})


@dataclass(frozen=True)
class PaleyPrime:
    p: int = field(metadata={"help": "prime modulus, p = 1 (mod 4)"})


@dataclass(frozen=True)
class Petersen:
    pass


@dataclass(frozen=True)
class Rook:
    n: int = field(metadata={"help": "board side length"})


@dataclass(frozen=True)
class JoinedComplete:
    half: int = field(metadata={"help": "vertices in each joined complete graph"})


@dataclass(frozen=True)
class Simplex:
    m: int = field(metadata={"help": "vertices per block (m+1 blocks)"})


# --- builders -----------------------------------------------------------------


def _from_adjacency(a: np.ndarray, classes) -> Graph:
    """Graph on ``len(a)`` vertices from ``a``, the symmetric 0/1 matrix with
    zero diagonal in which each builder states its family's adjacency rule.
    The edges are the strict upper triangle's nonzeros in row-major order:
    the sorted tuple of Python-int pairs that :class:`Graph` keeps as is."""
    i, j = np.nonzero(np.triu(a, 1))
    edges = tuple(zip(i.tolist(), j.tolist()))
    del i, j  # the index arrays would otherwise live through the constructor
    return Graph(len(a), edges, classes)


def _trap_neighbor_classes(a: np.ndarray) -> Graph:
    """Graph with the trap at 0, class ``a`` for the trap's neighbors and
    class ``b`` for every other vertex (the two classes of a strongly
    regular graph)."""
    return _from_adjacency(a, ("w",) + tuple("a" if x else "b" for x in a[0, 1:]))


def build_complete(n: int) -> Graph:
    """Complete graph K_n. Classes: trap ``w`` plus one class ``a``."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return _from_adjacency(~np.eye(n, dtype=bool), ("w",) + ("a",) * (n - 1))


def build_complete_bipartite(n1: int, n2: int) -> Graph:
    """Complete bipartite graph K_{n1,n2} with the trap in the first partition.

    Vertices 0..n1-1 form the trap-side partition (``w`` then class ``b``),
    vertices n1..n1+n2-1 form the opposite partition (class ``a``).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both partitions must be non-empty")
    far = np.arange(n1 + n2) >= n1
    return _from_adjacency(far[:, None] != far, ("w",) + ("b",) * (n1 - 1) + ("a",) * n2)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def build_paley_prime(p: int) -> Graph:
    """Paley graph on Z_p, edge (i, j) iff i - j is a nonzero square mod p.

    Restricted to prime p with p = 1 (mod 4), which makes the difference
    relation symmetric (-1 is then a quadratic residue).
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p={p} must satisfy p = 1 (mod 4)")
    square = np.zeros(p, dtype=bool)
    square[np.arange(1, p) ** 2 % p] = True
    v = np.arange(p)
    return _trap_neighbor_classes(square[(v - v[:, None]) % p])


def build_petersen() -> Graph:
    """Petersen graph: outer 5-cycle (vertices 0-4, trap at 0), spokes to an
    inner pentagram (vertices 5-9)."""
    j = np.arange(5)
    u = np.concatenate([j, j, j + 5])  # cycle, spoke and pentagram ends
    v = np.concatenate([(j + 1) % 5, j + 5, (j + 2) % 5 + 5])
    a = np.zeros((10, 10), dtype=bool)
    a[u, v] = a[v, u] = True
    return _trap_neighbor_classes(a)


def build_rook(n: int) -> Graph:
    """Rook's graph on an n x n board: cell (r, c) -> vertex r*n + c, edges
    within each row and each column."""
    if n < 2:
        raise ValueError("rook graph needs n >= 2")
    r, c = np.divmod(np.arange(n * n), n)
    return _trap_neighbor_classes((r[:, None] == r) != (c[:, None] == c))


def build_joined_complete(half: int) -> Graph:
    """Two complete graphs of `half` vertices joined by one bridge edge.

    Vertex layout: 0 = trap ``w``, 1..half-2 = class ``a``, half-1 = ``b1``
    (bridge, trap side), half = ``b2`` (bridge, far side), rest = class ``c``.
    """
    if half < 2:
        raise ValueError("each complete graph needs at least 2 vertices")
    far = np.arange(2 * half) >= half
    a = (far[:, None] == far) & ~np.eye(2 * half, dtype=bool)
    a[half - 1, half] = a[half, half - 1] = True  # bridge
    classes = ("w",) + ("a",) * (half - 2) + ("b1", "b2") + ("c",) * (half - 1)
    return _from_adjacency(a, classes)


def build_simplex(m: int) -> Graph:
    """First-order truncated m-simplex lattice: m+1 copies of K_m, each vertex
    carrying exactly one inter-block edge.

    Vertex (g, i), local vertex i of block g (both 0-based), has index
    g*m + i. Its partner is local vertex m-1-i of block (i+g+1) mod (m+1):
    the map is an involution with no fixed block, so every vertex has
    exactly one partner outside its block and the graph is m-regular.

    Classes: ``w`` = (0, 0); ``a`` = rest of block 0; ``b`` = partner of
    ``w``; ``c`` = rest of b's block; ``d``/``e`` = partners of ``a``/``c``
    vertices; ``f`` = all remaining vertices.
    """
    if m < 2:
        raise ValueError("simplex needs m >= 2")
    n = m * (m + 1)
    g, i = np.divmod(np.arange(n), m)
    partner = (i + g + 1) % (m + 1) * m + (m - 1 - i)
    a = (g[:, None] == g) & ~np.eye(n, dtype=bool)
    a[np.arange(n), partner] = True
    # blocks 0 and 1 are w a...a and c...c b; the rest start as all f
    classes = np.array(["w"] + ["a"] * (m - 1) + ["c"] * (m - 1) + ["b"] + ["f"] * (n - 2 * m))
    classes[partner[1:m]] = "d"
    classes[partner[m : 2 * m - 1]] = "e"
    return _from_adjacency(a, classes.tolist())


# --- family registry --------------------------------------------------------------

# Family name (the CLI subcommand) -> (parameter record, builder, order). The
# order gives the vertex count of a record's graph without building it. This
# is the only list of families: names, dispatch and CLI options derive from it.
FAMILIES: dict[str, tuple[type, Callable[..., Graph], Callable[..., int]]] = {
    "complete": (Complete, build_complete, lambda s: s.n),
    "cbg": (CompleteBipartite, build_complete_bipartite, lambda s: s.n1 + s.n2),
    "paley": (PaleyPrime, build_paley_prime, lambda s: s.p),
    "petersen": (Petersen, build_petersen, lambda s: 10),
    "rook": (Rook, build_rook, lambda s: s.n * s.n),
    "jcg": (JoinedComplete, build_joined_complete, lambda s: 2 * s.half),
    "simplex": (Simplex, build_simplex, lambda s: s.m * (s.m + 1)),
}

FamilySpec = Union[tuple(entry[0] for entry in FAMILIES.values())]


def family_name(spec: FamilySpec) -> str:
    for name, (spec_cls, *_) in FAMILIES.items():
        if type(spec) is spec_cls:
            return name
    raise ValueError(f"unknown family spec {spec!r}")


def build(spec: FamilySpec) -> Graph:
    """Construct the graph described by a family parameter record."""
    return FAMILIES[family_name(spec)][1](**asdict(spec))


# --- JSON output ----------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    """JSON-ready dict with the lexicographically sorted edge pairs."""
    obj: dict = {"n": g.n, "edges": g.edges}
    if g.classes is not None:
        obj["classes"] = {str(v): c for v, c in enumerate(g.classes)}
    return obj
