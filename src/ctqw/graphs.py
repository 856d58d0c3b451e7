"""Graph families for quantum-walk transport studies.

Every builder returns an immutable :class:`Graph` with 0-based vertex
indices, the trap vertex at index 0 (class ``"w"``), and each remaining
vertex tagged with the label of its symmetry class: ``classes`` holds one
label per vertex, in vertex order. Graphs are small
(desk scale, a few hundred vertices at most) and stored densely.

:data:`FAMILIES` registers each family once: its name, its parameter
record (a frozen dataclass whose fields carry the CLI help) and its
builder. :func:`build` and :func:`family_name` are lookups in it.
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


def _trap_neighbor_classes(n: int, edges: list[Edge]) -> Graph:
    """Graph with the trap at 0, class ``a`` for the trap's neighbors and
    class ``b`` for every other vertex (the two classes of a strongly
    regular graph)."""
    near = {v for e in edges if 0 in e for v in e}
    classes = ("w",) + tuple("a" if v in near else "b" for v in range(1, n))
    return Graph(n, tuple(edges), classes)


def build_complete(n: int) -> Graph:
    """Complete graph K_n. Classes: trap ``w`` plus one class ``a``."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(n, edges, ("w",) + ("a",) * (n - 1))


def build_complete_bipartite(n1: int, n2: int) -> Graph:
    """Complete bipartite graph K_{n1,n2} with the trap in the first partition.

    Vertices 0..n1-1 form the trap-side partition (``w`` then class ``b``),
    vertices n1..n1+n2-1 form the opposite partition (class ``a``).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both partitions must be non-empty")
    n = n1 + n2
    edges = tuple((i, j) for i in range(n1) for j in range(n1, n))
    return Graph(n, edges, ("w",) + ("b",) * (n1 - 1) + ("a",) * n2)


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
    residues = {(x * x) % p for x in range(1, p)}
    edges = [
        (i, j) for i in range(p) for j in range(i + 1, p) if (j - i) % p in residues
    ]
    return _trap_neighbor_classes(p, edges)


def build_petersen() -> Graph:
    """Petersen graph: outer 5-cycle (vertices 0-4, trap at 0), spokes to an
    inner pentagram (vertices 5-9)."""
    edges = []
    for j in range(5):
        edges.append((j, (j + 1) % 5))
        edges.append((j, j + 5))
        edges.append((5 + j, 5 + (j + 2) % 5))
    return _trap_neighbor_classes(10, edges)


def build_rook(n: int) -> Graph:
    """Rook's graph on an n x n board: cell (r, c) -> vertex r*n + c, edges
    within each row and each column."""
    if n < 2:
        raise ValueError("rook graph needs n >= 2")
    edges = []
    for r in range(n):
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                edges.append((r * n + c1, r * n + c2))  # same row
                edges.append((c1 * n + r, c2 * n + r))  # same column
    return _trap_neighbor_classes(n * n, edges)


def build_joined_complete(half: int) -> Graph:
    """Two complete graphs of `half` vertices joined by one bridge edge.

    Vertex layout: 0 = trap ``w``, 1..half-2 = class ``a``, half-1 = ``b1``
    (bridge, trap side), half = ``b2`` (bridge, far side), rest = class ``c``.
    """
    if half < 2:
        raise ValueError("each complete graph needs at least 2 vertices")
    n = 2 * half
    edges = []
    for base in (0, half):
        for i in range(half):
            for j in range(i + 1, half):
                edges.append((base + i, base + j))
    edges.append((half - 1, half))  # bridge
    classes = ("w",) + ("a",) * (half - 2) + ("b1", "b2") + ("c",) * (half - 1)
    return Graph(n, tuple(edges), classes)


def build_simplex(m: int) -> Graph:
    """First-order truncated m-simplex lattice: m+1 copies of K_m, each vertex
    carrying exactly one inter-block edge.

    Blocks are numbered 1..m+1 with local vertices 1..m; global index is
    (block-1)*m + (local-1). Local vertex i of block g is wired to local
    vertex m+1-i of block 1 + ((i+g-1) mod (m+1)), which pairs every vertex
    with exactly one partner and keeps the graph m-regular.

    Classes: ``w`` = (1,1); ``a`` = rest of block 1; ``b`` = inter-partner of
    ``w``; ``c`` = rest of b's block; ``d``/``e`` = inter-partners of ``a``/
    ``c`` vertices; ``f`` = all remaining vertices.
    """
    if m < 2:
        raise ValueError("simplex needs m >= 2")
    blocks = m + 1
    n = m * blocks

    def gidx(block: int, local: int) -> int:
        return (block - 1) * m + (local - 1)

    edges = set()
    for block in range(1, blocks + 1):
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                edges.add((gidx(block, i), gidx(block, j)))
            partner_block = 1 + (i + block - 1) % blocks
            u, v = gidx(block, i), gidx(partner_block, m + 1 - i)
            edges.add((min(u, v), max(u, v)))

    # blocks 1 and 2 are w a...a and c...c b; the rest start as all f
    classes = ["w"] + ["a"] * (m - 1) + ["c"] * (m - 1) + ["b"] + ["f"] * (n - 2 * m)
    for block in range(3, blocks + 1):
        classes[gidx(block, m + 2 - block)] = "d"  # partner of an "a" vertex
        classes[gidx(block, m + 3 - block)] = "e"  # partner of a "c" vertex
    return Graph(n, tuple(edges), classes)


# --- family registry --------------------------------------------------------------

# Family name (the CLI subcommand) -> (parameter record, builder). This is
# the only list of families: names, dispatch and CLI options derive from it.
FAMILIES: dict[str, tuple[type, Callable[..., Graph]]] = {
    "complete": (Complete, build_complete),
    "cbg": (CompleteBipartite, build_complete_bipartite),
    "paley": (PaleyPrime, build_paley_prime),
    "petersen": (Petersen, build_petersen),
    "rook": (Rook, build_rook),
    "jcg": (JoinedComplete, build_joined_complete),
    "simplex": (Simplex, build_simplex),
}

FamilySpec = Union[tuple(spec_cls for spec_cls, _ in FAMILIES.values())]


def family_name(spec: FamilySpec) -> str:
    for name, (spec_cls, _) in FAMILIES.items():
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
