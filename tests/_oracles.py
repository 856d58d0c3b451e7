"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (exhaustive enumeration, BFS, dense
eigensolves) and shares no code with the implementation paths it checks,
except that :func:`dense_decay_horizon` counts the decaying modes with the
package's Krylov construction. The strongly-regular check and the JSON
reader of graphs serve the graph tests only; :func:`subspace_equal`
compares two :class:`~ctqw.SubspaceBasis` spans by their projectors, and
:func:`row_signs` and :func:`similarity_error` compare two bases row by row,
and their reduced matrices entry by entry, up to the sign of each row. The
``build_*`` functions at the end are the reference definitions of the graph
families: they enumerate every edge pair by pair, in Python loops, and the
package's adjacency-rule builders must give the same ``edges`` and
``classes``. :func:`reference_max_flow` is the package's earlier max-flow
kernel, which searched the int64 residual itself; the boolean-mask kernel
that replaced it must take the same augmenting paths.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ctqw import Graph, SubspaceBasis, UnstableStepError
from ctqw.graphs import Edge, is_prime
from ctqw.numerics import krylov_vectors


def components(n: int, edges: set[tuple[int, int]]) -> int:
    seen: set[int] = set()
    count = 0
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    for start in range(n):
        if start in seen:
            continue
        count += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return count


def brute_vertex_connectivity(n: int, edges: set[tuple[int, int]]) -> int:
    """Smallest vertex set whose removal disconnects the graph; n - 1 when
    no such set exists (complete graph convention)."""
    for size in range(n - 1):
        for removed in itertools.combinations(range(n), size):
            keep = [v for v in range(n) if v not in removed]
            if len(keep) < 2:
                continue
            relabel = {v: i for i, v in enumerate(keep)}
            sub = {
                (relabel[i], relabel[j])
                for i, j in edges
                if i in relabel and j in relabel
            }
            if components(len(keep), sub) > 1:
                return size
    return n - 1


def brute_edge_connectivity(n: int, edges: set[tuple[int, int]]) -> int:
    for size in range(len(edges) + 1):
        for removed in itertools.combinations(sorted(edges), size):
            sub = edges - set(removed)
            if components(n, sub) > 1:
                return size
    return len(edges)


def brute_cut_edge_connectivity(n: int, edges: set[tuple[int, int]]) -> int:
    """Smallest number of edges leaving a nonempty proper vertex subset,
    by enumerating the 2^(n-1) - 1 subsets that contain vertex n - 1;
    0 when n < 2. Cheaper than `brute_edge_connectivity` on dense graphs."""
    if n < 2:
        return 0
    best = len(edges)
    for mask in range(1 << (n - 1)):
        inside = mask | (1 << (n - 1))
        if inside == (1 << n) - 1:
            continue
        crossing = sum(((inside >> i) & 1) != ((inside >> j) & 1) for i, j in edges)
        best = min(best, crossing)
    return best


def brute_local_edge_cut(n: int, edges: set[tuple[int, int]], s: int, t: int) -> int:
    """Fewest edges leaving a vertex subset that holds s but not t, over
    every such subset: the s-t edge max flow, by Menger's theorem."""
    if not edges:
        return 0
    subsets = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    subsets = subsets[(subsets[:, s] == 1) & (subsets[:, t] == 0)]
    i, j = np.array(sorted(edges)).T
    return int((subsets[:, i] != subsets[:, j]).sum(axis=1).min())


def brute_local_vertex_cut(n: int, edges: set[tuple[int, int]], s: int, t: int) -> int:
    """Fewest vertices other than the non-adjacent s and t whose removal
    leaves no s-t path, by enumerating vertex sets in order of size."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    others = [v for v in range(n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for removed in itertools.combinations(others, size):
            seen, queue = {s, *removed}, deque([s])
            while queue:
                fresh = nbrs[queue.popleft()] - seen
                seen |= fresh
                queue.extend(fresh)
            if t not in seen:
                return size
    raise ValueError("s and t are adjacent")


def reference_max_flow(residual: np.ndarray, s: int, t: int, cutoff: int) -> int:
    """Edmonds-Karp from zero on the int64 matrix `residual`, overwritten
    with the final residual, returning min(maxflow, cutoff). Each BFS level
    gathers the frontier's residual rows, and a new vertex's parent is the
    first frontier vertex with a positive residual arc to it."""
    n = residual.shape[0]
    flow = 0
    while flow < cutoff:
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


def pair_count_srg(adjacency: np.ndarray) -> tuple[int, int, int, int] | None:
    """(n, k, lam, mu) by direct common-neighbor counting, or None."""
    n = adjacency.shape[0]
    degs = adjacency.sum(axis=1)
    if not np.all(degs == degs[0]):
        return None
    k = int(degs[0])
    lam_set = set()
    mu_set = set()
    for i in range(n):
        for j in range(i + 1, n):
            common = int(np.sum(adjacency[i] * adjacency[j]))
            if adjacency[i, j]:
                lam_set.add(common)
            else:
                mu_set.add(common)
    if len(lam_set) != 1 or len(mu_set) != 1:
        return None
    return n, k, lam_set.pop(), mu_set.pop()


def girth(adjacency: np.ndarray) -> int:
    """Shortest cycle length via BFS from every vertex."""
    n = adjacency.shape[0]
    best = n + 1
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adjacency[u]):
                v = int(v)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


def symmetric_2x2_eigenvalues(a: float, b: float, d: float) -> np.ndarray:
    tr = a + d
    disc = np.sqrt((a - d) ** 2 + 4 * b * b)
    return np.sort(np.array([(tr - disc) / 2, (tr + disc) / 2]))


def symmetric_3x3_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Closed-form real roots of the characteristic cubic of each matrix in
    a stack of shape (k, 3, 3), as ascending rows of shape (k, 3)
    (trigonometric method; valid because a symmetric matrix has a real
    spectrum).

    The float64 formula loses ~sqrt(eps) accuracy near double roots, so
    nearly degenerate spectra are resolved through the exact integer
    characteristic polynomial in high precision instead.
    """
    m = np.asarray(m, dtype=float)
    q = np.trace(m, axis1=1, axis2=2) / 3.0
    b = m - q[:, None, None] * np.eye(3)
    p = np.sqrt(np.sum(b * b, axis=(1, 2)) / 6.0)
    scalar = p == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(np.linalg.det(b) / (2.0 * p**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eig1 = q + 2.0 * p * np.cos(phi)
    eig3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    out = np.sort(np.stack([eig1, eig2, eig3], axis=1), axis=1)
    out[scalar] = q[scalar, None]
    for i in np.flatnonzero(~scalar & (1.0 - np.abs(r) < 1e-6)):
        out[i] = _integer_char_poly_roots(m[i])
    return out


def _integer_char_poly_roots(m: np.ndarray) -> np.ndarray:
    """Roots of det(lambda*I - M) for an integer symmetric 3x3 matrix.

    A repeated root of a monic integer cubic is necessarily an integer, so
    integer roots are peeled off by exact scanning within the Gershgorin
    bound and the leftover factor (degree <= 2, simple roots) is solved by
    the quadratic formula.
    """
    entries = [[int(round(m[i, j])) for j in range(3)] for i in range(3)]
    (a, b, c), (_, d, e), (_, _, f) = entries
    trace = a + d + f
    minors = (a * d - b * b) + (a * f - c * c) + (d * f - e * e)
    det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    coeffs = [1, -trace, minors, -det]  # monic, exact

    bound = max(sum(abs(x) for x in row) for row in entries)
    roots: list[float] = []
    while len(coeffs) > 1:
        found = None
        for lam in range(-bound, bound + 1):
            value = 0
            for coef in coeffs:
                value = value * lam + coef
            if value == 0:
                found = lam
                break
        if found is None:
            break
        roots.append(float(found))
        deflated = [coeffs[0]]
        for coef in coeffs[1:-1]:
            deflated.append(coef + found * deflated[-1])
        coeffs = deflated
    if len(coeffs) == 3:
        _, p, q = coeffs
        disc = np.sqrt(p * p - 4 * q)
        roots.extend([(-p - disc) / 2, (-p + disc) / 2])
    elif len(coeffs) == 2:
        roots.append(-coeffs[1] / coeffs[0])
    elif len(coeffs) == 4:
        # no integer root, so all three roots are simple: Durand-Kerner in
        # high precision converges
        import mpmath

        with mpmath.workdps(50):
            for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200):
                roots.append(float(mpmath.re(r)))
    return np.sort(np.array(roots))


def rk4_trapped_reference(
    l: np.ndarray, kappa: float, psi0: np.ndarray, dt: float, t_max: float
) -> dict:
    """Step-by-step classical RK4 of i psi' = (L - i*kappa |w><w|) psi, the
    trap w being vertex 0, with the trapezoid rule on the trap flux
    f = 2*kappa*|psi_w|^2: four matvecs per step over all
    ``round(t_max / dt)`` steps, plus the Euler-Maclaurin end term
    -dt^2/12 * (f'(t_final) - f'(0))."""
    w = 0
    generator = -1j * np.asarray(l, dtype=complex)
    generator[w, w] += -kappa
    psi = np.asarray(psi0, dtype=complex).copy()
    nsteps = int(round(t_max / dt))

    def flux_slope(p):  # f' = 4 kappa Re(conj(psi_w) (G psi)_w)
        return 4.0 * kappa * (np.conj(p[w]) * (generator[w] @ p)).real

    absorbed = 0.0
    f_prev = 2.0 * kappa * abs(psi[w]) ** 2
    slope_0 = flux_slope(psi)
    for _ in range(nsteps):
        k1 = generator @ psi
        k2 = generator @ (psi + (0.5 * dt) * k1)
        k3 = generator @ (psi + (0.5 * dt) * k2)
        k4 = generator @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f = 2.0 * kappa * abs(psi[w]) ** 2
        absorbed += 0.5 * dt * (f_prev + f)
        f_prev = f
    return {
        "psi": psi,
        "absorbed": absorbed - dt * dt / 12.0 * (flux_slope(psi) - slope_0),
        "t_final": nsteps * dt,
    }


def dense_decay_horizon(l: np.ndarray, kappa: float) -> float:
    """ln(1e8) / (2 * gamma_min) from the eigenvalues of the dense n x n
    H = L - i*kappa |w><w|, the trap w being vertex 0. Exactly m modes of H
    decay, m being the Krylov dimension of L at w; the others are dark and
    never reach the trap, so gamma_min is the smallest of the m largest
    rates -Im(lambda). Raises UnstableStepError when it is no larger than a
    dark mode's roundoff, 1e-12 * max(1, ||L||_F)."""
    h = np.array(l, dtype=complex)
    h[0, 0] -= 1j * kappa
    m = len(krylov_vectors(h.real))
    rates = np.sort(-np.linalg.eigvals(h).imag)[-m:]
    floor = 1e-12 * max(1.0, float(np.linalg.norm(h.real)))
    if not rates[0] > floor:
        raise UnstableStepError(f"slowest trap-visible rate under the floor {floor:.3g}")
    return math.log(1e8) / (2.0 * float(rates[0]))


@dataclass(frozen=True)
class SrgParams:
    """Parameters (n, k, lam, mu) of a strongly regular graph."""

    n: int
    k: int
    lam: int
    mu: int


def validate_srg(g: Graph) -> SrgParams | None:
    """Check strong regularity by counting common neighbors over all pairs.

    Returns the parameters when the graph is a (connected, non-complete,
    non-edgeless) strongly regular graph and the identity
    k(k - lam - 1) = (n - k - 1) mu holds; returns None otherwise.
    """
    adj = g.adjacency
    n = g.n
    if not g.edges or len(g.edges) == n * (n - 1) // 2:
        return None
    if not g.is_connected():
        return None
    degs = g.degrees
    if not np.all(degs == degs[0]):
        return None
    k = int(degs[0])
    pairs = np.triu_indices(n, 1)
    common, edge = (adj @ adj)[pairs], adj[pairs] > 0
    lams, mus = np.unique(common[edge]), np.unique(common[~edge])
    if len(lams) != 1 or len(mus) != 1:
        return None
    lam, mu = int(lams[0]), int(mus[0])
    if k * (k - lam - 1) != (n - k - 1) * mu:
        return None
    return SrgParams(n, k, lam, mu)


def graph_from_json(obj: dict) -> Graph:
    """Inverse of :func:`ctqw.graphs.graph_to_json`."""
    n = int(obj["n"])
    classes = None
    if "classes" in obj and obj["classes"] is not None:
        classes = tuple(str(obj["classes"][str(v)]) for v in range(n))
    return Graph(
        n=n,
        edges=tuple((int(i), int(j)) for i, j in obj["edges"]),
        classes=classes,
    )


def normalized_laplacian(g: Graph) -> np.ndarray:
    """delta_ij - A_ij / sqrt(d_i d_j), entry by entry from the edge list."""
    degree = [0] * g.n
    for i, j in g.edges:
        degree[i] += 1
        degree[j] += 1
    out = np.eye(g.n)
    for i, j in g.edges:
        out[i, j] = out[j, i] = -1.0 / math.sqrt(degree[i] * degree[j])
    return out


def projector(basis: SubspaceBasis) -> np.ndarray:
    """Orthogonal projector onto the span of the basis rows."""
    return basis.vectors.T @ basis.vectors


def subspace_equal(b1: SubspaceBasis, b2: SubspaceBasis, tol: float = 1e-9) -> bool:
    """True iff the two bases span the same subspace: equal dimension and
    projector Frobenius distance within `tol`."""
    if b1.vectors.shape[1] != b2.vectors.shape[1]:
        raise ValueError("bases live in different ambient dimensions")
    if b1.m != b2.m:
        return False
    return float(np.linalg.norm(projector(b1) - projector(b2))) <= tol


def row_signs(b1: SubspaceBasis, b2: SubspaceBasis, tol: float = 1e-9) -> np.ndarray | None:
    """The signs s_k with row k of `b1` equal to s_k times row k of `b2`:
    every |b1_k . b2_k| is 1 within `tol`, and every entry of
    b1_k - s_k b2_k is within `tol` of 0. None when the bases differ in shape
    or some row matches neither way."""
    if b1.vectors.shape != b2.vectors.shape:
        return None
    dots = np.sum(b1.vectors * b2.vectors, axis=1)
    signs = np.sign(dots)
    if np.max(np.abs(np.abs(dots) - 1.0)) > tol:
        return None
    if np.max(np.abs(b1.vectors - signs[:, None] * b2.vectors)) > tol:
        return None
    return signs


def similarity_error(h1: np.ndarray, h2: np.ndarray, signs: np.ndarray) -> float:
    """Largest entry of |D h1 D - h2|, D = diag(signs): how far two reduced
    matrices are from agreeing once the rows of the basis of `h1` carry the
    signs of the basis of `h2`."""
    return float(np.max(np.abs(np.outer(signs, signs) * h1 - h2)))


# --- reference family definitions, one edge pair at a time -------------------


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
