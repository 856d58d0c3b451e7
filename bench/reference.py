"""Reference answers for benchmark requests, computed before timing starts.

Nothing here imports ``ctqw``: the graph families are rebuilt from their
documented layouts and every number comes from numpy's LAPACK routines, so
a defect in the package's own kernels (``numerics``, ``reduction``) cannot
hide itself.

* Efficiency: eta_ref is the squared overlap of the initial state with
  span{L^k e_w}, taken as the span of the projections of e_w onto the
  eigenspaces of L (``np.linalg.eigh``). Its dimension is the reduced
  dimension ``m`` the CLI prints.
* Connectivity: vertex and edge connectivity equal the family formulas;
  both algebraic connectivities come from ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

EXACT_TOL = 1e-9  # subspace, closed form, lambda, algebraic connectivities
DYNAMIC_TOL = 1e-2  # the CLI's own tolerance for the RK4 oracle
_GAP_TOL = 1e-8  # eigenvalue grouping and trap-weight threshold


@dataclass(frozen=True)
class RefGraph:
    """Vertex-class labels of one family instance, and its adjacency unless
    only the labels were kept."""

    adjacency: np.ndarray | None
    classes: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.classes)

    def edges(self) -> set[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency))
        return {(int(a), int(b)) for a, b in zip(i, j)}

    def class_vertices(self, label: str) -> list[int]:
        return [v for v, c in enumerate(self.classes) if c == label]

    def labels(self) -> list[str]:
        """Class labels other than the trap, in first-vertex order."""
        return list(dict.fromkeys(c for c in self.classes if c != "w"))


def _graph(n: int, pairs, classes) -> RefGraph:
    a = np.zeros((n, n))
    for i, j in pairs:
        a[i, j] = a[j, i] = 1.0
    return RefGraph(a, tuple(classes))


def _by_trap_adjacency(n: int, pairs) -> RefGraph:
    """Trap at 0, class "a" for its neighbours and "b" for the rest."""
    g = _graph(n, pairs, ["w"] * n)
    labels = ["w"] + ["a" if g.adjacency[0, v] else "b" for v in range(1, n)]
    return RefGraph(g.adjacency, tuple(labels))


def build_graph(family: str, params: dict) -> RefGraph:
    if family == "complete":
        n = params["n"]
        return _graph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)], ["w"] + ["a"] * (n - 1)
        )
    if family == "cbg":
        n1, n2 = params["n1"], params["n2"]
        n = n1 + n2
        pairs = [(i, j) for i in range(n1) for j in range(n1, n)]
        return _graph(n, pairs, ["w"] + ["b"] * (n1 - 1) + ["a"] * n2)
    if family == "paley":
        p = params["p"]
        squares = {x * x % p for x in range(1, p)}
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p) if (j - i) % p in squares]
        return _by_trap_adjacency(p, pairs)
    if family == "petersen":
        pairs = []
        for j in range(5):
            pairs += [(j, (j + 1) % 5), (j, j + 5), (5 + j, 5 + (j + 2) % 5)]
        return _by_trap_adjacency(10, pairs)
    if family == "rook":
        s = params["n"]
        cells = [(r, c) for r in range(s) for c in range(s)]
        pairs = [
            (u, v)
            for u in range(s * s)
            for v in range(u + 1, s * s)
            if cells[u][0] == cells[v][0] or cells[u][1] == cells[v][1]
        ]
        return _by_trap_adjacency(s * s, pairs)
    if family == "jcg":
        h = params["half"]
        pairs = [(b + i, b + j) for b in (0, h) for i in range(h) for j in range(i + 1, h)]
        pairs.append((h - 1, h))
        classes = ["w"] + ["a"] * (h - 2) + ["b1", "b2"] + ["c"] * (h - 1)
        return _graph(2 * h, pairs, classes)
    if family == "simplex":
        return _simplex(params["m"])
    raise ValueError(f"unknown family {family!r}")


def _simplex(m: int) -> RefGraph:
    """m+1 copies of K_m; local vertex i of block g pairs with local vertex
    m+1-i of block 1 + (i+g-1) mod (m+1)."""
    blocks = m + 1

    def idx(block: int, local: int) -> int:
        return (block - 1) * m + local - 1

    pairs = set()
    for g in range(1, blocks + 1):
        for i in range(1, m + 1):
            pairs.update((idx(g, i), idx(g, j)) for j in range(i + 1, m + 1))
            u, v = idx(g, i), idx(1 + (i + g - 1) % blocks, m + 1 - i)
            pairs.add((min(u, v), max(u, v)))
    classes = ["f"] * (m * blocks)
    classes[idx(1, 1)] = "w"
    for i in range(2, m + 1):
        classes[idx(1, i)] = "a"
    for i in range(1, m):
        classes[idx(2, i)] = "c"
    classes[idx(2, m)] = "b"
    for g in range(3, blocks + 1):
        classes[idx(g, m + 2 - g)] = "d"
        classes[idx(g, m + 3 - g)] = "e"
    return _graph(m * blocks, pairs, classes)


def laplacian(g: RefGraph) -> np.ndarray:
    return np.diag(g.adjacency.sum(axis=1)) - g.adjacency


def trap_span(g: RefGraph) -> np.ndarray:
    """Orthonormal rows spanning span{L^k e_0}: one unit vector per
    eigenspace of L that e_0 overlaps."""
    vals, vecs = np.linalg.eigh(laplacian(g))
    gap = _GAP_TOL * max(1.0, float(vals[-1] - vals[0]))
    cuts = [0] + [k for k in range(1, g.n) if vals[k] - vals[k - 1] > gap] + [g.n]
    rows = []
    for lo, hi in zip(cuts, cuts[1:]):
        amps = vecs[0, lo:hi]
        weight = float(np.linalg.norm(amps))
        if weight > _GAP_TOL:
            rows.append(vecs[:, lo:hi] @ (amps / weight))
    return np.asarray(rows)


def state_vector(g: RefGraph, state: str, theta: float) -> np.ndarray:
    """The CLI's --state grammar: class:<label>, vertex:<i>, uniform:<label>,
    super:<x>,<y> (labels or vertices; a label means its lowest vertex)."""
    kind, _, rest = state.partition(":")

    def vertex(token: str) -> int:
        return int(token) if token.isdigit() else g.class_vertices(token)[0]

    psi = np.zeros(g.n, dtype=complex)
    if kind in ("class", "vertex"):
        psi[vertex(rest)] = 1.0
    elif kind == "uniform":
        vs = g.class_vertices(rest)
        psi[vs] = 1.0 / math.sqrt(len(vs))
    elif kind == "super":
        x, y = rest.split(",")
        psi[vertex(x)] = 1.0 / math.sqrt(2.0)
        psi[vertex(y)] = np.exp(1j * theta) / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    return psi


@dataclass(frozen=True)
class Expected:
    """Reference values one response is checked against."""

    eta: float | None = None
    m: int | None = None
    edges: frozenset | None = None
    classes: tuple[str, ...] | None = None
    min_degree: int | None = None
    connectivity: int | None = None  # vertex and edge connectivity alike
    algebraic: float | None = None
    normalized_algebraic: float | None = None


def connectivity_formula(family: str, params: dict) -> int:
    """Vertex (= edge) connectivity of each family."""
    if family == "complete":
        return params["n"] - 1
    if family == "cbg":
        return min(params["n1"], params["n2"])
    if family == "paley":
        return (params["p"] - 1) // 2
    if family == "petersen":
        return 3
    if family == "rook":
        return 2 * (params["n"] - 1)
    if family == "jcg":
        return 1
    if family == "simplex":
        return params["m"]
    raise ValueError(f"unknown family {family!r}")


class Reference:
    """Computes reference answers. Per graph it keeps only the class labels
    and the trap span, so its memory stays small beside the program's."""

    def __init__(self) -> None:
        self._cache: dict[tuple, tuple[tuple[str, ...], np.ndarray]] = {}

    def _entry(self, family: str, params: dict) -> tuple[tuple[str, ...], np.ndarray]:
        key = (family, tuple(sorted(params.items())))
        if key not in self._cache:
            g = build_graph(family, params)
            self._cache[key] = (g.classes, trap_span(g))
        return self._cache[key]

    def labels(self, family: str, params: dict) -> RefGraph:
        return RefGraph(None, self._entry(family, params)[0])

    def efficiency(self, family: str, params: dict, state: str, theta: float) -> Expected:
        classes, rows = self._entry(family, params)
        amps = rows @ state_vector(RefGraph(None, classes), state, theta)
        return Expected(eta=float(np.sum(np.abs(amps) ** 2)), m=rows.shape[0])

    def connectivity(self, family: str, params: dict) -> Expected:
        g = build_graph(family, params)
        lap = laplacian(g)
        inv_sqrt = 1.0 / np.sqrt(g.adjacency.sum(axis=1))
        return Expected(
            edges=frozenset(g.edges()),
            classes=g.classes,
            min_degree=int(g.adjacency.sum(axis=1).min()),
            connectivity=connectivity_formula(family, params),
            algebraic=float(np.linalg.eigvalsh(lap)[1]),
            normalized_algebraic=float(
                np.linalg.eigvalsh(lap * np.outer(inv_sqrt, inv_sqrt))[1]
            ),
        )


@dataclass(frozen=True)
class Outcome:
    """Verdict on one response. ``silent`` marks a wrong value printed with
    exit status 0, as opposed to a failure the program reported itself."""

    failed: bool
    silent: bool = False
    oracle_err: float | None = None
    reason: str = ""


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _efficiency_errors(req, exp: Expected, payload: dict) -> list[str]:
    eta = payload["eta"]
    errors = []
    if payload["m"] != exp.m:
        errors.append(f"m={payload['m']} != {exp.m}")
    if not _close(eta["subspace"], exp.eta, EXACT_TOL):
        errors.append(f"subspace {eta['subspace']} != {exp.eta}")
    cf = eta["closed_form"]
    if (cf is not None or req.localized) and not _close(cf, exp.eta, EXACT_TOL):
        errors.append(f"closed_form {cf} != {exp.eta}")
    routes = {"lambda": EXACT_TOL, "dynamic_absorbed": DYNAMIC_TOL, "dynamic_survival": DYNAMIC_TOL}
    for route, tol in routes.items():
        if req.oracle and not _close(eta[route], exp.eta, tol):
            errors.append(f"{route} {eta[route]} != {exp.eta}")
        if not req.oracle and eta[route] is not None:
            errors.append(f"{route} printed without --oracle")
    return errors


def _graph_errors(exp: Expected, payload: dict) -> list[str]:
    conn = payload["connectivity"]
    graph = payload["graph"]
    errors = []
    if {tuple(e) for e in graph["edges"]} != exp.edges:
        errors.append("edge set differs")
    if tuple(graph["classes"][str(v)] for v in range(graph["n"])) != exp.classes:
        errors.append("class labels differ")
    for key, want in (
        ("min_degree", exp.min_degree),
        ("vertex", exp.connectivity),
        ("edge", exp.connectivity),
    ):
        if conn[key] != want:
            errors.append(f"{key} {conn[key]} != {want}")
    for key, want in (
        ("algebraic", exp.algebraic),
        ("normalized_algebraic", exp.normalized_algebraic),
    ):
        if not _close(conn[key], want, EXACT_TOL):
            errors.append(f"{key} {conn[key]} != {want}")
    return errors


def check(req, exp: Expected, status: int | str, stdout: str) -> Outcome:
    """Judge one response: `status` is the exit code, or the name of the
    exception the call raised."""
    try:
        payload = json.loads(stdout)
        if payload["family"] != req.family or payload["params"] != req.params:
            errors = ["family or params not echoed"]
        elif req.command == "efficiency":
            errors = _efficiency_errors(req, exp, payload)
        else:
            errors = _graph_errors(exp, payload)
    except (ValueError, KeyError, TypeError) as exc:
        payload, errors = None, [f"unreadable output: {exc!r}"]
    oracle_err = None
    if req.oracle and payload is not None:
        absorbed = payload.get("eta", {}).get("dynamic_absorbed")
        if isinstance(absorbed, (int, float)):
            oracle_err = abs(absorbed - exp.eta)
    if status != 0:
        return Outcome(True, False, oracle_err, f"exit {status}; " + "; ".join(errors))
    return Outcome(bool(errors), bool(errors), oracle_err, "; ".join(errors))
