"""Transport efficiency toward a single absorbing trap.

The efficiency eta is the probability that a walker started in ``psi0`` is
eventually absorbed at the trap, vertex 0 of every built graph. Four
independent routes compute it, each from an :data:`InitialState`:

* subspace overlap: eta = sum_k |<e_k|psi0>|^2 over the iterative basis of
  the trap-seeded invariant subspace (:func:`efficiency_subspace`);
* per-family analytic formulas (:func:`efficiency_closed_form`), looked
  up by the classes of the state's own vertices;
* overlap with the span of Laplacian eigenvectors that see the trap
  (:func:`lambda_subspace` / :func:`efficiency_lambda`);
* direct integration of the lossy dynamics (:func:`efficiency_dynamic`),
  reporting both the integrated trapping probability and the lost norm.

All four must agree. :func:`efficiency_report` compares every route that
ran with the subspace route, within its tolerance in
:data:`ROUTE_TOLERANCES`, and lists each disagreement in the report; the
``efficiency`` command prints them and exits 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graphs import FamilySpec, Graph, laplacian
from .numerics import (
    _HORIZON_SURVIVAL,
    decay_horizon,
    evolve_trapped,
    rk4_step,
    sym_eig,
)
from .reduction import (
    SubspaceBasis,
    UnsupportedCaseError,
    closed_forms,
    krylov_basis,
    reduced_hamiltonian,
)


# --- initial states ---------------------------------------------------------------


@dataclass(frozen=True)
class Localized:
    v: int


@dataclass(frozen=True)
class Superposition:
    """(|v1> + e^{i theta} |v2>) / sqrt(2)."""

    v1: int
    v2: int
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.v1 == self.v2:
            raise ValueError("superposition needs two distinct vertices")


@dataclass(frozen=True, eq=False)
class Explicit:
    state: np.ndarray


InitialState = Union[Localized, Superposition, Explicit]


def initial_state_vector(state: InitialState, n: int) -> np.ndarray:
    """Materialize an initial-state description as a unit complex vector;
    anything but an :data:`InitialState`, a raw array among them, raises
    ValueError."""
    psi = np.zeros(n, dtype=complex)
    if isinstance(state, Localized):
        if not 0 <= state.v < n:
            raise ValueError(f"vertex {state.v} out of range")
        psi[state.v] = 1.0
    elif isinstance(state, Superposition):
        if not (0 <= state.v1 < n and 0 <= state.v2 < n):
            raise ValueError("superposition vertex out of range")
        psi[state.v1] = 1.0 / math.sqrt(2.0)
        psi[state.v2] = np.exp(1j * state.theta) / math.sqrt(2.0)
    elif isinstance(state, Explicit):
        psi = np.asarray(state.state, dtype=complex).reshape(n).copy()
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValueError("explicit state must be normalized")
    else:
        raise ValueError(f"unknown initial state type {type(state).__name__}")
    return psi


def class_representative(g: Graph, label: str) -> int:
    return g.class_vertices(label)[0]


def class_uniform_state(g: Graph, label: str) -> np.ndarray:
    """Equal real superposition of all vertices in a class."""
    vs = g.class_vertices(label)
    psi = np.zeros(g.n, dtype=complex)
    psi[list(vs)] = 1.0 / math.sqrt(len(vs))
    return psi


# --- the four routes ---------------------------------------------------------------


def efficiency_subspace(g: Graph, psi0: InitialState) -> float:
    """Overlap of the initial state with the trap-seeded invariant subspace."""
    basis = krylov_basis(g)
    return basis.overlap(initial_state_vector(psi0, g.n))


_DEGENERACY_TOL = 1e-8


def lambda_subspace(g: Graph) -> SubspaceBasis:
    """Span of the Laplacian eigenvectors with nonzero trap overlap.

    Eigenvalues are grouped when equal within 1e-8 relative to max(1,
    spectral range); from each group the normalized projection of the
    trap's |0> is kept whenever its norm exceeds 1e-8. The remainder of a
    degenerate eigenspace is orthogonal to |0> by construction, so one
    vector per group suffices.
    """
    values, vectors = sym_eig(laplacian(g))
    spread = float(values[-1] - values[0])
    gap_tol = _DEGENERACY_TOL * max(1.0, spread)
    collected = []
    start = 0
    for stop in range(1, g.n + 1):
        if stop < g.n and values[stop] - values[stop - 1] <= gap_tol:
            continue
        block = vectors[:, start:stop]
        amps = block[0, :]
        weight = float(np.linalg.norm(amps))
        if weight > _DEGENERACY_TOL:
            collected.append(block @ (amps / weight))
        start = stop
    return SubspaceBasis(np.asarray(collected))


def efficiency_lambda(g: Graph, psi0: InitialState) -> float:
    """Overlap of the initial state with the trap-visible eigenvector span."""
    basis = lambda_subspace(g)
    return basis.overlap(initial_state_vector(psi0, g.n))


def efficiency_dynamic(
    g: Graph, basis: SubspaceBasis, psi0: InitialState, kappa: float
) -> tuple[float, float]:
    """Brute-force oracle: integrate the lossy dynamics with trap rate
    `kappa` at vertex 0, and report (integrated trapping probability, lost
    norm). The run ends at :func:`decay_horizon` of the Hamiltonian reduced
    to the trap's Krylov `basis` and steps at :func:`rk4_step` for that
    length. At or near an exceptional point of H (K2 at kappa = 2) the
    slowest weight decays as a power of t times exp(-2 gamma_min t), so the
    horizon can end the run early: it is doubled, and the run repeated,
    while the end state keeps more than 1e-8 of its weight on the Krylov
    space."""
    if not kappa > 0:
        raise ValueError("dynamic efficiency needs kappa > 0")
    psi = initial_state_vector(psi0, g.n)
    l = laplacian(g)
    t_max = decay_horizon(reduced_hamiltonian(basis, g, kappa), l)
    ev = evolve_trapped(l, kappa, psi, dt=rk4_step(l, kappa, t_max), t_max=t_max)
    while basis.overlap(ev.psi) > _HORIZON_SURVIVAL:
        t_max *= 2.0
        ev = evolve_trapped(l, kappa, psi, dt=rk4_step(l, kappa, t_max), t_max=t_max)
    survival = float(np.linalg.norm(ev.psi) ** 2)
    return ev.absorbed, 1.0 - survival


def superposition_rule(eta: float, theta: float) -> float:
    """Efficiency (1 + cos theta) * eta of (|v1> + e^{i theta} |v2>) / sqrt(2)
    for two vertices that overlap every basis vector alike, each of
    localized efficiency `eta`."""
    return (1.0 + math.cos(theta)) * eta


def efficiency_closed_form(
    spec: FamilySpec,
    class1: str,
    class2: str | None = None,
    theta: float = 0.0,
) -> float:
    """Analytic transport efficiency for a localized class vertex, or for the
    superposition (|v1> + e^{i theta} |v2>) / sqrt(2) of representatives of
    two distinct classes. Raises UnsupportedCaseError for uncovered
    combinations, among them two labels of one class, which
    :func:`efficiency_report` covers by :func:`superposition_rule`."""
    eta = closed_forms(spec).efficiency(class1, class2, theta)
    if eta is None:
        classes = ", ".join(repr(c) for c in (class1, class2) if c is not None)
        raise UnsupportedCaseError(f"no analytic efficiency for {spec!r} at {classes}")
    return eta


# --- combined report ---------------------------------------------------------------

# Every route besides the subspace one, by its name in the report, with the
# largest difference from the subspace route it may show.
ROUTE_TOLERANCES = {
    "closed_form": 1e-9,
    "lambda": 1e-9,
    "dynamic_absorbed": 1e-6,
    "dynamic_survival": 1e-6,
}


@dataclass(frozen=True)
class EfficiencyReport:
    """Transport efficiency by route: ``eta`` maps ``"subspace"`` and then
    each key of :data:`ROUTE_TOLERANCES` to its value, ``None`` for a route
    that was not requested or has no analytic formula for the given state.
    ``m`` is the Krylov dimension, and ``disagreements`` holds one message
    per failed comparison, empty when every route agrees."""

    eta: dict[str, float | None]
    m: int
    disagreements: tuple[str, ...] = ()


def efficiency_report(
    spec: FamilySpec,
    g: Graph,
    psi0: InitialState,
    *,
    kappa: float = 1.0,
    oracle: bool = False,
) -> EfficiencyReport:
    """Evaluate every applicable route for one (graph, initial state) point;
    `g` is ``build(spec)``.

    The subspace route always runs. The analytic route reads the class of
    each vertex of a :class:`Localized` or :class:`Superposition` state
    from ``g`` and uses the state's own theta; an :class:`Explicit` state
    has none. Two vertices of one class (simplex ``c`` and ``d`` count as
    one) take :func:`superposition_rule`. The rule lives here, not in
    :class:`~ctqw.reduction.ClosedForms`: only here are both vertices known
    to exist, and the record does not know class sizes, so it would price
    a pair from a one-vertex class (2*29/49 > 1 for JoinedComplete(6)
    ``b1``). With ``oracle=True`` the eigenvector route and the dynamical
    integration (:func:`efficiency_dynamic`) run as well. Every route that
    ran is compared with the subspace route, and m with the size of the
    family's analytic reduced Hamiltonian, when it has one.
    """
    basis = krylov_basis(g)
    eta = dict.fromkeys(("subspace", *ROUTE_TOLERANCES))
    eta["subspace"] = basis.overlap(initial_state_vector(psi0, g.n))

    forms = closed_forms(spec)
    if isinstance(psi0, Localized):
        eta["closed_form"] = forms.efficiency(g.classes[psi0.v])
    elif isinstance(psi0, Superposition):
        class1, class2 = (forms.label(g.classes[v]) for v in (psi0.v1, psi0.v2))
        if class1 != class2:
            eta["closed_form"] = forms.efficiency(class1, class2, psi0.theta)
        elif (eta_class := forms.efficiency(class1)) is not None:
            # vertices of one class overlap every basis vector alike
            eta["closed_form"] = superposition_rule(eta_class, psi0.theta)

    if oracle:
        eta["lambda"] = efficiency_lambda(g, psi0)
        eta["dynamic_absorbed"], eta["dynamic_survival"] = efficiency_dynamic(
            g, basis, psi0, kappa
        )

    disagreements = [
        f"subspace and {route} disagree by {abs(eta[route] - eta['subspace']):.3g} > {tol:g}"
        for route, tol in ROUTE_TOLERANCES.items()
        if eta[route] is not None and not abs(eta[route] - eta["subspace"]) <= tol
    ]
    if forms.diag is not None and len(forms.diag) != basis.m:
        disagreements.append(
            f"Krylov dimension m={basis.m} and closed-form dimension "
            f"{len(forms.diag)} disagree"
        )
    return EfficiencyReport(eta, basis.m, tuple(disagreements))
