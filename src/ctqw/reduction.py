"""Invariant-subspace reduction of walk Hamiltonians.

Starting from the trap vertex 0, where every builder puts it, repeatedly
applying the Laplacian and orthonormalizing spans the smallest subspace
that is invariant under the walk and contains the trap. The trap term
-i*kappa |0><0| maps everything into span{|0>}, so seeding with |0> makes
the L-generated and H-generated subspaces identical and the construction
can stay in real arithmetic. In this basis the Hamiltonian is tridiagonal,
with -i*kappa added at the top-left entry only.

Each family's closed forms sit in one :class:`ClosedForms` record from
:data:`CLOSED_FORMS`: the analytic basis and reduced Hamiltonian (an
independent reference for the iterative ones), the efficiencies and the
Table-1 algebraic-connectivity formula. All of them are stated over the
vertex classes the builders label: a basis vector is a table of amplitudes
by class, spread over the vertices of the built graph.

The two constructions need not sign their rows alike. A Krylov row is the
normalized Lanczos residual, so the iterative reduced Hamiltonian has
positive off-diagonal entries; the closed forms are the paper's rows and
matrices unchanged, some of whose off-diagonal entries are negative. Row k
of one basis is +-1 times row k of the other, and the two reduced matrices
are similar under that diagonal of signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graphs import (
    MERGED_CLASSES,
    Complete,
    CompleteBipartite,
    FamilySpec,
    Graph,
    JoinedComplete,
    PaleyPrime,
    Petersen,
    Rook,
    Simplex,
    build,
    laplacian,
)
from .numerics import _trapped_hamiltonian, krylov_vectors


class UnsupportedCaseError(ValueError):
    """The requested family, class or superposition has no closed form."""


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered orthonormal vectors (rows) spanning a subspace."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        gram = v @ v.T
        if float(np.max(np.abs(gram - np.eye(v.shape[0])))) > 1e-10:
            raise ValueError("basis vectors are not orthonormal")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    def overlap(self, psi: np.ndarray) -> float:
        """Total squared overlap of a state with the subspace."""
        amps = self.vectors @ np.asarray(psi, dtype=complex)
        return float(np.sum(np.abs(amps) ** 2))


def krylov_basis(g: Graph) -> SubspaceBasis:
    """Iterative orthonormal basis of the walk-invariant subspace seeded at
    the trap: the Krylov rows of the Laplacian
    (:func:`~ctqw.numerics.krylov_vectors`), which stop at the first linear
    dependence."""
    return SubspaceBasis(krylov_vectors(laplacian(g)))


def reduced_hamiltonian(basis: SubspaceBasis, g: Graph, kappa: float) -> np.ndarray:
    """Project the trapped Hamiltonian L - i*kappa |0><0| onto `basis`; entry
    (0, 0) carries the -i*kappa trap term (the basis must start with |0>)."""
    ambient = basis.vectors.shape[1]
    if ambient != g.n:
        raise ValueError(
            f"basis ambient dimension {ambient} does not match graph order {g.n}"
        )
    return _trapped_hamiltonian(basis.vectors @ laplacian(g) @ basis.vectors.T, kappa)


# --- closed-form references ------------------------------------------------------


@dataclass(frozen=True)
class ClosedForms:
    """The paper's closed forms for one family instance; ``None`` or a
    missing key marks one the instance lacks. ``basis`` lists the analytic
    basis vectors, each a table of amplitudes by vertex class (a class it
    omits has amplitude 0); ``diag`` and ``off`` give the tridiagonal
    reduced Hamiltonian. Pair efficiencies are functions of cos(theta),
    filed under either order of two distinct labels; ``aliases`` renames a
    label before any lookup."""

    basis: list[dict[str, float]] | None = None
    diag: list[float] | None = None
    off: list[float] | None = None
    localized: dict[str, float] = field(default_factory=dict)
    pairs: dict[tuple[str, str], Callable[[float], float]] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    algebraic_connectivity: float | None = None  # the Table-1 formula

    def label(self, label: str) -> str:
        return self.aliases.get(label, label)

    def efficiency(
        self, class1: str, class2: str | None = None, theta: float = 0.0
    ) -> float | None:
        if class2 is None:
            return self.localized.get(self.label(class1))
        pair = (self.label(class1), self.label(class2))
        formula = self.pairs.get(pair) or self.pairs.get(pair[::-1])
        return None if formula is None else formula(math.cos(theta))


def _complete(spec: Complete) -> ClosedForms:
    return ClosedForms(
        localized={"a": 1.0 / (spec.n - 1)}, algebraic_connectivity=float(spec.n)
    )


def _complete_bipartite(spec: CompleteBipartite) -> ClosedForms:
    n1, n2 = spec.n1, spec.n2
    n = n1 + n2
    localized = {"a": 1.0 / n2}
    table1 = float(min(n1, n2))
    if n1 < 2:  # no class b, and no third basis vector
        return ClosedForms(localized=localized, algebraic_connectivity=table1)
    return ClosedForms(
        basis=[{"w": 1.0}, {"a": 1.0 / math.sqrt(n2)}, {"b": 1.0 / math.sqrt(n1 - 1)}],
        diag=[float(n2), float(n1), float(n2)],
        off=[-math.sqrt(n2), -math.sqrt(n2 * (n1 - 1))],
        localized={**localized, "b": 1.0 / (n1 - 1)},
        pairs={("a", "b"): lambda cos: (n - 1) / (2.0 * (n1 - 1) * n2)},
        algebraic_connectivity=table1,
    )


def _strongly_regular(
    n: int, k: int, lam: int, mu: int, table1: float | None = None
) -> ClosedForms:
    """SRG(n, k, lam, mu): class ``a`` holds the k neighbors of the trap and
    class ``b`` the n - k - 1 other vertices."""
    return ClosedForms(
        basis=[{"w": 1.0}, {"a": 1.0 / math.sqrt(k)}, {"b": 1.0 / math.sqrt(n - k - 1)}],
        diag=[float(k), float(k - lam), float(mu)],
        off=[-math.sqrt(k), -math.sqrt(mu * (k - lam - 1))],
        localized={"a": 1.0 / k, "b": 1.0 / (n - k - 1)},
        pairs={("a", "b"): lambda cos: (n - 1) / (2.0 * k * (n - k - 1))},
        algebraic_connectivity=table1,
    )


def _joined_complete(spec: JoinedComplete) -> ClosedForms:
    h = spec.half
    n = 2 * h
    d = n * (n - 4) + 2
    s1 = math.sqrt(h - 1)
    s2 = math.sqrt((n - 3) * (h - 1))
    s3 = math.sqrt((n - 3) * (n * (h - 2) + 1))
    localized = {"b1": 0.5 + (n - 3) / d, "b2": 0.5 + (n - 3) / d, "c": 2.0 * (n - 3) / d}
    pairs = {("b1", "b2"): lambda cos: ((n - 2) * (n - (n - 4) * cos) - 4) / (2.0 * d)}
    for b in ("b1", "b2"):  # the two bridge vertices pair alike with c, and with a
        pairs[b, "c"] = lambda cos: (n * (n + 2) + 4 * (n - 4) * cos - 16) / (4.0 * d)
    if h >= 3:  # class a is not empty
        localized["a"] = 2.0 * (n - 1) / d
        pairs["a", "c"] = lambda cos: 2.0 * (n - 2 - cos) / d
        for b in ("b1", "b2"):
            pairs["a", b] = lambda cos: (n - 2) * (n + 4 * (1 + cos)) / (4.0 * d)
    return ClosedForms(
        basis=[
            {"w": 1.0},
            {"a": 1.0 / s1, "b1": 1.0 / s1},
            {"a": 1.0 / s2, "b1": -(h - 2) / s2, "b2": (h - 1) / s2},
            {"a": 1.0 / s3, "b1": -(h - 2) / s3, "b2": -(h - 2) / s3, "c": -(n - 3) / s3},
        ],
        diag=[
            float(h - 1),
            n / (n - 2),
            (n * n / 2 - 7 + 1 / (h - 1)) / (n - 3),
            (h - 1) / (n - 3),
        ],
        off=[
            -math.sqrt(h - 1),
            -math.sqrt(n - 3) / (h - 1),
            math.sqrt((h - 1) * (n * (h - 2) + 1)) / (n - 3),
        ],
        localized=localized,
        pairs=pairs,
        algebraic_connectivity=(n + 4 - math.sqrt(n * (n + 8) - 16)) / 4.0,
    )


def _simplex(spec: Simplex) -> ClosedForms:
    m = spec.m
    if m < 3:  # fewer than five distinct vertex roles
        return ClosedForms(algebraic_connectivity=1.0)
    q = m * m - 2 * m + 4
    r = m**3 + 2 * m * m - 8 * m + 16
    den = 2.0 * m * m * (m - 1)  # denominators shared by the pair formulas
    den2 = den * (m - 2)

    def row(ab: float, cd: float, e: float, f: float, scale: float) -> dict[str, float]:
        # scale * (ab (|a> - (m-1) |b>) + cd (|c> + |d>) + e |e> + f |f>), where
        # |x> is the indicator vector of class x
        ab, cd = ab * scale, cd * scale
        return {"a": ab, "b": -(m - 1) * ab, "c": cd, "d": cd, "e": e * scale, "f": f * scale}

    return ClosedForms(
        basis=[
            {"w": 1.0},
            {"a": 1.0 / math.sqrt(m), "b": 1.0 / math.sqrt(m)},
            row((m - 2) / m, 1.0, 0.0, 0.0, math.sqrt(m) / math.sqrt((m - 1) * q)),
            row(2 * (m - 2) / q, -((m - 2) ** 2) / q, -2.0, -1.0,
                math.sqrt(q) / math.sqrt((m - 1) * r)),
            row(-4 * (m - 2), 2 * (m - 2) ** 2, -m * m * (m - 2), 2 * q,
                1.0 / (m * math.sqrt((m - 1) * (m - 2) * r))),
        ],
        diag=[
            float(m),
            (3 * m - 2) / m,
            (m**4 - 2 * m**3 + 4 * m * m - 4 * m + 8) / (m * q),
            m * (m**4 - 2 * m**3 + 20 * m * m - 40 * m + 64) / (r * q),
            (m + 2) * (m**3 - 4 * m + 8) / r,
        ],
        off=[
            -math.sqrt(m),
            -math.sqrt((m - 1) * q) / m,
            math.sqrt(m * r) / q,
            m * (m + 2) * math.sqrt((m - 2) * q) / r,
        ],
        localized={
            "a": (m * m - 2) / (m * m * (m - 1)),
            "b": (m * m - 2 * m + 2) / (m * m),
            "cd": 2.0 / (m * m),
            "e": 1.0 / (m - 1),
            "f": (m * m - 2 * m + 4) / (m * m * (m - 1) * (m - 2)),
        },
        pairs={
            ("a", "b"): lambda cos: (m * (m * m - 2 * m + 4) - 4 + 4 * (m - 1) * cos) / den,
            ("a", "cd"): lambda cos: (m * m + 2 * m - 4 + 2 * (m - 2) * cos) / den,
            ("a", "e"): lambda cos: 1.0 / m + 1.0 / (m * m),
            ("a", "f"): lambda cos: (m * (m * m - m - 4) + 8 - 4 * (m - 2) * cos) / den2,
            ("b", "cd"): lambda cos: (m * m - 2 * m + 4 - 2 * (m - 2) * cos) / (2.0 * m * m),
            ("b", "e"): lambda cos: 1.0 / (m * m) - 1.0 / m + m / (2.0 * (m - 1)),
            ("b", "f"): lambda cos: (m * (m**3 - 5 * m * m + 11 * m - 12) + 8) / den2
            + 2.0 * cos / (m * m),
            ("cd", "e"): lambda cos: 1.0 / (m * m) + 1.0 / (2.0 * (m - 1)),
            ("cd", "f"): lambda cos: (3 * m * m - 8 * m + 8 + 2 * (m - 2) ** 2 * cos) / den2,
            ("e", "f"): lambda cos: 1.0 / (m * m) + 1.0 / m - 1.0 / (m - 1)
            + 1.0 / (2.0 * (m - 2)),
        },
        aliases={part: label for label, parts in MERGED_CLASSES.items() for part in parts},
        algebraic_connectivity=1.0,
    )


# Spec class -> its closed forms: the one place each family's formulas live,
# the SRG parameters (n, k, lam, mu) among them.
CLOSED_FORMS: dict[type, Callable[..., ClosedForms]] = {
    Complete: _complete,
    CompleteBipartite: _complete_bipartite,
    PaleyPrime: lambda s: _strongly_regular(
        s.p, (s.p - 1) // 2, (s.p - 5) // 4, (s.p - 1) // 4, (s.p - math.sqrt(s.p)) / 2.0
    ),
    Petersen: lambda s: _strongly_regular(10, 3, 0, 1),
    Rook: lambda s: _strongly_regular(s.n * s.n, 2 * (s.n - 1), s.n - 2, 2),
    JoinedComplete: _joined_complete,
    Simplex: _simplex,
}


def closed_forms(spec: FamilySpec) -> ClosedForms:
    """Every closed form the paper gives for this family instance."""
    entry = CLOSED_FORMS.get(type(spec))
    return ClosedForms() if entry is None else entry(spec)


def closed_form_basis(spec: FamilySpec) -> SubspaceBasis:
    """The paper's invariant-subspace basis: its amplitude rows spread over
    the vertices of ``build(spec)`` by class label."""
    forms = closed_forms(spec)
    if forms.basis is None:
        raise UnsupportedCaseError(f"no closed-form basis for {spec!r}")
    labels = build(spec).classes
    return SubspaceBasis(np.array([[row.get(c, 0.0) for c in labels] for row in forms.basis]))


def closed_form_reduced_hamiltonian(spec: FamilySpec, kappa: float) -> np.ndarray:
    """The paper's tridiagonal reduced Hamiltonian, ``diag`` and ``off`` of
    :func:`closed_forms`, with -i*kappa at entry (0, 0)."""
    forms = closed_forms(spec)
    if forms.diag is None:
        raise UnsupportedCaseError(f"no closed-form reduced Hamiltonian for {spec!r}")
    h = np.diag(forms.diag) + np.diag(forms.off, 1) + np.diag(forms.off, -1)
    return _trapped_hamiltonian(h, kappa)
