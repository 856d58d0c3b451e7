"""Invariant-subspace reduction of walk Hamiltonians.

Starting from the trap vertex, repeatedly applying the Laplacian and
orthonormalizing spans the smallest subspace that is invariant under the
walk and contains the trap. The trap term -i*kappa |w><w| maps everything
into span{|w>}, so seeding with |w> makes the L-generated and H-generated
subspaces identical and the construction can stay in real arithmetic.
In this basis the Hamiltonian is tridiagonal, with -i*kappa added at the
top-left entry only.

Each family with a known analytic basis also gets a closed-form
construction (:func:`closed_form_basis`,
:func:`closed_form_reduced_hamiltonian`) that serves as an independent
reference for the iterative one.

Sign convention: every basis vector is flipped, when needed, so that its
first nonzero component (lowest vertex index) is positive. This makes
entrywise matrix comparisons deterministic. The closed-form reduced
matrices apply the same gauge, which can flip the sign of an off-diagonal
entry relative to the raw analytic form (it does, for the simplex entry
(4,5)); the diagonal and all magnitudes are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (
    CompleteBipartite,
    FamilySpec,
    Graph,
    JoinedComplete,
    Simplex,
    build,
    laplacian,
    srg_parameters,
)
from .numerics import orthonormalize_against


class UnsupportedFamilyError(ValueError):
    """No closed-form basis is available for the requested family."""


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

    @property
    def ambient(self) -> int:
        return self.vectors.shape[1]

    def projector(self) -> np.ndarray:
        return self.vectors.T @ self.vectors

    def overlap(self, psi: np.ndarray) -> float:
        """Total squared overlap of a state with the subspace."""
        amps = self.vectors @ np.asarray(psi, dtype=complex)
        return float(np.sum(np.abs(amps) ** 2))


def _sign(v: np.ndarray) -> float:
    """Sign of the first non-negligible component of `v`; ``_sign(v) * v``
    applies the basis sign convention."""
    nz = np.flatnonzero(np.abs(v) > 1e-12 * float(np.max(np.abs(v))))
    return -1.0 if nz.size and v[nz[0]] < 0 else 1.0


def krylov_basis(g: Graph, w: int = 0, tol: float = 1e-10) -> SubspaceBasis:
    """Iterative orthonormal basis of the walk-invariant subspace seeded at w.

    Applies the Laplacian to the newest basis vector and orthonormalizes
    against all previous ones; stops at the first linear dependence.
    """
    if not 0 <= w < g.n:
        raise ValueError(f"vertex {w} out of range")
    l = laplacian(g)
    e1 = np.zeros(g.n)
    e1[w] = 1.0
    vectors = [e1]
    while len(vectors) <= g.n:
        nxt = orthonormalize_against(l @ vectors[-1], np.asarray(vectors), tol)
        if nxt is None:
            break
        vectors.append(_sign(nxt) * nxt)
    return SubspaceBasis(np.asarray(vectors))


@dataclass(frozen=True)
class ReducedHamiltonian:
    """Walk Hamiltonian projected onto a subspace basis; ``matrix[0, 0]``
    carries the -i*kappa trap term (the basis must start with |w>)."""

    matrix: np.ndarray
    kappa: float


def reduced_hamiltonian(
    basis: SubspaceBasis, g: Graph, kappa: float
) -> ReducedHamiltonian:
    """Project the trapped Hamiltonian L - i*kappa |w><w| onto `basis`."""
    if basis.ambient != g.n:
        raise ValueError(
            f"basis ambient dimension {basis.ambient} does not match graph order {g.n}"
        )
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    h = (basis.vectors @ laplacian(g) @ basis.vectors.T).astype(complex)
    h[0, 0] += -1j * kappa
    return ReducedHamiltonian(matrix=h, kappa=kappa)


# --- closed-form references ------------------------------------------------------


def _srg_closed_form_vectors(g: Graph, n: int, k: int) -> list[np.ndarray]:
    adj = g.adjacency
    e1 = np.zeros(n)
    e1[0] = 1.0
    e2 = adj[0] / math.sqrt(k)
    e3 = np.where(adj[0] > 0, 0.0, 1.0) / math.sqrt(n - k - 1)
    e3[0] = 0.0
    return [e1, e2, e3]


def _closed_form_vectors(spec: FamilySpec) -> list[np.ndarray]:
    """Analytic basis vectors in their raw (un-gauged) sign choice."""
    if isinstance(spec, CompleteBipartite):
        n1, n2 = spec.n1, spec.n2
        if n1 < 2:
            raise UnsupportedFamilyError(
                "closed-form bipartite basis needs at least 2 trap-side vertices"
            )
        n = n1 + n2
        e1 = np.zeros(n)
        e1[0] = 1.0
        e2 = np.zeros(n)
        e2[n1:] = 1.0 / math.sqrt(n2)
        e3 = np.zeros(n)
        e3[1:n1] = 1.0 / math.sqrt(n1 - 1)
        return [e1, e2, e3]

    if (params := srg_parameters(spec)) is not None:
        return _srg_closed_form_vectors(build(spec), params.n, params.k)

    if isinstance(spec, JoinedComplete):
        half = spec.half
        n = 2 * half
        a = slice(1, half - 1)
        b1, b2 = half - 1, half
        c = slice(half + 1, n)
        e1 = np.zeros(n)
        e1[0] = 1.0
        e2 = np.zeros(n)
        e2[a] = 1.0
        e2[b1] = 1.0
        e2 /= math.sqrt(half - 1)
        e3 = np.zeros(n)
        e3[a] = 1.0
        e3[b1] = -(half - 2)
        e3[b2] = half - 1
        e3 /= math.sqrt((n - 3) * (half - 1))
        e4 = np.zeros(n)
        e4[a] = 1.0
        e4[b1] = e4[b2] = -(half - 2)
        e4[c] = -(n - 3)
        e4 /= math.sqrt((n - 3) * (n * (half - 2) + 1))
        return [e1, e2, e3, e4]

    if isinstance(spec, Simplex):
        m = spec.m
        if m < 3:
            raise UnsupportedFamilyError(
                "closed-form simplex basis needs m >= 3 (five distinct vertex roles)"
            )
        g = build(spec)
        n = g.n
        assert g.classes is not None
        sel = {
            label: np.array([1.0 if g.classes[v] == label else 0.0 for v in range(n)])
            for label in ("a", "b", "c", "d", "e", "f")
        }
        a, b = sel["a"], sel["b"]
        cd = sel["c"] + sel["d"]
        ve, vf = sel["e"], sel["f"]
        q = m * m - 2 * m + 4
        r = m**3 + 2 * m * m - 8 * m + 16
        e1 = np.zeros(n)
        e1[0] = 1.0
        e2 = (a + b) / math.sqrt(m)
        e3 = ((m - 2) / m * (a - (m - 1) * b) + cd) * (
            math.sqrt(m) / math.sqrt((m - 1) * q)
        )
        e4 = (
            2 * (m - 2) / q * (a - (m - 1) * b) - (m - 2) ** 2 / q * cd - 2 * ve - vf
        ) * (math.sqrt(q) / math.sqrt((m - 1) * r))
        e5 = (
            -4 * (m - 2) * (a - (m - 1) * b)
            + 2 * (m - 2) ** 2 * cd
            - m * m * (m - 2) * ve
            + 2 * q * vf
        ) / (m * math.sqrt((m - 1) * (m - 2) * r))
        return [e1, e2, e3, e4, e5]

    raise UnsupportedFamilyError(f"no closed-form basis for {spec!r}")


def closed_form_basis(spec: FamilySpec) -> SubspaceBasis:
    """Analytic invariant-subspace basis, gauged by the sign convention."""
    return SubspaceBasis(np.asarray([_sign(v) * v for v in _closed_form_vectors(spec)]))


def _closed_form_tridiagonal(spec: FamilySpec) -> tuple[list[float], list[float]]:
    """Raw analytic diagonal and superdiagonal of the reduced Hamiltonian."""
    if isinstance(spec, CompleteBipartite):
        n1, n2 = spec.n1, spec.n2
        if n1 < 2:
            raise UnsupportedFamilyError(
                "closed-form bipartite form needs at least 2 trap-side vertices"
            )
        diag = [float(n2), float(n1), float(n2)]
        off = [-math.sqrt(n2), -math.sqrt(n2 * (n1 - 1))]
        return diag, off

    if (params := srg_parameters(spec)) is not None:
        k, lam, mu = params.k, params.lam, params.mu
        diag = [float(k), float(k - lam), float(mu)]
        off = [-math.sqrt(k), -math.sqrt(mu * (k - lam - 1))]
        return diag, off

    if isinstance(spec, JoinedComplete):
        n = 2 * spec.half
        h = spec.half
        diag = [
            float(h - 1),
            n / (n - 2),
            (n * n / 2 - 7 + 1 / (h - 1)) / (n - 3),
            (h - 1) / (n - 3),
        ]
        off = [
            -math.sqrt(h - 1),
            -math.sqrt(n - 3) / (h - 1),
            math.sqrt((h - 1) * (n * (h - 2) + 1)) / (n - 3),
        ]
        return diag, off

    if isinstance(spec, Simplex):
        m = spec.m
        if m < 3:
            raise UnsupportedFamilyError(
                "closed-form simplex form needs m >= 3 (five distinct vertex roles)"
            )
        q = m * m - 2 * m + 4
        r = m**3 + 2 * m * m - 8 * m + 16
        diag = [
            float(m),
            (3 * m - 2) / m,
            (m**4 - 2 * m**3 + 4 * m * m - 4 * m + 8) / (m * q),
            m * (m**4 - 2 * m**3 + 20 * m * m - 40 * m + 64) / (r * q),
            (m + 2) * (m**3 - 4 * m + 8) / r,
        ]
        off = [
            -math.sqrt(m),
            -math.sqrt((m - 1) * q) / m,
            math.sqrt(m * r) / q,
            m * (m + 2) * math.sqrt((m - 2) * q) / r,
        ]
        return diag, off

    raise UnsupportedFamilyError(f"no closed-form reduced Hamiltonian for {spec!r}")


def closed_form_reduced_hamiltonian(spec: FamilySpec, kappa: float) -> np.ndarray:
    """Analytic reduced Hamiltonian, gauged by the basis sign convention.

    Off-diagonal entry (k, k+1) picks up the product of the sign flips the
    convention applies to the k-th and (k+1)-th analytic basis vectors.
    """
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    diag, off = _closed_form_tridiagonal(spec)
    signs = [_sign(v) for v in _closed_form_vectors(spec)]
    m = len(diag)
    h = np.zeros((m, m), dtype=complex)
    for i in range(m):
        h[i, i] = diag[i]
    for i in range(m - 1):
        h[i, i + 1] = h[i + 1, i] = off[i] * signs[i] * signs[i + 1]
    h[0, 0] += -1j * kappa
    return h


def subspace_equal(b1: SubspaceBasis, b2: SubspaceBasis, tol: float = 1e-9) -> bool:
    """True iff the two bases span the same subspace: equal dimension and
    projector Frobenius distance within `tol`."""
    if b1.ambient != b2.ambient:
        raise ValueError("bases live in different ambient dimensions")
    if b1.m != b2.m:
        return False
    return float(np.linalg.norm(b1.projector() - b2.projector())) <= tol
