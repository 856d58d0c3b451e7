"""Dense numerical kernels.

Seven primitives back everything else in the package. The trap is vertex 0,
where every graph builder puts it, so the trap projector is |0><0|.

* :func:`sym_eig` -- full eigendecomposition of a real symmetric matrix,
  or of a stack of them (LAPACK ``eigh``, ascending values, orthonormal
  vectors), and :func:`sym_eigvals`, its values alone;
* :func:`orthonormalize_against` -- tolerance-aware Gram-Schmidt step;
* :func:`krylov_vectors` -- the invariant-subspace construction built on
  it: the orthonormal Krylov rows of a symmetric matrix seeded at |0>;
* :func:`evolve_trapped` -- fixed-step RK4 integration of the lossy
  Schrodinger equation i d/dt psi = (L - i*kappa |0><0|) psi, accumulating
  the absorbed probability 2*kappa*|<0|psi>|^2 dt by the trapezoid rule
  with its Euler-Maclaurin end term. A run takes every step up to t_max
  and returns its end state. The equation is linear, so one RK4 step is one
  precomputed matrix P: binary doubling over the bits of the step count N
  builds P^N - I, and the flux and the norm lost summed over all N steps
  as quadratic forms, in O(log N) matrix products; a step size outside the
  RK4 stability region, or one that needs more than 2^40 steps, is
  rejected;
* :func:`rk4_step` -- the step for a run of a given length, from kappa
  and the Gershgorin bound on the spectral radius of L;
* :func:`decay_horizon` -- the time by which every decaying mode of
  L - i*kappa |0><0| has lost all but 1e-8 of its weight, from the
  eigenvalues of H on the trap's Krylov space, where every mode decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_SYMMETRY_TOL = 1e-12
_KRYLOV_TOL = 1e-10  # relative residual at which a Krylov row counts as dependent


def _symmetric_part(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 for a real square matrix, or a stack of them, that is
    symmetric within 1e-12 relative to max(1, its largest entry); raises
    ValueError otherwise."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    at = np.swapaxes(a, -1, -2)
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    if np.any(np.abs(a - at).max(axis=(-2, -1), initial=0.0) > _SYMMETRY_TOL * scale):
        raise ValueError("matrix is not symmetric")
    return (a + at) / 2.0


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum ``(values, vectors)`` of a real symmetric matrix, or of
    each matrix in a stack of shape (..., n, n), in one LAPACK ``eigh`` call.

    Values come in ascending order, and column k of ``vectors`` is the
    orthonormal eigenvector of ``values[k]``; for a stack, ``values[k]`` and
    ``vectors[k]`` belong to ``a[k]``.
    Raises ValueError if the input is not square, or if any matrix is not
    symmetric within 1e-12 relative to max(1, its largest entry); the
    symmetric part is what gets decomposed.
    """
    return np.linalg.eigh(_symmetric_part(a))


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of :func:`sym_eig`, with the same checks,
    from LAPACK ``eigvalsh``, which forms no eigenvectors."""
    return np.linalg.eigvalsh(_symmetric_part(a))


def orthonormalize_against(
    v: np.ndarray, basis: np.ndarray, tol: float = _KRYLOV_TOL
) -> np.ndarray | None:
    """Project `v` against an orthonormal row set and normalize the residual.

    Returns the unit residual, or None when `v` is linearly dependent on the
    basis: residual norm below tol * ||v||. Projection runs twice to keep
    orthogonality near machine precision.
    """
    v = np.asarray(v, dtype=float)
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    norm_in = float(np.linalg.norm(v))
    if norm_in == 0.0:
        return None
    r = v.copy()
    if basis.size:
        for _ in range(2):
            r = r - basis.T @ (basis @ r)
    norm_out = float(np.linalg.norm(r))
    if norm_out < tol * norm_in:
        return None
    return r / norm_out


def krylov_vectors(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the smallest subspace that contains |0>
    and is invariant under the real symmetric matrix `a`: applies `a` to
    the newest row and orthonormalizes against all previous ones, stopping
    at the first linear dependence: a residual below 1e-10 of the largest
    ||a v_k|| so far. That is a lower bound on ||a||_2, the scale of the
    roundoff in a v_k, which ||a v_k|| itself can fall far below. Row k+1
    is the normalized Lanczos residual of a v_k, so `a` reduced to the rows
    is tridiagonal with positive off-diagonal entries v_{k+1} . a v_k."""
    e1 = np.zeros(len(a))
    e1[0] = 1.0
    vectors = [e1]
    scale = 0.0
    while len(vectors) <= len(a):
        av = a @ vectors[-1]
        norm = float(np.linalg.norm(av))
        scale = max(scale, norm)
        if norm == 0.0:
            break
        nxt = orthonormalize_against(av, np.asarray(vectors), _KRYLOV_TOL * scale / norm)
        if nxt is None:
            break
        vectors.append(nxt)
    return np.asarray(vectors)


@dataclass(frozen=True)
class TrappedEvolution:
    """State at ``t_final``, the probability absorbed by then, and the norm
    lost by then, 1 - ||psi||^2, summed step by step."""

    psi: np.ndarray
    absorbed: float
    t_final: float
    lost: float


class UnstableStepError(ValueError):
    """The RK4 step size lies outside the method's stability region, or is
    so small that the horizon needs more than 2^40 steps, or too slow a
    decay leaves the horizon unresolved."""


# Taylor coefficients of the classical RK4 stability polynomial R: one step
# of psi' = G psi is psi <- R(dt*G) psi exactly.
_RK4_TAYLOR = (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0)
_STABILITY_SLACK = 1e-12
DEFAULT_DT = 1e-4  # the largest step rk4_step returns
_NORM_DRIFT = 1e-9  # bound on the RK4 norm drift over a whole run
_TRAP_STEP = 0.03  # bound on dt * kappa
# Just under 2^40 steps (K4 from class a, kappa=1, dt=3.44e-11, to the
# horizon) both routes read eta - 2.6e-9, as at dt=1e-4; larger counts are
# unmeasured, and near 2^53 the step count itself stops being exact.
_MAX_STEPS = 2**40
_HORIZON_SURVIVAL = 1e-8
# Relative to max(1, ||L||_F): the roundoff in the rates of the full n x n H
# that evolve_trapped integrates, whatever kappa is; real rates fall as
# 1/kappa at large kappa, so a bound that grows with kappa would hide them.
_DARK_RATE_TOL = 1e-12


def _trapped_hamiltonian(l: np.ndarray, kappa: float) -> np.ndarray:
    """L - i*kappa |0><0| as a dense complex matrix, for kappa >= 0."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    h = np.array(l, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("laplacian must be square")
    h[0, 0] -= 1j * kappa
    return h


def decay_horizon(h: np.ndarray, l: np.ndarray) -> float:
    """Time at which the slowest decaying mode of H = L - i*kappa |0><0|
    keeps 1e-8 of its weight: ln(1e8) / (2 * gamma_min), gamma_min being
    the smallest rate -Im(lambda) of `h`, H on the Krylov space of L at 0
    (:func:`~ctqw.reduction.reduced_hamiltonian`). H maps that space into
    itself, and every mode there reaches the trap. Raises UnstableStepError
    when gamma_min is no larger than the roundoff floor
    1e-12 * max(1, ||L||_F) of the full Laplacian `l`, as at extreme kappa.
    """
    rate = float(np.min(-np.linalg.eigvals(h).imag))
    floor = _DARK_RATE_TOL * max(1.0, float(np.linalg.norm(l)))
    if not rate > floor:
        raise UnstableStepError(
            "no decay horizon can be resolved: a mode that reaches the trap "
            f"decays no faster than the roundoff floor {floor:.3g}"
        )
    return math.log(1.0 / _HORIZON_SURVIVAL) / (2.0 * rate)


def rk4_step(l: np.ndarray, kappa: float, t_max: float) -> float:
    """RK4 step for a run of length `t_max > 0` at trap rate `kappa > 0`:
    min(DEFAULT_DT, 0.03 / kappa, (72e-9 / (t_max * rho^6))^(1/5)), where
    rho = 2 * max_i L_ii is the Gershgorin bound on the spectral radius of
    the Laplacian `l`.

    Per step RK4 loses about (dt * rho)^6 / 72 of |psi|^2, so T * dt^5 *
    rho^6 / 72 over a run of length T; the third term holds that under
    1e-9, and is left out when rho = 0: an edgeless L has no drift. The
    second keeps dt * kappa <= 0.03, where the trapezoid rule with its end
    term resolves the fast trap mode of a state that starts on the trap (K4
    from the trap lands within 1.1e-8 of eta for every kappa up to 1e4).
    """
    dt = min(DEFAULT_DT, _TRAP_STEP / kappa)
    rho = 2.0 * float(np.max(np.diag(l)))
    if rho == 0.0:
        return dt
    return min(dt, (72.0 * _NORM_DRIFT / (t_max * rho**6)) ** 0.2)


def evolve_trapped(
    l: np.ndarray,
    kappa: float,
    psi0: np.ndarray,
    dt: float,
    t_max: float,
) -> TrappedEvolution:
    """Integrate the trapped walk with classical fixed-step RK4 over all
    nsteps = round(t_max / dt) steps; there is no early stop, and a run of
    0 steps returns psi0 with nothing absorbed.

    The right-hand side is G psi with G = -i (L - i*kappa |0><0|). The
    absorbed probability accumulates the flux f = 2*kappa*|<0|psi>|^2 by
    the trapezoid rule over every step, plus the Euler-Maclaurin end term
    -dt^2/12 * (f'(t_final) - f'(0)), with
    f' = 4*kappa*Re(conj(psi_0) * (G psi)_0). The trapezoid rule alone errs
    by about (dt*kappa)^2 / 3 on a state that starts on the trap; with the
    end term, absorbed + ||psi||^2 stays within integration error of 1.

    Each RK4 step is applied as the matrix P = sum_{k<=4} (dt*G)^k / k!,
    which equals the four-stage update exactly. With Q = 2*kappa |0><0|, the
    flux summed over the first N steps is psi0^H S_N psi0, where
    S_N = sum_{j<N} (P^j)^H Q P^j. The norm lost over the same steps is
    psi0^H L_N psi0, where L_N = sum_{j<N} (P^j)^H (I - P^H P) P^j, a sum
    of one-step losses that, unlike 1 - ||P^N psi0||^2, keeps the
    roundoff of P^N - I from doubling with each level. The triple
    (P^N - I, S_N, L_N) is built by binary doubling over the bits of N,
    with S and L stacked, so a run costs O(log N) matrix products whatever
    its step count. Raises UnstableStepError when the spectral radius of P
    exceeds 1 + 1e-12, that is when `dt` lies outside the RK4 stability
    region, or when t_max / dt exceeds 2^40 steps.
    """
    h = _trapped_hamiltonian(l, kappa)
    n = h.shape[0]
    if not (dt > 0 and t_max > 0 and math.isfinite(t_max / dt)):
        raise ValueError("dt and t_max must be positive, with a finite ratio")
    if t_max / dt > _MAX_STEPS:
        raise UnstableStepError(
            f"dt={dt:g} needs {t_max / dt:.3g} steps to reach t_max={t_max:g}, "
            f"more than the cap of 2^40"
        )
    psi = np.asarray(psi0, dtype=complex).reshape(n)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")

    z = -1j * dt * h  # dt * G
    eye = np.eye(n, dtype=complex)
    delta = np.zeros_like(z)  # P - I
    for c in reversed(_RK4_TAYLOR[1:]):
        delta = z @ delta + c * eye
    delta = z @ delta
    radius = float(np.max(np.abs(np.linalg.eigvals(eye + delta))))
    if radius > 1.0 + _STABILITY_SLACK:
        raise UnstableStepError(
            f"dt={dt:g} is outside the RK4 stability region: the one-step "
            f"matrix has spectral radius {radius:.6g} > 1"
        )

    nsteps = int(round(t_max / dt))
    if nsteps == 0:
        return TrappedEvolution(psi=psi.copy(), absorbed=0.0, t_final=0.0, lost=0.0)
    # (P^a - I, [S_a, L_a]) from a = 1, over the bits of nsteps after the
    # leading one: each bit doubles a, X_2a = X_a + (P^a)^H X_a P^a for X
    # in S, L, and a set bit then adds a step, S_{a+1} = Q + P^H S_a P and
    # L_{a+1} = Lambda + P^H L_a P, with the one-step loss
    # Lambda = I - P^H P = -(D + D^H + D^H D), D = P - I. Powers are carried
    # as P^a - I, whose small entries keep their relative precision where
    # P^a itself would round them against the identity (about 2^40 * eps
    # after 2^40 steps).
    one_step = np.zeros((2, n, n), dtype=complex)  # [Q, Lambda]
    one_step[0, 0, 0] = 2.0 * kappa
    one_step[1] = -(delta + delta.conj().T + delta.conj().T @ delta)
    d, sums = delta, one_step
    for bit in bin(nsteps)[3:]:
        p = eye + d
        sums = sums + p.conj().T @ sums @ p
        d = 2.0 * d + d @ d
        if bit == "1":
            p = eye + delta
            sums = one_step + p.conj().T @ sums @ p
            d = d + delta + d @ delta

    ends = np.stack([psi, psi + d @ psi])
    flux = 2.0 * kappa * np.abs(ends[:, 0]) ** 2
    slope = 4.0 * kappa * (ends[:, 0].conj() * (ends @ z[0])).real  # dt * f'
    # trapezoid rule, dt * (f_0/2 + f_1 + ... + f_{N-1} + f_N/2), plus the
    # Euler-Maclaurin end term -dt^2/12 * (f'(t_N) - f'(0))
    flux_sum, lost = (psi.conj() @ sums @ psi).real
    absorbed = (
        dt * flux_sum
        + 0.5 * dt * (flux[1] - flux[0])
        - dt / 12.0 * (slope[1] - slope[0])
    )
    return TrappedEvolution(
        psi=ends[1], absorbed=float(absorbed), t_final=nsteps * dt, lost=float(lost)
    )
