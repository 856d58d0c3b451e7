"""Dense numerical kernels.

Five primitives back everything else in the package:

* :func:`sym_eig` -- full eigendecomposition of a real symmetric matrix,
  or of a stack of them (LAPACK ``eigh``, ascending values, orthonormal
  vectors);
* :func:`orthonormalize_against` -- tolerance-aware Gram-Schmidt step used
  by the invariant-subspace construction;
* :func:`evolve_trapped` -- fixed-step RK4 integration of the lossy
  Schrodinger equation i d/dt psi = (L - i*kappa |w><w|) psi, accumulating
  the absorbed probability 2*kappa*|<w|psi>|^2 dt by the trapezoid rule
  with its Euler-Maclaurin end term. A run takes every step up to t_max
  and keeps 256 samples. The equation is linear, so one RK4 step is one
  precomputed matrix P: one loop propagates the state from sample to
  sample with the matrix P^b - I, and one batched pass after it evaluates
  the flux summed over each sample interval as a quadratic form, both
  matrices built by binary doubling; a step size outside the RK4 stability
  region, or one that needs more than 2^40 steps, is rejected;
* :func:`rk4_step` -- the step for a run of a given length, from kappa
  and the Gershgorin bound on the spectral radius of L;
* :func:`decay_horizon` -- the time by which every decaying mode of
  L - i*kappa |w><w| has lost all but 1e-8 of its weight, from the dense
  eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order; column k of ``vectors`` pairs with
    ``values[k]``."""

    values: np.ndarray
    vectors: np.ndarray


_SYMMETRY_TOL = 1e-12


def sym_eig(a: np.ndarray) -> EigenSystem:
    """Full spectrum of a real symmetric matrix, or of each matrix in a stack
    of shape (..., n, n), in one LAPACK ``eigh`` call.

    Values come in ascending order with orthonormal eigenvector columns;
    for a stack, ``values[k]`` and ``vectors[k]`` belong to ``a[k]``.
    Raises ValueError if the input is not square, or if any matrix is not
    symmetric within 1e-12 relative to max(1, its largest entry); the
    symmetric part is what gets decomposed.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    at = np.swapaxes(a, -1, -2)
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    if np.any(np.abs(a - at).max(axis=(-2, -1), initial=0.0) > _SYMMETRY_TOL * scale):
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh((a + at) / 2.0)
    return EigenSystem(values=values, vectors=vectors)


def orthonormalize_against(
    v: np.ndarray, basis: np.ndarray, tol: float = 1e-10
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


@dataclass(frozen=True)
class TrappedEvolution:
    """Final state plus absorbed probability and sampled trajectory data.

    ``times``, ``norm_sq`` and ``absorbed_at`` hold samples taken along the
    integration (always including t = 0 and the final time), so callers can
    check norm monotonicity and the conservation identity
    absorbed(t) + ||psi(t)||^2 = 1 along the way.
    """

    psi: np.ndarray
    absorbed: float
    t_final: float
    times: np.ndarray
    norm_sq: np.ndarray
    absorbed_at: np.ndarray


class UnstableStepError(ValueError):
    """The RK4 step size lies outside the method's stability region, or is
    so small that the horizon needs more than 2^40 steps."""


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
_SAMPLES = 256  # sample intervals per run; a shorter run samples every step
_HORIZON_SURVIVAL = 1e-8
# Relative to max(1, ||L||_F). Dark-mode rates are roundoff, about
# eps * ||L||_F whatever kappa is; real rates fall as 1/kappa at large kappa,
# so a bound that grows with kappa would hide them.
_DARK_RATE_TOL = 1e-12


def _trapped_hamiltonian(l: np.ndarray, w: int, kappa: float) -> np.ndarray:
    """L - i*kappa |w><w| as a dense complex matrix."""
    h = np.array(l, dtype=complex)
    n = h.shape[0]
    if h.ndim != 2 or h.shape[1] != n:
        raise ValueError("laplacian must be square")
    if not 0 <= w < n:
        raise ValueError(f"trap vertex {w} out of range")
    h[w, w] -= 1j * kappa
    return h


def decay_horizon(l: np.ndarray, w: int, kappa: float) -> float:
    """Time at which the slowest decaying mode of H = L - i*kappa |w><w|
    keeps 1e-8 of its weight: ln(1e8) / (2 * gamma_min).

    gamma_min is the smallest decay rate -Im(lambda) over the eigenvalues of
    the dense H that decay; rates at or below 1e-12 * max(1, ||L||_F) belong
    to dark modes, which never reach the trap. Raises ValueError when no
    mode decays.
    """
    h = _trapped_hamiltonian(l, w, kappa)
    rates = -np.linalg.eigvals(h).imag
    decaying = rates[rates > _DARK_RATE_TOL * max(1.0, float(np.linalg.norm(h.real)))]
    if decaying.size == 0:
        raise ValueError("no mode decays: the trap never absorbs")
    return math.log(1.0 / _HORIZON_SURVIVAL) / (2.0 * float(decaying.min()))


def rk4_step(l: np.ndarray, kappa: float, t_max: float) -> float:
    """RK4 step for a run of length `t_max > 0` at trap rate `kappa > 0`:
    min(DEFAULT_DT, 0.03 / kappa, (72e-9 / (t_max * rho^6))^(1/5)), where
    rho = 2 * max_i L_ii > 0 is the Gershgorin bound on the spectral radius
    of the Laplacian `l`.

    Per step RK4 loses about (dt * rho)^6 / 72 of |psi|^2, so T * dt^5 *
    rho^6 / 72 over a run of length T; the third term holds that under
    1e-9. The second keeps dt * kappa <= 0.03, where the trapezoid rule
    with its end term resolves the fast trap mode of a state that starts on
    the trap (K4 from the trap lands within 1.1e-8 of eta for every kappa
    up to 1e4).
    """
    rho = 2.0 * float(np.max(np.diag(l)))
    drift_step = (72.0 * _NORM_DRIFT / (t_max * rho**6)) ** 0.2
    return min(DEFAULT_DT, _TRAP_STEP / kappa, drift_step)


def evolve_trapped(
    l: np.ndarray,
    w: int,
    kappa: float,
    psi0: np.ndarray,
    dt: float,
    t_max: float,
) -> TrappedEvolution:
    """Integrate the trapped walk with classical fixed-step RK4.

    The right-hand side is G psi with G = -i (L - i*kappa |w><w|). The
    absorbed probability accumulates the flux f = 2*kappa*|<w|psi>|^2 by
    the trapezoid rule over every step, and each sample adds the
    Euler-Maclaurin end term -dt^2/12 * (f'(t) - f'(0)), with
    f' = 4*kappa*Re(conj(psi_w) * (G psi)_w). The trapezoid rule alone errs
    by about (dt*kappa)^2 / 3 on a state that starts on the trap; with the
    end term, absorbed + ||psi||^2 stays within integration error of 1.

    Each RK4 step is applied as the matrix P = sum_{k<=4} (dt*G)^k / k!,
    which equals the four-stage update exactly. With Q = 2*kappa |w><w|, the
    flux summed over the b steps of one sample interval is psi^H S_b psi,
    where S_b = sum_{j<b} (P^j)^H Q P^j, psi being the state at the start
    of the interval. The pair (P^b - I, S_b) is built by binary doubling
    before the run, once for the stride and once for a shorter last
    interval. One loop then propagates the state over the intervals, one
    matrix-vector product each, and a single batched pass over the stacked
    samples evaluates every interval's quadratic form, so the run costs
    O(n^2) per sample whatever the step count. Raises UnstableStepError
    when the spectral radius of P exceeds 1 + 1e-12, that is when `dt` lies
    outside the RK4 stability region, or when t_max / dt exceeds 2^40
    steps.

    There is no early stop: the run takes all nsteps = round(t_max / dt)
    steps. Samples are taken every ``max(1, nsteps // 256)`` steps and at
    the last step, so a run of at most 256 steps records every step.
    """
    h = _trapped_hamiltonian(l, w, kappa)
    n = h.shape[0]
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if not (dt > 0 and t_max > 0 and math.isfinite(t_max / dt)):
        raise ValueError("dt and t_max must be positive, with a finite ratio")
    if t_max / dt > _MAX_STEPS:
        raise UnstableStepError(
            f"dt={dt:g} needs {t_max / dt:.3g} steps to reach t_max={t_max:g}, "
            f"more than the cap of 2^40"
        )
    psi = np.asarray(psi0, dtype=complex).reshape(n).copy()
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
    stride = max(1, nsteps // _SAMPLES)
    full, rest = divmod(nsteps, stride)
    q = np.zeros_like(z)
    q[w, w] = 2.0 * kappa
    jump, flux_sum = _flux_pair(delta, q, stride)

    states = [psi]
    for _ in range(full):
        psi = psi + jump @ psi
        states.append(psi)
    if rest:
        rest_jump, rest_sum = _flux_pair(delta, q, rest)
        psi = psi + rest_jump @ psi
        states.append(psi)
    samples = np.asarray(states)
    times = dt * np.minimum(stride * np.arange(len(states)), nsteps)

    # flux summed over the steps of each sample interval, psi_k^H S_b psi_k
    sums = np.zeros(len(states))
    head = samples[:full]
    sums[1 : full + 1] = np.einsum("ij,ij->i", head.conj(), head @ flux_sum.T).real
    if rest:
        sums[-1] = np.vdot(samples[full], rest_sum @ samples[full]).real
    flux = 2.0 * kappa * np.abs(samples[:, w]) ** 2
    slope = 4.0 * kappa * (samples[:, w].conj() * (samples @ z[w])).real  # dt * f'
    # trapezoid rule, dt * (f_0/2 + f_1 + ... + f_{k-1} + f_k/2), plus the
    # Euler-Maclaurin end term -dt^2/12 * (f'(t_k) - f'(0))
    absorbed_at = (
        dt * np.cumsum(sums) + 0.5 * dt * (flux - flux[0]) - dt / 12.0 * (slope - slope[0])
    )
    return TrappedEvolution(
        psi=psi,
        absorbed=float(absorbed_at[-1]),
        t_final=nsteps * dt,
        times=times,
        norm_sq=np.linalg.norm(samples, axis=1) ** 2,
        absorbed_at=absorbed_at,
    )


def _flux_pair(delta: np.ndarray, q: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(P^b - I, S_b) with S_b = sum_{j<b} (P^j)^H Q P^j, from delta = P - I
    by binary doubling over the bits of b: S_2a = S_a + (P^a)^H S_a P^a and
    S_{a+1} = Q + P^H S_a P. Powers are carried as P^a - I, whose small
    entries keep their relative precision where P^a itself would round them
    against the identity (about 2^40 * eps after 2^40 steps)."""
    eye = np.eye(len(q))
    d, total = delta, q
    for bit in bin(b)[3:]:
        p = eye + d
        total = total + p.conj().T @ total @ p
        d = 2.0 * d + d @ d
        if bit == "1":
            p = eye + delta
            total = q + p.conj().T @ total @ p
            d = d + delta + d @ delta
    return d, total
