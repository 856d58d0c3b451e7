"""Dense numerical kernels.

Four primitives back everything else in the package:

* :func:`sym_eig` -- full eigendecomposition of a real symmetric matrix by
  cyclic Jacobi rotations (guaranteed orthonormal vectors at desk scale);
* :func:`orthonormalize_against` -- tolerance-aware Gram-Schmidt step used
  by the invariant-subspace construction;
* :func:`evolve_trapped` -- fixed-step RK4 integration of the lossy
  Schrodinger equation i d/dt psi = (L - i*kappa |w><w|) psi, accumulating
  the absorbed probability 2*kappa*|<w|psi>|^2 dt by the trapezoid rule.
  The equation is linear, so one RK4 step is one precomputed matrix P; the
  trap amplitudes of up to 1024 consecutive steps come from one product
  with the precomputed rows <w|P^j, and a step size outside the RK4
  stability region is rejected;
* :func:`decay_horizon` -- the time by which every decaying mode of
  L - i*kappa |w><w| has lost all but 1e-8 of its weight, from the dense
  eigenvalues.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

_JACOBI_SWEEP_LIMIT = 60
_JACOBI_OFF_TOL = 1e-12  # relative to ||A||_F


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order; column k of ``vectors`` pairs with
    ``values[k]``."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(a: np.ndarray, symmetry_tol: float = 1e-12) -> EigenSystem:
    """Full spectrum of a real symmetric matrix via cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below
    1e-12 * ||A||_F. Raises ValueError if the input is not symmetric
    within `symmetry_tol` (relative to the largest entry).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.T))) > symmetry_tol * scale:
        raise ValueError("matrix is not symmetric")

    n = a.shape[0]
    m = (a + a.T) / 2.0
    v = np.eye(n)
    fro = float(np.linalg.norm(m))
    if n == 1 or fro == 0.0:
        return EigenSystem(values=np.diag(m).copy(), vectors=v)

    for _ in range(_JACOBI_SWEEP_LIMIT):
        hollow = m.copy()
        np.fill_diagonal(hollow, 0.0)
        if float(np.linalg.norm(hollow)) <= _JACOBI_OFF_TOL * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-30 * fro:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                mp, mq = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * mp - s * mq
                m[:, q] = s * mp + c * mq
                mp, mq = m[p, :].copy(), m[q, :].copy()
                m[p, :] = c * mp - s * mq
                m[q, :] = s * mp + c * mq
                m[p, q] = m[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise ArithmeticError("Jacobi iteration did not converge")

    values = np.diag(m).copy()
    order = np.argsort(values, kind="stable")
    return EigenSystem(values=values[order], vectors=v[:, order])


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
    """The RK4 step size lies outside the method's stability region."""


# Taylor coefficients of the classical RK4 stability polynomial R: one step
# of psi' = G psi is psi <- R(dt*G) psi exactly.
_RK4_TAYLOR = (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0)
_STABILITY_SLACK = 1e-12
_MAX_BLOCK = 1024  # trap-amplitude rows precomputed per call
_HORIZON_SURVIVAL = 1e-8
_DARK_RATE_TOL = 1e-9  # relative to max(1, ||H||_F)


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
    the dense H that decay; rates at or below 1e-9 * max(1, ||H||_F) belong
    to dark modes, which never reach the trap. Raises ValueError when no
    mode decays.
    """
    h = _trapped_hamiltonian(l, w, kappa)
    rates = -np.linalg.eigvals(h).imag
    decaying = rates[rates > _DARK_RATE_TOL * max(1.0, float(np.linalg.norm(h)))]
    if decaying.size == 0:
        raise ValueError("no mode decays: the trap never absorbs")
    return math.log(1.0 / _HORIZON_SURVIVAL) / (2.0 * float(decaying.min()))


def evolve_trapped(
    l: np.ndarray,
    w: int,
    kappa: float,
    psi0: np.ndarray,
    dt: float = 1e-3,
    t_max: float = 500.0,
    stop_tol: float | None = 1e-6,
    max_samples: int = 512,
) -> TrappedEvolution:
    """Integrate the trapped walk with classical fixed-step RK4.

    The right-hand side is G psi with G = -i (L - i*kappa |w><w|). The
    absorbed probability accumulates 2*kappa*|<w|psi>|^2 dt by the trapezoid
    rule over every step, so absorbed + ||psi||^2 stays within integration
    error of 1.

    Each RK4 step is applied as the matrix P = sum_{k<=4} (dt*G)^k / k!,
    which equals the four-stage update exactly. Between two sample points
    the trap amplitudes of up to 1024 steps come from one product with the
    precomputed rows <w|P^j, and psi jumps to the block end with P^b.
    Raises UnstableStepError when the spectral radius of P exceeds
    1 + 1e-12, that is when `dt` lies outside the RK4 stability region.

    Samples are taken every ``t_max / dt // max_samples`` steps and at the
    last step. When `stop_tol` is set, integration stops once the absorbed
    probability grew by less than `stop_tol` over the trailing 10% of
    elapsed time (checked at sample points, and only after any absorption
    has actually happened); this leaves kappa = 0 runs, and runs from states
    the trap never sees, to complete the full horizon.
    """
    h = _trapped_hamiltonian(l, w, kappa)
    n = h.shape[0]
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if not (dt > 0 and t_max > 0 and math.isfinite(t_max / dt)):
        raise ValueError("dt and t_max must be positive, with a finite ratio")
    psi = np.asarray(psi0, dtype=complex).reshape(n).copy()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")

    z = -1j * dt * h  # dt * G
    eye = np.eye(n, dtype=complex)
    step = np.zeros_like(z)
    for c in reversed(_RK4_TAYLOR):
        step = z @ step + c * eye
    radius = float(np.max(np.abs(np.linalg.eigvals(step))))
    if radius > 1.0 + _STABILITY_SLACK:
        raise UnstableStepError(
            f"dt={dt:g} is outside the RK4 stability region: the one-step "
            f"matrix has spectral radius {radius:.6g} > 1"
        )

    nsteps = int(round(t_max / dt))
    stride = max(1, nsteps // max_samples)
    block = min(stride, _MAX_BLOCK)
    # rows[j] = <w| P^(j+1), filled by doubling: rows[k:2k] = rows[:k] P^k
    rows = np.empty((block, n), dtype=complex)
    rows[0] = step[w]
    k, power = 1, step
    while k < block:
        m = min(k, block - k)
        np.matmul(rows[:m], power, out=rows[k : k + m])
        k, power = k + m, power @ power
    jumps: dict[int, np.ndarray] = {}

    absorbed = 0.0
    f_prev = 2.0 * kappa * abs(psi[w]) ** 2
    times = [0.0]
    norm_sq = [float(np.linalg.norm(psi) ** 2)]
    absorbed_at = [0.0]
    done = 0

    while done < nsteps:
        b = min(block, stride - done % stride, nsteps - done)
        flux = 2.0 * kappa * np.abs(rows[:b] @ psi) ** 2
        absorbed += 0.5 * dt * (f_prev + 2.0 * float(np.sum(flux[:-1])) + flux[-1])
        f_prev = flux[-1]
        if b not in jumps:
            jumps[b] = np.linalg.matrix_power(step, b)
        psi = jumps[b] @ psi
        done += b
        if done % stride == 0 or done == nsteps:
            t = done * dt
            times.append(t)
            norm_sq.append(float(np.linalg.norm(psi) ** 2))
            absorbed_at.append(absorbed)
            if stop_tol is not None and absorbed > stop_tol:
                i = bisect_left(times, 0.9 * t)
                if i < len(absorbed_at) - 1 and absorbed - absorbed_at[i] < stop_tol:
                    break

    return TrappedEvolution(
        psi=psi,
        absorbed=absorbed,
        t_final=done * dt,
        times=np.asarray(times),
        norm_sq=np.asarray(norm_sq),
        absorbed_at=np.asarray(absorbed_at),
    )
