import itertools
import math

import numpy as np
import pytest

from ctqw import (
    UnstableStepError,
    decay_horizon,
    evolve_trapped,
    krylov_basis,
    laplacian,
    orthonormalize_against,
    reduced_hamiltonian,
    rk4_step,
    sym_eig,
)
from ctqw.graphs import (
    build_complete,
    build_complete_bipartite,
    build_joined_complete,
    build_paley_prime,
    build_petersen,
    build_rook,
    build_simplex,
)
from ctqw.numerics import DEFAULT_DT, sym_eigvals

from _oracles import (
    dense_decay_horizon,
    rk4_trapped_reference,
    symmetric_2x2_eigenvalues,
    symmetric_3x3_eigenvalues,
)


def test_sym_eig_identity():
    values, _ = sym_eig(np.eye(3))
    assert np.allclose(values, 1.0, atol=1e-14)


def test_sym_eig_k3_laplacian():
    values, _ = sym_eig(laplacian(build_complete(3)))
    assert np.allclose(values, [0.0, 3.0, 3.0], atol=1e-12)


def test_sym_eig_paley13_spectrum():
    values, _ = sym_eig(laplacian(build_paley_prime(13)))
    lo = (13 - np.sqrt(13)) / 2
    hi = (13 + np.sqrt(13)) / 2
    expected = np.concatenate([[0.0], np.full(6, lo), np.full(6, hi)])
    assert np.allclose(values, expected, atol=1e-9)


@pytest.mark.parametrize("n", [2, 5, 13, 40])
def test_sym_eig_reconstruction_and_orthogonality(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    values, vectors = sym_eig(a)
    recon = vectors @ np.diag(values) @ vectors.T
    assert np.linalg.norm(recon - a) <= 1e-9 * np.linalg.norm(a)
    gram = vectors.T @ vectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
    assert np.all(np.diff(values) >= -1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        sym_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        sym_eig(np.zeros(3))


def test_sym_eig_stack_matches_one_call_per_matrix():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 5, 5))
    stack = a + np.swapaxes(a, -1, -2)
    values, vectors = sym_eig(stack)
    assert values.shape == (2, 3, 5) and vectors.shape == (2, 3, 5, 5)
    for idx in np.ndindex(2, 3):
        assert np.allclose(values[idx], sym_eig(stack[idx])[0], atol=1e-12)
        recon = vectors[idx] @ np.diag(values[idx]) @ vectors[idx].T
        assert np.allclose(recon, stack[idx], atol=1e-12)


def test_sym_eig_stack_takes_the_scale_per_matrix():
    # an asymmetry of 1e-9 passes beside entries of 1e4 (tolerance 1e-8)
    # but not in a unit matrix (tolerance 1e-12), whatever else the stack holds
    big = np.array([[1e4, 1.0], [1.0 + 1e-9, 1e4]])
    small = np.array([[1.0, 0.0], [1e-9, 1.0]])
    sym_eig(np.stack([big, np.eye(2)]))
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(np.stack([big, small]))


def test_sym_eig_matches_quadratic_roots_exhaustively():
    span = range(-3, 4)
    for a, b, d in itertools.product(span, span, span):
        m = np.array([[a, b], [b, d]], dtype=float)
        got, _ = sym_eig(m)
        want = symmetric_2x2_eigenvalues(a, b, d)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_sym_eig_matches_cubic_roots_exhaustively():
    # all symmetric 3x3 integer matrices with entries in [-3, 3]
    upper = np.array(list(itertools.product(range(-3, 4), repeat=6)), dtype=float)
    stack = upper[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
    want = symmetric_3x3_eigenvalues(stack)
    got, _ = sym_eig(stack)
    err = np.max(np.abs(got - want), axis=1)
    assert np.max(err) <= 1e-9, stack[np.argmax(err)]


def test_sym_eigvals_matches_sym_eig_values():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 13, 40):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        assert np.allclose(sym_eigvals(a), sym_eig(a)[0], rtol=0, atol=1e-12)
    stack = np.stack([laplacian(build_petersen()), rng.standard_normal((10, 10))])
    stack[1] = stack[1] + stack[1].T
    assert np.allclose(sym_eigvals(stack), sym_eig(stack)[0], rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        sym_eigvals(np.zeros((2, 3)))


def test_orthonormalize_basic():
    e1 = np.array([1.0, 0.0, 0.0])
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    out = orthonormalize_against(v, np.array([e1]))
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)
    assert orthonormalize_against(e1, np.array([e1])) is None
    assert orthonormalize_against(np.zeros(3), np.array([e1])) is None


def test_orthonormalize_k3_second_vector():
    # by-hand Gram-Schmidt on the K3 Laplacian seeded at vertex 0:
    # L|0> = (2, -1, -1); subtracting the |0> component leaves (0, -1, -1),
    # which normalizes to (0, 1, 1)/sqrt(2) up to sign
    l = laplacian(build_complete(3))
    e1 = np.array([1.0, 0.0, 0.0])
    out = orthonormalize_against(l @ e1, np.array([e1]))
    expected = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    assert min(
        np.max(np.abs(out - expected)), np.max(np.abs(out + expected))
    ) <= 1e-12


def test_orthonormalize_respects_tolerance():
    e1 = np.array([1.0, 0.0])
    nearly = np.array([1.0, 1e-12])
    assert orthonormalize_against(nearly, np.array([e1]), tol=1e-10) is None
    out = orthonormalize_against(nearly, np.array([e1]), tol=1e-14)
    assert out is not None and abs(out[1] - 1.0) < 1e-9


def test_evolve_unitary_limit():
    l = laplacian(build_complete(3))
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    ev = evolve_trapped(l, 0.0, psi0, dt=1e-3, t_max=100.0)
    assert ev.t_final == pytest.approx(100.0)
    assert abs(np.linalg.norm(ev.psi) - 1.0) <= 1e-8
    assert ev.absorbed == 0.0


def test_evolve_k4_absorption():
    l = laplacian(build_complete(4))
    psi0 = np.zeros(4, dtype=complex)
    psi0[1] = 1.0
    ev = evolve_trapped(l, 1.0, psi0, dt=1e-3, t_max=500.0)
    assert abs(ev.absorbed - 1 / 3) <= 1e-2
    assert abs((1.0 - np.linalg.norm(ev.psi) ** 2) - 1 / 3) <= 1e-2


def test_evolve_from_trap_vertex():
    l = laplacian(build_complete(4))
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    ev = evolve_trapped(l, 1.0, psi0, dt=1e-3, t_max=500.0)
    assert abs(ev.absorbed - 1.0) <= 1e-2


def test_evolve_conservation_identity_at_every_sample():
    l = laplacian(build_paley_prime(5))
    psi0 = np.zeros(5, dtype=complex)
    psi0[2] = 1.0
    # 256 horizons spread evenly over the run, each integrated from t = 0
    runs = [evolve_trapped(l, 1.0, psi0, dt=1e-3, t_max=200.0 * k / 256) for k in range(1, 257)]
    err = [abs(ev.absorbed + np.linalg.norm(ev.psi) ** 2 - 1.0) for ev in runs]
    assert max(err) <= 1e-6


def test_evolve_norm_monotone_per_step():
    l = laplacian(build_complete(4))
    psi0 = np.zeros(4, dtype=complex)
    psi0[1] = 1.0
    # the norm after each of the first 250 steps, one run per horizon k * dt
    norms = [1.0] + [
        np.linalg.norm(evolve_trapped(l, 1.0, psi0, dt=0.02, t_max=0.02 * k).psi)
        for k in range(1, 251)
    ]
    assert np.all(np.diff(norms) <= 1e-12)


def test_evolve_rejects_bad_parameters():
    l = laplacian(build_complete(3))
    good = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        evolve_trapped(l, 1.0, good, dt=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        evolve_trapped(l, 1.0, good, dt=1e-3, t_max=-1.0)
    with pytest.raises(ValueError):
        evolve_trapped(l, -1.0, good, dt=1e-3, t_max=1.0)
    with pytest.raises(ValueError):
        evolve_trapped(l, 1.0, 2.0 * good, dt=1e-3, t_max=1.0)
    with pytest.raises(ValueError):
        evolve_trapped(l, 1.0, good, dt=1e-3, t_max=math.inf)
    with pytest.raises(UnstableStepError):
        evolve_trapped(l, 1.0, good, dt=2.0, t_max=10.0)


def _localized(n: int, v: int) -> np.ndarray:
    psi = np.zeros(n, dtype=complex)
    psi[v] = 1.0
    return psi


# (name, Laplacian, kappa, start vertex, evolve_trapped keywords). The
# doubling walks the bits of nsteps after the leading one, doubling at each
# bit and adding one step at each set bit; the cases cover those patterns.
EVOLVE_CASES = [
    # 250 = 0b11111010: a run of set bits, then alternating bits
    ("250 steps", laplacian(build_joined_complete(3)), 1.0, 1, dict(dt=0.02, t_max=5.0)),
    # 7777 = 0b1111001100001: set and zero bits mixed, ending on a set bit
    ("7777 steps", laplacian(build_petersen()), 0.7, 3, dict(dt=1e-3, t_max=7.777)),
    # 33576 = 0b1000001100101000: a run of five zero bits, ending on zeros
    ("33576 steps", laplacian(build_petersen()), 0.7, 3, dict(dt=1e-4, t_max=3.3576)),
    # the short edges: no step (t_max < dt/2 rounds to 0; psi0 comes back
    # with nothing absorbed), a leading bit alone (no doubling), one zero
    # bit and one set bit
    ("zero steps", laplacian(build_petersen()), 0.7, 3, dict(dt=0.1, t_max=0.04)),
    ("one step", laplacian(build_petersen()), 0.7, 3, dict(dt=0.1, t_max=0.1)),
    ("two steps", laplacian(build_petersen()), 0.7, 3, dict(dt=0.1, t_max=0.2)),
    ("three steps", laplacian(build_petersen()), 0.7, 3, dict(dt=0.1, t_max=0.3)),
    # 256 = 0b100000000, only zero bits; 511 = 0b111111111, only set bits;
    # 257 and 513 put a single set bit after a run of zeros
    ("256 steps", laplacian(build_petersen()), 0.7, 3, dict(dt=0.01, t_max=2.56)),
    ("257 steps", laplacian(build_petersen()), 0.7, 3, dict(dt=0.01, t_max=2.57)),
    ("511 steps", laplacian(build_petersen()), 0.7, 3, dict(dt=0.01, t_max=5.11)),
    ("513 steps", laplacian(build_petersen()), 0.7, 3, dict(dt=0.01, t_max=5.13)),
]


@pytest.mark.parametrize(
    "l, kappa, v, kwargs", [c[1:] for c in EVOLVE_CASES], ids=[c[0] for c in EVOLVE_CASES]
)
def test_evolve_matches_per_step_rk4(l, kappa, v, kwargs):
    psi0 = _localized(l.shape[0], v)
    ev = evolve_trapped(l, kappa, psi0, **kwargs)
    ref = rk4_trapped_reference(l, kappa, psi0, **kwargs)
    assert ev.t_final == ref["t_final"]
    assert abs(ev.absorbed - ref["absorbed"]) <= 1e-10
    assert np.max(np.abs(ev.psi - ref["psi"])) <= 1e-10
    # on runs this short P^N - I is exact enough that the one-step losses
    # summed by doubling and the end state's missing norm agree
    assert abs(ev.lost - (1.0 - np.linalg.norm(ev.psi) ** 2)) <= 1e-12


@pytest.mark.parametrize("factor, stable", [(1.0 + 1e-6, False), (1.0 - 1e-6, True)])
def test_rk4_stability_edge_on_k2(factor, stable):
    # K2 at kappa = 0 has spectrum {0, 2}: RK4 is stable for dt * 2 up to
    # 2 sqrt(2) on the imaginary axis, so the edge is dt = sqrt(2)
    l = laplacian(build_complete(2))
    dt = math.sqrt(2.0) * factor
    psi0 = np.array([0.0, 1.0], dtype=complex)
    if stable:
        ev = evolve_trapped(l, 0.0, psi0, dt=dt, t_max=10 * dt)
        assert 0.99 < np.linalg.norm(ev.psi) <= 1.0
    else:
        with pytest.raises(UnstableStepError, match="stability region"):
            evolve_trapped(l, 0.0, psi0, dt=dt, t_max=10 * dt)


def _horizon(g, kappa):
    """decay_horizon of the trap at vertex 0, from the reduced Hamiltonian."""
    return decay_horizon(reduced_hamiltonian(krylov_basis(g), g, kappa), laplacian(g))


@pytest.mark.parametrize("kappa", [0.5, 1.9, 2.5, 40.0])
def test_decay_horizon_two_vertices(kappa):
    # H = [[1 - i kappa, -1], [-1, 1]] has eigenvalues
    # 1 - i kappa/2 +- sqrt(1 - kappa^2/4)
    gamma = kappa / 2 - math.sqrt(max(0.0, kappa * kappa / 4 - 1))
    expected = math.log(1e8) / (2 * gamma)
    assert _horizon(build_complete(2), kappa) == pytest.approx(expected, rel=1e-9)


# the benchmark's oracle panel, one paper-scale instance per family
_ORACLE_PANEL = {
    "K8": build_complete(8),
    "CBG5+4": build_complete_bipartite(5, 4),
    "paley13": build_paley_prime(13),
    "petersen": build_petersen(),
    "rook4": build_rook(4),
    "JCG6": build_joined_complete(6),
    "simplex3": build_simplex(3),
}


@pytest.mark.parametrize("kappa", [0.1, 10.0])
@pytest.mark.parametrize("g", _ORACLE_PANEL.values(), ids=_ORACLE_PANEL.keys())
def test_rk4_step_keeps_the_default_on_the_oracle_panel(g, kappa):
    assert rk4_step(laplacian(g), kappa, _horizon(g, kappa)) == DEFAULT_DT


def test_rk4_step_bounds():
    l = laplacian(build_joined_complete(125))  # rho = 2 * 125
    t_max = 3.7e5
    dt = rk4_step(l, 1.0, t_max)
    assert t_max * dt**5 * 250.0**6 / 72 == pytest.approx(1e-9)
    assert rk4_step(laplacian(build_complete(4)), 1e4, 10.0) == pytest.approx(3e-6)


@pytest.mark.parametrize("kappa", [1e-13, 1e-12, 1e12, 1e16, 1e300])
@pytest.mark.parametrize(
    "g", [build_complete(4), build_joined_complete(6)], ids=["K4", "JCG6"]
)
def test_decay_horizon_rejects_modes_slower_than_roundoff(g, kappa):
    # a trap-visible mode decays at about kappa (small kappa) or 1/kappa
    # (large kappa), under the dark-mode cut in both cases
    with pytest.raises(UnstableStepError, match="roundoff"):
        _horizon(g, kappa)


# 60 log-spaced kappa over [1e-13, 1e16], past both edges where the slowest
# trap-visible rate meets the roundoff floor, plus 1e300
_KAPPA_GRID = [*np.logspace(-13.0, 16.0, 60), 1e300]


@pytest.mark.parametrize(
    "g", [*_ORACLE_PANEL.values(), build_complete(4)], ids=[*_ORACLE_PANEL, "K4"]
)
def test_decay_horizon_matches_the_dense_reference(g):
    # the reduced m x m H gives the dense n x n verdict at every kappa, and
    # the same horizon wherever both accept
    l, basis = laplacian(g), krylov_basis(g)
    verdicts = set()
    for kappa in _KAPPA_GRID:
        try:
            want = dense_decay_horizon(l, kappa)
        except UnstableStepError:
            want = None
        try:
            got = decay_horizon(reduced_hamiltonian(basis, g, kappa), l)
        except UnstableStepError:
            got = None
        assert (got is None) == (want is None), kappa
        if want is not None:
            assert got == pytest.approx(want, rel=1e-9), kappa
        verdicts.add(want is None)
    assert verdicts == {False, True}


def test_decay_horizon_needs_a_decaying_mode():
    with pytest.raises(ValueError):
        _horizon(build_complete(4), 0.0)
