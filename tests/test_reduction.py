import math

import numpy as np
import pytest

from ctqw import (
    Complete,
    CompleteBipartite,
    JoinedComplete,
    PaleyPrime,
    Petersen,
    Rook,
    Simplex,
    SubspaceBasis,
    UnsupportedCaseError,
    build,
    closed_form_basis,
    closed_form_reduced_hamiltonian,
    krylov_basis,
    laplacian,
    reduced_hamiltonian,
)

from ctqw.reduction import closed_forms

from _oracles import projector, row_signs, similarity_error, subspace_equal

CLOSED_FORM_SPECS = [
    CompleteBipartite(2, 2),
    CompleteBipartite(4, 3),
    CompleteBipartite(8, 4),
    CompleteBipartite(12, 6),
    PaleyPrime(13),
    PaleyPrime(17),
    Petersen(),
    Rook(3),
    JoinedComplete(2),
    JoinedComplete(3),
    JoinedComplete(6),
    JoinedComplete(9),
    Simplex(3),
    Simplex(4),
    Simplex(5),
    Simplex(6),
    # larger orders, up to N = 90
    CompleteBipartite(30, 30),
    PaleyPrime(29),
    Rook(4),
    JoinedComplete(15),
    Simplex(7),
    PaleyPrime(61),
    Rook(7),
    JoinedComplete(20),
    Simplex(8),
    Simplex(9),
    # the smallest instance of each shape: a path, two cycles
    CompleteBipartite(2, 1),
    PaleyPrime(5),
    Rook(2),
]


@pytest.mark.parametrize(
    "spec, m",
    [
        (CompleteBipartite(2, 2), 3),
        (CompleteBipartite(4, 3), 3),
        (CompleteBipartite(8, 4), 3),
        (CompleteBipartite(12, 6), 3),
        (PaleyPrime(13), 3),
        (PaleyPrime(17), 3),
        (Petersen(), 3),
        (Rook(3), 3),
        (JoinedComplete(2), 4),
        (JoinedComplete(3), 4),
        (JoinedComplete(6), 4),
        (JoinedComplete(9), 4),
        (Simplex(3), 5),
        (Simplex(4), 5),
        (Simplex(5), 5),
        (Simplex(6), 5),
        (Simplex(7), 5),
        (CompleteBipartite(30, 30), 3),
        (PaleyPrime(29), 3),
        (Rook(4), 3),
        (JoinedComplete(15), 4),
        (Complete(4), 2),
        (Complete(9), 2),
    ],
    ids=str,
)
def test_subspace_dimension(spec, m):
    assert krylov_basis(build(spec)).m == m


def test_simplex_m2_collapses_to_four_dimensions():
    # with two-vertex blocks the f role is empty and two roles merge, so the
    # hexagon walk lives in a 4-dimensional subspace
    assert krylov_basis(build(Simplex(2))).m == 4


def test_basis_starts_at_trap_and_off_diagonal_signs():
    for spec in CLOSED_FORM_SPECS:
        g = build(spec)
        basis = krylov_basis(g)
        e1 = np.zeros(g.n)
        e1[0] = 1.0
        assert np.array_equal(basis.vectors[0], e1)
        # Krylov rows are Lanczos residuals: tridiagonal, positive off-diagonals
        h = reduced_hamiltonian(basis, g, 1.0).real
        assert np.max(np.abs(np.triu(h, 2))) <= 1e-10
        assert np.all(np.diag(h, 1) > 0)
        # the closed form is the paper's matrix, signs and all
        analytic = closed_form_reduced_hamiltonian(spec, 1.0)
        assert list(np.diag(analytic, 1).real) == closed_forms(spec).off
        assert list(np.diag(analytic, -1).real) == closed_forms(spec).off
    off = np.diag(closed_form_reduced_hamiltonian(Simplex(5), 1.0), 1).real
    assert np.allclose(off, [-2.236, -1.744, 1.446, 1.75], atol=1e-3)


def test_basis_closure_under_laplacian():
    for spec in CLOSED_FORM_SPECS:
        g = build(spec)
        basis = krylov_basis(g)
        l = laplacian(g)
        p = projector(basis)
        last = basis.vectors[-1]
        image = l @ last
        assert np.linalg.norm(image - p @ image) <= 1e-9 * max(
            1.0, np.linalg.norm(image)
        )


def _krylov_in_paper_signs(spec):
    """The Krylov reduced Hamiltonian of `spec` at kappa = 1 and the signs
    that carry its basis rows onto the paper's, row by row within 1e-9."""
    g = build(spec)
    basis = krylov_basis(g)
    signs = row_signs(basis, closed_form_basis(spec))
    assert signs is not None
    return reduced_hamiltonian(basis, g, 1.0), signs


def test_reduced_cbg_8_4_matches_analytic_entries():
    h, signs = _krylov_in_paper_signs(CompleteBipartite(8, 4))
    expected = np.array(
        [
            [4.0 - 1.0j, -2.0, 0.0],
            [-2.0, 8.0, -math.sqrt(28.0)],
            [0.0, -math.sqrt(28.0), 4.0],
        ],
        dtype=complex,
    )
    assert similarity_error(h, expected, signs) <= 1e-9


def test_reduced_petersen_matches_analytic_entries():
    h, signs = _krylov_in_paper_signs(Petersen())
    expected = np.array(
        [
            [3.0 - 1.0j, -math.sqrt(3.0), 0.0],
            [-math.sqrt(3.0), 3.0, -math.sqrt(2.0)],
            [0.0, -math.sqrt(2.0), 1.0],
        ],
        dtype=complex,
    )
    assert similarity_error(h, expected, signs) <= 1e-9


def test_reduced_jcg_12_matches_analytic_entries():
    h, signs = _krylov_in_paper_signs(JoinedComplete(6))
    expected = np.array(
        [
            [5.0 - 1.0j, -math.sqrt(5.0), 0.0, 0.0],
            [-math.sqrt(5.0), 1.2, -0.6, 0.0],
            [0.0, -0.6, 65.2 / 9.0, math.sqrt(245.0) / 9.0],
            [0.0, 0.0, math.sqrt(245.0) / 9.0, 5.0 / 9.0],
        ],
        dtype=complex,
    )
    assert similarity_error(h, expected, signs) <= 1e-9


def test_reduced_simplex_3_diagonal():
    # diagonal derived two ways: numerically from the 12x12 Laplacian, and
    # by substituting m=3 into the analytic entry formulas
    g = build(Simplex(3))
    h = reduced_hamiltonian(krylov_basis(g), g, 0.0)
    expected_diag = [3.0, 7.0 / 3.0, 59.0 / 21.0, 453.0 / 259.0, 115.0 / 37.0]
    assert np.max(np.abs(np.diag(h) - expected_diag)) <= 1e-9
    assert np.max(np.abs(h.imag)) <= 1e-12


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=str)
def test_reduced_hamiltonian_shape_invariants(spec):
    g = build(spec)
    basis = krylov_basis(g)
    h = reduced_hamiltonian(basis, g, 1.5)
    m = basis.m
    for i in range(m):
        for j in range(m):
            if abs(i - j) > 1:
                assert abs(h[i, j]) <= 1e-10
    assert abs(h[0, 0].imag + 1.5) <= 1e-12
    off_diag_imag = np.abs(h.imag).copy()
    off_diag_imag[0, 0] = 0.0
    assert np.max(off_diag_imag) <= 1e-12
    assert np.max(np.abs(h.real - h.real.T)) <= 1e-12


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=str)
def test_reduced_spectrum_embeds_in_laplacian_spectrum(spec):
    g = build(spec)
    h = reduced_hamiltonian(krylov_basis(g), g, 0.0).real
    reduced_vals = np.linalg.eigvalsh(h)
    full_vals = np.linalg.eigvalsh(laplacian(g))
    for lam in reduced_vals:
        assert np.min(np.abs(full_vals - lam)) <= 1e-8


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=str)
def test_closed_form_basis_matches_iterative(spec):
    numeric = krylov_basis(build(spec))
    analytic = closed_form_basis(spec)
    assert subspace_equal(numeric, analytic, 1e-9)
    # the bases agree vector by vector, up to the sign of each
    assert row_signs(numeric, analytic, 1e-9) is not None


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=str)
def test_closed_form_reduced_matches_iterative(spec):
    numeric, signs = _krylov_in_paper_signs(spec)
    analytic = closed_form_reduced_hamiltonian(spec, 1.0)
    assert similarity_error(numeric, analytic, signs) <= 1e-9


def test_closed_form_basis_amplitudes():
    cbg = closed_form_basis(CompleteBipartite(8, 4))
    assert np.allclose(cbg.vectors[1][8:], 0.5)  # uniform over the far side
    jcg = closed_form_basis(JoinedComplete(6))
    assert np.allclose(jcg.vectors[1][1:6], 1 / math.sqrt(5))  # a and b1
    scg = closed_form_basis(Simplex(5))
    g = build(Simplex(5))
    support = sorted(g.class_vertices("a") + g.class_vertices("b"))
    assert np.allclose(scg.vectors[1][support], 1 / math.sqrt(5))
    off_support = [v for v in range(g.n) if v not in support and v != 0]
    assert np.max(np.abs(scg.vectors[1][off_support])) <= 1e-12


def test_closed_form_unsupported_families():
    with pytest.raises(UnsupportedCaseError):
        closed_form_basis(Complete(5))
    with pytest.raises(UnsupportedCaseError):
        closed_form_basis(Simplex(2))
    with pytest.raises(UnsupportedCaseError):
        closed_form_reduced_hamiltonian(Complete(5), 1.0)


def test_subspace_equal_behavior():
    basis = krylov_basis(build(CompleteBipartite(8, 4)))
    assert subspace_equal(basis, basis, 1e-12)
    # internal rotation of the non-trap vectors spans the same subspace
    angle = 0.7
    rot = np.array(
        [
            [1, 0, 0],
            [0, math.cos(angle), -math.sin(angle)],
            [0, math.sin(angle), math.cos(angle)],
        ]
    )
    rotated = SubspaceBasis(rot @ basis.vectors)
    assert subspace_equal(basis, rotated, 1e-12)
    smaller = SubspaceBasis(basis.vectors[:2])
    assert not subspace_equal(basis, smaller, 1e-12)
    with pytest.raises(ValueError):
        subspace_equal(basis, krylov_basis(build(Petersen())), 1e-9)


def test_reduced_hamiltonian_rejects_mismatch():
    basis = krylov_basis(build(CompleteBipartite(8, 4)))
    with pytest.raises(ValueError):
        reduced_hamiltonian(basis, build(Petersen()), 1.0)


def test_subspace_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        SubspaceBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        SubspaceBasis(np.array([[2.0, 0.0]]))


@pytest.mark.parametrize("skew, valid", [(1e-9, False), (1e-12, True)])
def test_subspace_basis_orthonormality_threshold(skew, valid):
    # the second row, still of unit norm, leans `skew` toward the first:
    # the Gram matrix is off by about `skew` against the 1e-10 tolerance
    vectors = np.array([[1.0, 0.0, 0.0], [math.sin(skew), math.cos(skew), 0.0]])
    if valid:
        assert SubspaceBasis(vectors).m == 2
    else:
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBasis(vectors)
