import math

import numpy as np
import pytest

from haar_coherence.linalg import (EIG_CLAMP, _psd_root_spectrum, hermitian_eigvalsh,
                                   hermitian_part, partial_trace_b, sqrt_psd,
                                   swap_operator)
from haar_coherence.sampling import RngStream, haar_unitary_batch, hs_mixed_batch

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# 2x2 state with eigenvalues 0.2 and 0.8 in the |+>/|-> eigenbasis
TILTED = 0.5 * (np.eye(2) + 0.6 * SIGMA_X)


def random_hermitian(rng, n):
    g = rng.complex_normal(n * n).reshape(n, n)
    return hermitian_part(g)


def test_sqrt_psd_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_eig_reconstruction_and_unitarity(n):
    # the eigenpairs behind sqrt_psd: ascending roots, unitary vectors, rho rebuilt
    rng = RngStream(101, n)
    for _ in range(5):
        m = random_hermitian(rng, n)
        rho = hermitian_part(m @ m)
        root, vectors = _psd_root_spectrum(rho)
        assert np.all(np.diff(root) >= 0)
        recon = (vectors * root**2) @ vectors.conj().T
        assert np.linalg.norm(recon - rho) < 1e-10 * np.linalg.norm(rho)
        assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)) < 1e-10


def test_sqrt_psd_scalar_matrix():
    n = 4
    assert np.allclose(sqrt_psd(np.eye(n) / n), np.eye(n) / 2, atol=1e-14)


def test_sqrt_psd_diagonal():
    root = sqrt_psd(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(root, np.diag([0.5, math.sqrt(0.75)]), atol=1e-14)


def test_sqrt_psd_tilted_qubit():
    # eigenbasis square root: sqrt(0.8)|+><+| + sqrt(0.2)|-><-|
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    expected = (math.sqrt(0.8) * np.outer(plus, plus)
                + math.sqrt(0.2) * np.outer(minus, minus))
    assert np.allclose(sqrt_psd(TILTED), expected, atol=1e-14)


def test_sqrt_psd_squares_back():
    rng = RngStream(7, 0)
    for rho in hs_mixed_batch(rng, 5, 20):
        root = sqrt_psd(rho)
        assert np.linalg.norm(root @ root - rho) < 1e-9 * np.linalg.norm(rho)


def test_sqrt_psd_clamps_tiny_negatives():
    eps = 5e-11
    rho = np.diag([1.0 + eps, -eps]).astype(complex)
    root = sqrt_psd(rho)
    assert root[1, 1].real == 0.0


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        sqrt_psd(np.diag([1.001, -1e-3]).astype(complex))
    assert EIG_CLAMP == 1e-10
    # LAPACK returns NaN eigenvalues for an infinite entry; they fail closed
    with pytest.raises(ValueError, match="not PSD"):
        sqrt_psd(np.diag([np.inf, 1.0]).astype(complex))


def test_partial_trace_product_state():
    rho_a = np.diag([0.2, 0.8]).astype(complex)
    rho_b = TILTED
    assert np.allclose(partial_trace_b(np.kron(rho_a, rho_b), 2, 2), rho_a, atol=1e-14)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    reduced = partial_trace_b(np.outer(bell, bell.conj()), 2, 2)
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_gram_formula():
    # reduced state of |psi><psi| is the Gram matrix of the amplitude rows
    rng = RngStream(13, 1)
    psi = rng.complex_normal(12)
    psi /= np.linalg.norm(psi)
    amp = psi.reshape(3, 4)
    reduced = partial_trace_b(np.outer(psi, psi.conj()), 3, 4)
    assert np.allclose(reduced, amp @ amp.conj().T, atol=1e-14)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = RngStream(13, 2)
    for rho in hs_mixed_batch(rng, 6, 10):
        reduced = partial_trace_b(rho, 2, 3)
        assert np.array_equal(reduced, reduced.conj().T)
        assert np.trace(reduced).real == pytest.approx(np.trace(rho).real, abs=1e-15)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="expected"):
        partial_trace_b(np.eye(5, dtype=complex), 2, 2)


def test_swap_small_cases():
    assert np.array_equal(swap_operator(1), np.array([[1.0]]))
    f2 = swap_operator(2)
    expected = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(f2, expected)


def test_swap_trace_and_involution():
    for n in (2, 3, 5):
        f = swap_operator(n)
        assert np.trace(f) == n
        assert np.array_equal(f @ f, np.eye(n * n))
        assert np.array_equal(f, f.T)
        for i in range(n):
            for j in range(n):
                e = np.zeros(n * n)
                e[i * n + j] = 1.0
                target = np.zeros(n * n)
                target[j * n + i] = 1.0
                assert np.array_equal(f @ e, target)


def test_hs_norm_values():
    # np.linalg.norm of a matrix is the Hilbert-Schmidt norm sqrt(Tr M† M)
    # that the twirl MC budget is stated in
    m = RngStream(23, 0).complex_normal(16).reshape(4, 4)
    assert np.linalg.norm(m) == pytest.approx(math.sqrt(np.trace(m.conj().T @ m).real))
    assert np.linalg.norm(np.zeros((3, 3))) == 0.0
    assert np.linalg.norm(np.eye(4)) == pytest.approx(2.0)
    m = np.array([[1.0, 2.0j], [0.0, -1.0]])
    assert np.linalg.norm(m) == pytest.approx(math.sqrt(6.0))


def test_hs_norm_triangle_inequality():
    rng = RngStream(29, 0)
    for _ in range(50):
        a, b, c = (rng.complex_normal(9).reshape(3, 3) for _ in range(3))
        assert np.linalg.norm(a - c) <= np.linalg.norm(a - b) + np.linalg.norm(b - c) + 1e-12


@pytest.mark.parametrize("n", [2, 3, 8])
def test_stack_kernels_equal_per_matrix_loop(n):
    g = RngStream(401, n).complex_normal(6 * n * n).reshape(6, n, n)
    assert np.array_equal(hermitian_part(g), np.stack([hermitian_part(m) for m in g]))
    m = np.stack([random_hermitian(RngStream(402, k), n) for k in range(6)])
    psd = hermitian_part(m @ m)
    assert np.array_equal(sqrt_psd(psd), np.stack([sqrt_psd(p) for p in psd]))
    rho = hermitian_part(hs_mixed_batch(RngStream(403, n), n, 6))
    assert np.array_equal(sqrt_psd(rho), np.stack([sqrt_psd(r) for r in rho]))


@pytest.mark.parametrize("dim_a,dim_b", [(2, 2), (3, 3), (2, 3)])
def test_partial_trace_stack_equals_per_matrix_loop(dim_a, dim_b):
    rho = hs_mixed_batch(RngStream(404, dim_a * dim_b), dim_a * dim_b, 5)
    expected = np.stack([partial_trace_b(r, dim_a, dim_b) for r in rho])
    assert np.array_equal(partial_trace_b(rho, dim_a, dim_b), expected)
    with pytest.raises(ValueError, match="expected"):
        partial_trace_b(rho, dim_a, dim_b + 1)


def test_stack_rejects_one_bad_member():
    rho = hermitian_part(hs_mixed_batch(RngStream(405, 0), 3, 4))
    skewed = rho.copy()
    skewed[2, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        sqrt_psd(skewed)
    indefinite = rho.copy()
    indefinite[1] = np.diag([1.001, 0.0, -1e-3])
    with pytest.raises(ValueError, match="not PSD"):
        sqrt_psd(indefinite)
    with pytest.raises(ValueError, match="square"):
        sqrt_psd(np.zeros((4, 2, 3), dtype=complex))


def test_stack_clamps_relative_to_each_member():
    # 1e-14 is null-space noise next to 1.0 but a genuine eigenvalue next to 1e-3
    rho = np.stack([np.diag([1.0, 1e-14, -1e-12]), np.diag([1e-3, 1e-14, 0.0])]).astype(complex)
    root = sqrt_psd(rho)
    assert np.array_equal(root, np.stack([sqrt_psd(r) for r in rho]))
    assert root[0, 1, 1] == 0.0 and root[0, 2, 2] == 0.0
    assert root[1, 1, 1] == pytest.approx(1e-7, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_eigvalsh_matches_lapack_on_sampled_states(n):
    rho = hs_mixed_batch(RngStream(406, n), n, 10**5)
    values = hermitian_eigvalsh(rho)
    assert values.shape == (10**5, n)
    assert np.all(np.diff(values, axis=1) >= 0)
    assert np.abs(values - np.linalg.eigvalsh(rho)).max() <= 1e-14


def _degenerate_cases(n):
    rng = RngStream(407, n)
    psi = rng.complex_normal(n)
    psi /= np.linalg.norm(psi)
    cases = [np.eye(n) / n, np.outer(psi, psi.conj()), np.outer(np.eye(n)[0], np.eye(n)[0]),
             np.zeros((n, n)), np.diag(np.arange(n, dtype=float)),
             np.diag(rng.uniform(n))]
    if n == 2:
        cases += [np.diag([0.5 + 1e-9, 0.5 - 1e-9]), np.diag([0.25, 0.25]),
                  np.array([[0.5, 1e-9j], [-1e-9j, 0.5]])]
    else:
        cases += [np.diag([1 / 3 + 1e-9, 1 / 3, 1 / 3 - 1e-9]), np.diag([0.25, 0.25, 0.5]),
                  np.diag([0.5, 0.25, 0.25]), np.diag([0.2, 0.6, 0.2]),
                  np.array([[0.4, 0, 0], [0, 0.3, 1e-9], [0, 1e-9, 0.3]])]
    return np.stack(cases).astype(complex)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_eigvalsh_on_degenerate_and_diagonal_matrices(n):
    m = _degenerate_cases(n)
    values = hermitian_eigvalsh(m)
    assert np.all(np.diff(values, axis=1) >= 0)
    assert np.abs(values - np.linalg.eigvalsh(m)).max() <= 1e-14
    # zero off-diagonals: the spectrum is the sorted diagonal
    diagonal = np.array([np.all(k == np.diag(np.diag(k))) for k in m])
    assert np.abs(values[diagonal] - np.sort(np.diagonal(m[diagonal], axis1=1, axis2=2).real)
                  ).max() <= 1e-15
    assert np.array_equal(hermitian_eigvalsh(np.eye(n)[None] / n), np.full((1, n), 1 / n))


@pytest.mark.parametrize("spectrum", [
    [0.5, 0.5], [0.0, 1.0], [0.5 - 1e-12, 0.5 + 1e-12],
    [0.25, 0.25, 0.5], [0.2, 0.4, 0.4], [0.0, 0.0, 1.0],
    [1 / 3 - 1e-9, 1 / 3, 1 / 3 + 1e-9], [0.0, 0.5 - 1e-12, 0.5 + 1e-12],
])
def test_closed_form_eigvalsh_on_rotated_degenerate_spectra(spectrum):
    # U diag(spectrum) U† with Haar U: degenerate pairs in a generic basis
    n = len(spectrum)
    u = haar_unitary_batch(RngStream(409, n), n, 2000)
    m = hermitian_part((u * np.array(spectrum)) @ np.swapaxes(u.conj(), 1, 2))
    values = hermitian_eigvalsh(m)
    assert np.all(np.diff(values, axis=1) >= 0)
    assert np.abs(values - np.array(spectrum)).max() <= 1e-14
    assert np.abs(values - np.linalg.eigvalsh(m)).max() <= 1e-14


@pytest.mark.parametrize("n,i,j,entry", [
    (1, 0, 0, np.nan), (2, 0, 0, np.nan), (2, 1, 0, np.nan), (2, 1, 0, complex(0.1, np.nan)),
    (3, 1, 1, np.nan), (3, 2, 0, np.nan), (3, 2, 1, complex(0.1, np.nan)),
])
def test_closed_form_eigvalsh_fails_closed_on_nan(n, i, j, entry):
    # a NaN off-diagonal entry leaves the trace finite but makes p NaN: a
    # "p > 0" guard would return the finite trace / 3 here
    m = np.stack([np.eye(n, dtype=complex) / n] * 2)
    m[1, i, j] = entry
    m[1, j, i] = np.conj(entry)
    with np.errstate(invalid="ignore"):
        values = hermitian_eigvalsh(m)
    assert np.all(np.isnan(values[1]))
    assert np.allclose(values[0], 1 / n, rtol=0, atol=1e-15)


def test_closed_form_eigvalsh_shapes():
    assert np.allclose(hermitian_eigvalsh(np.diag([0.3, 0.7]).astype(complex)), [0.3, 0.7],
                       rtol=0, atol=1e-16)
    assert hermitian_eigvalsh(np.full((2, 5, 1, 1), 2.0 + 0j)).shape == (2, 5, 1)
    # 1 x 1 stacks go to LAPACK, which returns the real diagonal bit for bit
    m = RngStream(407, 1).complex_normal(10**4).reshape(2, -1, 1, 1)
    assert np.array_equal(hermitian_eigvalsh(m), m[..., 0].real)
    rho = hs_mixed_batch(RngStream(408, 3), 3, 40000).reshape(2, 20000, 3, 3)
    assert np.array_equal(hermitian_eigvalsh(rho),
                          hermitian_eigvalsh(rho.reshape(-1, 3, 3)).reshape(2, 20000, 3))
    rho = hs_mixed_batch(RngStream(408, 5), 5, 3)
    assert np.array_equal(hermitian_eigvalsh(rho), np.linalg.eigvalsh(rho))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigvalsh(np.zeros((4, 2, 3), dtype=complex))
