import math
import warnings

import numpy as np
import pytest
from scipy.special import xlogy

from haar_coherence.coherence import (_shannon, relative_entropy_coherence,
                                      skew_coherence, skew_coherence_pure,
                                      skew_information, sqrt_diagonal)
from haar_coherence.linalg import (_psd_root_spectrum, hermitian_eigvalsh, hermitian_part,
                                   partial_trace_b, sqrt_psd)
from haar_coherence.sampling import RngStream, haar_pure_batch, hs_mixed_batch

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
TILTED = 0.5 * (np.eye(2) + 0.6 * SIGMA_X)


def projector(k, n):
    p = np.zeros((n, n), dtype=complex)
    p[k, k] = 1.0
    return p


def test_skew_information_commuting_case():
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert skew_information(rho, np.diag([2.0, 5.0]).astype(complex)) == pytest.approx(0.0, abs=1e-14)


def test_skew_information_pure_state_is_variance():
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    rho = hermitian_part(np.outer(plus, plus.conj()))
    assert skew_information(rho, SIGMA_Z) == pytest.approx(1.0, abs=1e-12)


def test_skew_information_tilted_qubit():
    # hand eigendecomposition in the |+>/|-> basis gives 0.05
    assert skew_information(TILTED, projector(0, 2)) == pytest.approx(0.05, abs=1e-12)


def test_skew_information_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        skew_information(TILTED, np.eye(3, dtype=complex))


def test_skew_coherence_diagonal_is_zero():
    rng = RngStream(71, 0)
    for _ in range(20):
        p = rng.exponential(4)
        rho = np.diag((p / p.sum()).astype(complex))
        assert skew_coherence(rho) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_skew_coherence_maximally_coherent(n):
    rng = RngStream(73, n)
    phases = np.exp(2j * np.pi * rng.uniform(n))
    psi = phases / math.sqrt(n)
    rho = hermitian_part(np.outer(psi, psi.conj()))
    assert skew_coherence(rho) == pytest.approx(1.0 - 1.0 / n, abs=1e-12)
    assert skew_coherence_pure(psi) == pytest.approx(1.0 - 1.0 / n, abs=1e-12)


def test_skew_coherence_tilted_qubit():
    # 1/2 - (1/2) sqrt(1 - 0.36)
    assert skew_coherence(TILTED) == pytest.approx(0.1, abs=1e-12)


def test_skew_coherence_matches_projector_sum():
    rng = RngStream(79, 0)
    for n in (2, 3, 4):
        for rho in hs_mixed_batch(rng, n, 50):
            total = math.fsum(skew_information(rho, projector(k, n)) for k in range(n))
            assert abs(total - skew_coherence(rho)) < 1e-10


def test_skew_coherence_pure_cases():
    basis = np.zeros(5, dtype=complex)
    basis[2] = 1.0
    assert skew_coherence_pure(basis) == 0.0
    psi = np.array([math.sqrt(0.8), math.sqrt(0.2)], dtype=complex)
    assert skew_coherence_pure(psi) == pytest.approx(0.32, abs=1e-14)
    with pytest.raises(ValueError, match="normalized"):
        skew_coherence_pure(np.array([1.0, 1.0]))


def test_pure_and_mixed_forms_agree():
    rng = RngStream(83, 0)
    for n in (2, 4, 8):
        for psi in haar_pure_batch(rng, n, 100):
            rho = hermitian_part(np.outer(psi, psi.conj()))
            assert abs(skew_coherence_pure(psi) - skew_coherence(rho)) < 1e-12


def test_relative_entropy_coherence_cases():
    assert relative_entropy_coherence(np.diag([0.25, 0.75]).astype(complex)) == pytest.approx(0.0, abs=1e-12)
    n = 6
    psi = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    rho = hermitian_part(np.outer(psi, psi.conj()))
    assert relative_entropy_coherence(rho) == pytest.approx(math.log(n), abs=1e-10)
    # binary entropy difference h(1/2) - h(0.2) for the tilted qubit
    h_tilted = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
    expected = math.log(2.0) - h_tilted
    assert expected == pytest.approx(0.192745, abs=1e-6)
    assert relative_entropy_coherence(TILTED) == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_coherence_of_pure_state_is_population_entropy():
    rng = RngStream(89, 0)
    for psi in haar_pure_batch(rng, 4, 25):
        rho = hermitian_part(np.outer(psi, psi.conj()))
        p = np.abs(psi) ** 2
        expected = -(p * np.log(p)).sum()
        assert relative_entropy_coherence(rho) == pytest.approx(expected, abs=1e-8)


def _probability_rows(n, rows=20000):
    e = RngStream(61, n).exponential(rows * n).reshape(rows, n)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 8, 29, 100])
def test_shannon_matches_xlogy(n, simd_class):
    # x log x with numpy's log against scipy's xlogy, which takes libm's log: the
    # same bits on the baseline class. numpy's AVX-512 log differs from libm's in
    # the last bit of some entries, which the product can double to 2 ulps of an
    # entry; a row sums up to N such entries.
    p = _probability_rows(n)
    entries, rows = _shannon(p.reshape(-1, 1)), _shannon(p)
    terms = -xlogy(p, p)
    expected_entries, expected_rows = terms.reshape(-1), terms.sum(axis=-1)
    if simd_class == "baseline":
        assert np.array_equal(entries, expected_entries) and np.array_equal(rows, expected_rows)
    else:
        assert (np.abs(entries - expected_entries) <= 2 * np.spacing(expected_entries)).all()
        assert (np.abs(rows - expected_rows) <= 2 * n * np.spacing(expected_rows)).all()


def test_shannon_zero_entries_add_nothing():
    # rows shorter than 8 entries are summed in order, so adding 0 log 0 = 0 is exact
    p = _probability_rows(3, rows=1000)
    zeros = np.zeros((len(p), 1))
    padded = np.concatenate([zeros, p[:, :1], zeros, p[:, 1:], zeros], axis=1)
    assert np.array_equal(_shannon(padded), _shannon(p))


def test_shannon_rejects_nan_and_never_warns_at_zero():
    with pytest.raises(ValueError, match="NaN"):
        _shannon(np.array([0.5, np.nan, 0.5]))
    with pytest.raises(ValueError, match="NaN"):
        _shannon(np.array([[0.5, 0.5], [np.nan, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _shannon(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    assert np.array_equal(values, np.zeros(3))


def test_coherence_range_on_random_states():
    rng = RngStream(103, 0)
    for n in (2, 3, 4, 8):
        for rho in hs_mixed_batch(rng, n, 200):
            value = skew_coherence(rho)
            assert 0.0 <= value <= 1.0 - 1.0 / n + 1e-10


def test_polygamy_inequality():
    rng = RngStream(107, 0)
    for n in (2, 3):
        for psi in haar_pure_batch(rng, n * n, 100):
            product = np.outer(psi, psi.conj())
            rho_a = hermitian_part(partial_trace_b(product, n, n))
            rho_b = hermitian_part(np.einsum("kakb->ab", product.reshape(n, n, n, n)))
            lhs = 1.0 - skew_coherence_pure(psi)
            rhs = (1.0 - skew_coherence(rho_a)) * (1.0 - skew_coherence(rho_b))
            assert lhs <= rhs + 1e-10


def test_convexity_spot_checks():
    rng = RngStream(109, 0)
    for n in (2, 3):
        rhos = hs_mixed_batch(rng, n, 50)
        sigmas = hs_mixed_batch(rng, n, 50)
        for rho, sigma in zip(rhos, sigmas):
            c_rho, c_sigma = skew_coherence(rho), skew_coherence(sigma)
            for p in (0.25, 0.5, 0.75):
                mixed = skew_coherence(p * rho + (1 - p) * sigma)
                assert mixed <= p * c_rho + (1 - p) * c_sigma + 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_stack_coherence_equals_per_state_loop(n):
    rho = hermitian_part(hs_mixed_batch(RngStream(501, n), n, 20))
    assert np.array_equal(sqrt_diagonal(rho), np.stack([sqrt_diagonal(r) for r in rho]))
    rebuilt = np.diagonal(sqrt_psd(rho), axis1=1, axis2=2).real
    np.testing.assert_allclose(sqrt_diagonal(rho), rebuilt, rtol=0, atol=1e-15)
    assert np.array_equal(skew_coherence(rho), [skew_coherence(r) for r in rho])
    k = projector(n - 1, n)
    assert np.array_equal(skew_information(rho, k), [skew_information(r, k) for r in rho])
    psi = haar_pure_batch(RngStream(502, n), n, 20)
    assert np.array_equal(skew_coherence_pure(psi), [skew_coherence_pure(p) for p in psi])


def eigh_sqrt_diagonal(rho):
    """The diagonal of sqrt(rho) from LAPACK's eigenpairs, as at every n but 2."""
    root, vectors = _psd_root_spectrum(rho)
    return np.einsum("...ka,...a->...k", np.abs(vectors) ** 2, root)


def test_qubit_sqrt_diagonal_calls_no_lapack(monkeypatch):
    rho = hs_mixed_batch(RngStream(511, 2), 2, 1000)
    expected = skew_coherence(rho)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called at n = 2")

    for name in ("eigh", "eigvalsh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert np.array_equal(skew_coherence(rho), expected)


def test_qubit_sqrt_diagonal_is_exact_at_rank_one():
    # the small eigenvalue is clamped, so the root is rho_kk / sqrt(w_2) less the clamped
    # round-off: the populations of an exact projector, bit for bit
    for psi in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.6, 0.8j], [2**-0.5, -(2**-0.5)]):
        rho = hermitian_part(np.outer(psi, np.conj(psi)))
        w = hermitian_eigvalsh(rho)
        assert w[0] < 1e-16
        assert np.array_equal(sqrt_diagonal(rho), (rho.diagonal().real - w[0]) / np.sqrt(w[1]))
    assert np.array_equal(sqrt_diagonal(np.diag([1.0, 0.0])), [1.0, 0.0])
    assert np.array_equal(sqrt_diagonal(np.full((2, 2), 0.5)), [0.5, 0.5])
    psi = haar_pure_batch(RngStream(512, 2), 2, 10**4)
    rho = hermitian_part(np.einsum("bi,bj->bij", psi, psi.conj()))
    np.testing.assert_allclose(sqrt_diagonal(rho), np.abs(psi) ** 2, rtol=0, atol=6e-16)


def test_qubit_sqrt_diagonal_matches_eigh_on_a_stress_grid():
    # mixtures (1 - p) |psi><psi| + p I/2 from near-pure to maximally mixed, scaled by
    # traces far from 1, and Hilbert-Schmidt states; the closed form and eigh agree to
    # 3e-14 where sqrt(w_1) is well conditioned (w_1 / w_2 >= 1e-4 here; below, both lose
    # about 1e-16 / sqrt(w_1), and the closed form was the nearer to a 50-digit reference);
    # in units of sqrt(Tr rho), the scale of sqrt(rho)
    psi = haar_pure_batch(RngStream(513, 2), 2, 500)
    pure = np.einsum("bi,bj->bij", psi, psi.conj())
    grid = [hermitian_part(scale * ((1 - p) * pure + p * np.eye(2) / 2))
            for p in (2e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-9, 1.0)
            for scale in (1e-6, 1.0, 1e3)]
    grid.append(hs_mixed_batch(RngStream(514, 2), 2, 10**4))
    rho = np.concatenate(grid)
    w = hermitian_eigvalsh(rho)
    rho = rho[w[:, 0] >= 1e-4 * w[:, 1]]
    assert len(rho) >= 23000
    gap = np.abs(sqrt_diagonal(rho) - eigh_sqrt_diagonal(rho))
    assert (gap <= 3e-14 * np.sqrt(np.trace(rho, axis1=1, axis2=2).real)[:, None]).all()


def test_qubit_sqrt_diagonal_fails_closed_as_eigh_does():
    stack = hs_mixed_batch(RngStream(515, 2), 2, 4)
    for bad, match in ((np.nan, "Hermitian"), (1e-15j, "Hermitian")):
        states = stack.copy()
        states[2, 1, 0] += bad
        with pytest.raises(ValueError, match=match):
            sqrt_diagonal(states)
    states = stack.copy()
    states[3] = [[1.5, 0.3], [0.3, -0.5]]
    with pytest.raises(ValueError, match="not PSD"):
        skew_coherence(states)
    with warnings.catch_warnings():  # inf - inf in the spectrum fails closed, with no warning
        warnings.simplefilter("error")
        for rho in (np.diag([np.inf, 1.0]), np.diag([np.inf, np.inf])):
            with pytest.raises(ValueError, match="not PSD.*nan"):
                skew_coherence(rho)
    # within EIG_CLAMP of PSD, and 0: the roots of the clamped spectrum, as eigh's
    for rho in (np.diag([1.0 + 1e-11, -1e-11]), np.zeros((2, 2)), np.diag([-1e-11, -1e-11])):
        np.testing.assert_allclose(sqrt_diagonal(rho), eigh_sqrt_diagonal(rho), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_relative_entropy_stack_equals_per_state_loop(n):
    rho = hs_mixed_batch(RngStream(508, n), n, 20)
    stacked = relative_entropy_coherence(rho)
    assert stacked.shape == (20,)
    assert np.array_equal(stacked, [relative_entropy_coherence(r) for r in rho])
    # a (2, 10, n, n) stack keeps its leading shape
    assert np.array_equal(relative_entropy_coherence(rho.reshape(2, 10, n, n)),
                          stacked.reshape(2, 10))


def test_relative_entropy_rejects_non_hermitian_input():
    rho = TILTED.copy()
    rho[0, 1] += 1e-15
    with pytest.raises(ValueError, match="Hermitian"):
        relative_entropy_coherence(rho)
    stack = hs_mixed_batch(RngStream(509, 3), 3, 4)
    stack[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        relative_entropy_coherence(stack)


def test_relative_entropy_rejects_non_psd_input():
    # clipping the negative eigenvalue used to return 0.0625 here
    with pytest.raises(ValueError, match="not PSD"):
        relative_entropy_coherence(np.array([[1.5, 0.3], [0.3, -0.5]]))
    stack = hs_mixed_batch(RngStream(510, 2), 2, 4)
    stack[3] = [[1.5, 0.3], [0.3, -0.5]]
    with pytest.raises(ValueError, match="not PSD"):
        relative_entropy_coherence(stack)
    # round-off below zero, within EIG_CLAMP, is still accepted
    assert relative_entropy_coherence(np.diag([1.0 + 1e-11, -1e-11])) == 0.0


def test_single_state_returns_python_float():
    rho = hermitian_part(hs_mixed_batch(RngStream(503, 3), 3, 1)[0])
    psi = haar_pure_batch(RngStream(504, 3), 3, 1)[0]
    assert type(skew_coherence(rho)) is float
    assert type(skew_information(rho, projector(0, 3))) is float
    assert type(skew_coherence_pure(psi)) is float
    assert type(relative_entropy_coherence(rho)) is float


def test_skew_information_broadcasts_observables_against_states():
    rho = hermitian_part(hs_mixed_batch(RngStream(505, 3), 3, 7))
    projectors = np.stack([projector(k, 3) for k in range(3)])[:, None]
    table = skew_information(rho, projectors)
    assert table.shape == (3, 7)
    assert np.allclose(table.sum(axis=0), skew_coherence(rho), atol=1e-12)


def test_stack_rejects_one_bad_member():
    psi = haar_pure_batch(RngStream(506, 4), 4, 5)
    psi[3] *= 1.01
    with pytest.raises(ValueError, match="normalized"):
        skew_coherence_pure(psi)
    psi[3] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        skew_coherence_pure(psi)
    rho = hermitian_part(hs_mixed_batch(RngStream(507, 3), 3, 4))
    rho[1] = np.diag([1.001, 0.0, -1e-3])
    with pytest.raises(ValueError, match="not PSD"):
        skew_coherence(rho)
    rho[1] = np.diag([2.0, 0.0, 0.0])  # unnormalized: coherence 1 - 2 = -1
    with pytest.raises(ValueError, match="outside"):
        skew_coherence(rho)
    with pytest.raises(ValueError, match="mismatch"):
        skew_information(rho, np.eye(2, dtype=complex))
