import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_genlaguerre

from haar_coherence import closed_forms as cf
from haar_coherence import estimators, oracles, sampling
from haar_coherence.estimators import (_finish, _single_threaded_blas, merge_stats,
                                       stats_of)
from haar_coherence.linalg import hermitian_eigvalsh
from haar_coherence.linalg import hermitian_part, swap_operator
from haar_coherence.sampling import RngStream, haar_unitary_batch, hs_mixed_batch


def test_rule_single_node_alpha_zero():
    rule = oracles.gauss_laguerre_rule(0.0, 1)
    assert rule.nodes[0] == pytest.approx(1.0, abs=1e-14)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)


def test_rule_gamma_moments_alpha_half():
    rule = oracles.gauss_laguerre_rule(0.5, 6)
    root_pi = math.sqrt(math.pi)
    assert float(rule.weights.sum()) == pytest.approx(root_pi / 2, abs=1e-13)
    moment = float((rule.weights * rule.nodes**2).sum())
    assert moment == pytest.approx(15 * root_pi / 8, abs=1e-12)  # Gamma(7/2)


@pytest.mark.parametrize("alpha,n_nodes", [(0.0, 5), (0.5, 8), (1.5, 12)])
def test_rule_exactness_invariant(alpha, n_nodes):
    rule = oracles.gauss_laguerre_rule(alpha, n_nodes)
    for j in range(2 * n_nodes):
        approx = float((rule.weights * rule.nodes**j).sum())
        exact = math.exp(math.lgamma(alpha + j + 1.0))
        assert abs(approx - exact) < 1e-12 * exact


def test_large_rule_exactness_in_log_space():
    # monomials near the exactness edge overflow doubles, so compare in log space
    rule = oracles.gauss_laguerre_rule(0.5, 130)
    log_w = np.log(rule.weights)
    for j in (150, 259):
        terms = np.exp(log_w + j * np.log(rule.nodes) - math.lgamma(0.5 + j + 1.0))
        assert abs(float(terms.sum()) - 1.0) < 1e-12


def test_rule_matches_scipy():
    for alpha, n_nodes in ((0.5, 20), (0.0, 64), (0.5, 130)):
        rule = oracles.gauss_laguerre_rule(alpha, n_nodes)
        nodes, weights = roots_genlaguerre(n_nodes, alpha)
        assert np.abs(rule.nodes - np.sort(nodes)).max() < 1e-10
        assert np.abs((rule.weights - weights) / weights).max() < 1e-10


def scipy_nodes(alpha, n_nodes):
    i = np.arange(n_nodes, dtype=float)
    return eigh_tridiagonal(2 * i + alpha + 1, np.sqrt(i[1:] * (i[1:] + alpha)),
                            eigvals_only=True)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3, -0.4, 2.0, 1.0, -0.5])
def test_nodes_equal_scipy_tridiagonal_nodes_bit_for_bit(alpha):
    # dense eigvalsh on one BLAS thread: ~10x faster on the small matrices
    with _single_threaded_blas():
        for n in [*range(1, 300), 381, 400, 512, 700, 1024, 1026]:
            assert np.array_equal(oracles._laguerre_nodes(alpha, n), scipy_nodes(alpha, n)), n
    # the rule itself takes those nodes: 258 of them serve closed-form at N = 256
    assert np.array_equal(oracles.gauss_laguerre_rule(alpha, 258).nodes, scipy_nodes(alpha, 258))


@pytest.mark.parametrize("alpha", [0.5, -0.4])
def test_nodes_do_not_depend_on_blas_threads(alpha):
    sizes = (2, 31, 33, 64, 130, 258, 400, 1026)
    free = [oracles._laguerre_nodes(alpha, n) for n in sizes]
    with _single_threaded_blas():
        pinned = [oracles._laguerre_nodes(alpha, n) for n in sizes]
    for n, a, b in zip(sizes, free, pinned):
        assert np.array_equal(a, b), n


def test_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracles.gauss_laguerre_rule(-1.0, 4)
    with pytest.raises(ValueError):
        oracles.gauss_laguerre_rule(0.5, 0)
    # the weight's mass Gamma(alpha + 1) overflows a double from alpha ≈ 171 on
    with pytest.raises(ValueError, match="weight exponent 300.0"):
        oracles.gauss_laguerre_rule(300.0, 4)


def test_quadrature_table_refuses_oversized_table(monkeypatch):
    # numpy unreachable from oracles: allocating before the check would raise
    monkeypatch.setattr(oracles, "np", None)
    with pytest.raises(ValueError, match=f"exceeds the supported maximum {cf.MAX_TABLE_SIZE}"):
        oracles.quadrature_moment_table(100_000, 0.5)


def plain_scaled_laguerre_rows(n_rows, x):
    # L_k(x) e^{-x/2} by the recurrence started from e^{-x/2} itself, without
    # rescaling: exact reference wherever e^{-x/2} stays a normal double.
    rows = np.empty((n_rows, x.size))
    rows[0] = np.exp(-x / 2)
    rows[1] = (1.0 - x) * rows[0]
    for k in range(1, n_rows - 1):
        rows[k + 1] = ((2 * k + 1 - x) * rows[k] - k * rows[k - 1]) / (k + 1)
    return rows


def test_scaled_rows_unchanged_where_nothing_underflows():
    rule = oracles.gauss_laguerre_rule(0.5, 130)
    assert np.array_equal(oracles._scaled_laguerre_rows(128, rule.nodes),
                          plain_scaled_laguerre_rows(128, rule.nodes))


def test_quadrature_table_orthonormal_past_underflow():
    # at 502 nodes e^{-x/2} is 0 at the largest nodes; the q = 0 table is the identity
    n = 500
    values = oracles.quadrature_moment_table(n, 0.0).values
    assert np.abs(values - np.eye(n)).max() < 1e-12


def test_moment_quadrature_known_values():
    root_pi = math.sqrt(math.pi)
    values = oracles.quadrature_moment_table(2, 0.5).values
    assert values[0, 0] == pytest.approx(root_pi / 2, abs=1e-13)
    assert values[0, 1] == pytest.approx(-root_pi / 4, abs=1e-13)
    assert values[1, 1] == pytest.approx(7 * root_pi / 8, abs=1e-13)
    assert np.abs(oracles.quadrature_moment_table(7, 0.0).values - np.eye(7)).max() < 1e-10


def test_moment_series_vs_quadrature_full_table():
    series = cf.moment_table(64, 0.5)
    quad = oracles.quadrature_moment_table(64, 0.5)
    assert float(np.abs(series.values - quad.values).max()) <= 1e-9


def test_vandermonde_mc_qubit_case():
    est = oracles.vandermonde_sqrt_integral_mc(2, 10**6, RngStream(211, 0))
    target = 3 * math.pi / 4
    assert abs(est.mean - target) < 4 * est.stderr
    closed = cf.vandermonde_sqrt_integral(2)
    assert closed == pytest.approx(target, abs=1e-12)
    assert abs(est.mean - closed) < 4 * est.stderr


def test_vandermonde_mc_qutrit_case():
    est = oracles.vandermonde_sqrt_integral_mc(3, 2 * 10**6, RngStream(223, 0))
    closed = cf.vandermonde_sqrt_integral(3)
    assert abs(est.mean - closed) < 4 * est.stderr


def test_vandermonde_mc_rejects_large_dimension():
    with pytest.raises(ValueError, match="limited"):
        oracles.vandermonde_sqrt_integral_mc(5, 100, RngStream(1, 0))


def test_twirl_fixed_points_exact():
    for n in (2, 3, 4):
        eye = np.eye(n * n, dtype=complex)
        f = swap_operator(n).astype(complex)
        assert np.array_equal(oracles.twofold_twirl(eye, n), eye)
        assert np.array_equal(oracles.twofold_twirl(f, n), f)


def test_twirl_of_spectral_square_root_tensor():
    # diag(sqrt(L)) x diag(sqrt(L)) twirls to the documented identity/swap mix
    rng = RngStream(227, 0)
    n = 3
    lam = rng.exponential(n)
    lam /= lam.sum()
    root = np.diag(np.sqrt(lam)).astype(complex)
    a = np.kron(root, root)
    t = np.sqrt(lam).sum()
    denom = n * (n * n - 1)
    expected = ((n * t**2 - 1) / denom * np.eye(n * n)
                + (n - t**2) / denom * swap_operator(n))
    assert np.allclose(oracles.twofold_twirl(a, n), expected, atol=1e-12)


def test_twirl_dimension_check():
    with pytest.raises(ValueError, match="expected"):
        oracles.twofold_twirl(np.eye(3, dtype=complex), 2)


def test_twirl_mc_converges_and_stays_in_span():
    n = 2
    rng = RngStream(229, 0)
    a = hermitian_part(rng.complex_normal(16).reshape(4, 4))
    closed = oracles.twofold_twirl(a, n)

    def residual(samples, stream):
        emp = oracles.twofold_twirl_mc(a, n, samples, RngStream(229, stream))
        # least-squares projection onto span{identity, swap}
        basis = np.stack([np.eye(n * n, dtype=complex).ravel(),
                          swap_operator(n).astype(complex).ravel()], axis=1)
        coeff, *_ = np.linalg.lstsq(basis, emp.ravel(), rcond=None)
        off_span = float(np.linalg.norm(emp.ravel() - basis @ coeff))
        return float(np.abs(emp - closed).max()), off_span

    err_small, span_small = residual(2000, 1)
    err_big, span_big = residual(50000, 2)
    norm = float(np.linalg.norm(a))
    assert err_big < 5 * norm / math.sqrt(50000)
    assert err_big < err_small
    assert span_big < span_small


def test_trace_sqrt_squared_mc_trivial_dimension():
    est = oracles.trace_sqrt_squared_mc(1, 500, RngStream(233, 0))
    assert est.mean == pytest.approx(1.0, abs=1e-15)
    assert est.stderr < 1e-15


def test_trace_sqrt_squared_mc_qubit():
    est = oracles.trace_sqrt_squared_mc(2, 2 * 10**5, RngStream(239, 0))
    target = 1 + 3 * math.pi / 16
    assert cf.trace_sqrt_squared_average(2) == pytest.approx(target, abs=1e-12)
    assert abs(est.mean - target) < 4 * est.stderr


def _twirl_mc_einsum(a, n, samples, rng, block):
    # reference: the direct three-operand einsum contraction of each block
    total = np.zeros((n * n, n * n), dtype=complex)
    done = 0
    while done < samples:
        b = min(block, samples - done)
        u = haar_unitary_batch(rng, n, b)
        w = np.einsum("bij,bkl->bikjl", u, u).reshape(b, n * n, n * n)
        total += np.einsum("bij,jk,blk->il", w, a, w.conj())
        done += b
    return total / samples


@pytest.mark.parametrize("n", [2, 3])
def test_twirl_mc_matches_einsum_reference_and_rng_order(n, monkeypatch):
    block, samples = 256, 2 * 256 + 37  # two full blocks and a short final one
    # a general, non-Hermitian operator
    a = RngStream(241, n).complex_normal((n * n) ** 2).reshape(n * n, n * n)
    rng, ref_rng = RngStream(251, n), RngStream(251, n)
    monkeypatch.setattr(oracles, "_TWIRL_BLOCK", block)
    emp = oracles.twofold_twirl_mc(a, n, samples, rng)
    ref = _twirl_mc_einsum(a, n, samples, ref_rng, block)
    assert float(np.abs(emp - ref).max()) <= 1e-14
    assert np.array_equal(rng.uniform(4), ref_rng.uniform(4))


@pytest.mark.parametrize("n", [2, 3])
def test_twirl_mc_fold_slices_match_einsum_reference(n):
    # at the default block: two full blocks and a short last one, so at N = 2 (a slice
    # of 4096 unitaries, one per block) two full slices and a short one, and at N = 3
    # (slices of 809) five full slices and a short one in each full block
    step = max(1, sampling._UNIFORM_SLICE // n**4)
    assert step == {2: 4096, 3: 809}[n]
    samples = 2 * oracles._TWIRL_BLOCK + 37
    a = RngStream(241, n).complex_normal((n * n) ** 2).reshape(n * n, n * n)
    rng, ref_rng = RngStream(269, n), RngStream(269, n)
    emp = oracles.twofold_twirl_mc(a, n, samples, rng)
    ref = _twirl_mc_einsum(a, n, samples, ref_rng, oracles._TWIRL_BLOCK)
    assert float(np.abs(emp - ref).max()) <= 1e-14
    assert np.array_equal(rng.uniform(4), ref_rng.uniform(4))


def test_twirl_mc_holds_one_fold_slice():
    # one block of 4096 unitaries at N = 3 folded in slices of 809 through three 1 MB
    # buffers (4.8 MiB measured); the whole block's W, X and conj(W), 5.3 MB each,
    # peaked at 15.8 MiB
    oracles.twofold_twirl_mc(np.eye(9), 3, 10, RngStream(2, 0))
    tracemalloc.start()
    try:
        oracles.twofold_twirl_mc(np.eye(9), 3, 4096, RngStream(2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def _vandermonde_values(rng, n, b):
    mu = rng.exponential(b * n).reshape(b, n)
    f = np.sqrt(mu[:, 0] * mu[:, 1])
    for i in range(n):
        for j in range(i + 1, n):
            f = f * (mu[:, i] - mu[:, j]) ** 2
    return f


def _spectral_values(rng, n, b):
    spectrum = np.clip(hermitian_eigvalsh(hs_mixed_batch(rng, n, b)), 0.0, None)
    return np.sqrt(spectrum).sum(axis=1) ** 2


@pytest.mark.parametrize("oracle, values, entries, n", [
    (oracles.vandermonde_sqrt_integral_mc, _vandermonde_values, lambda n: n, 3),
    (oracles.trace_sqrt_squared_mc, _spectral_values, lambda n: n * n, 2),
    (oracles.trace_sqrt_squared_mc, _spectral_values, lambda n: n * n, 5),
])
def test_stats_oracles_match_hand_rolled_block_loop(oracle, values, entries, n, monkeypatch):
    block, samples = 256, 2 * 256 + 37  # two full blocks and a short final one
    monkeypatch.setattr(estimators, "_BLOCK_DRAWS", block * entries(n))
    rng, ref_rng = RngStream(257, n), RngStream(257, n)
    est = oracle(n, samples, rng)
    stats, done, pooled = (0, 0.0, 0.0), 0, []
    while done < samples:
        b = min(block, samples - done)
        pooled.append(values(ref_rng, n, b))
        stats = merge_stats(stats, stats_of(pooled[-1][None].copy())[0])
        done += b
    assert [len(p) for p in pooled] == [256, 256, 37]
    assert est == _finish([stats])
    assert est.mean == pytest.approx(np.concatenate(pooled).mean(), rel=1e-12)
    assert np.array_equal(rng.uniform(4), ref_rng.uniform(4))


def test_spectral_mc_holds_one_slice():
    # blocks of 2^21 draws are read a slice at a time (5.2 MiB measured); holding a
    # block's radii beside its slice peaked at 20.9 MiB, and drawn and reduced whole,
    # 3·10^5 states at N = 3 peaked at 48.6 MiB
    oracles.trace_sqrt_squared_mc(3, 10, RngStream(2, 0))
    tracemalloc.start()
    try:
        oracles.trace_sqrt_squared_mc(3, 3 * 10**5, RngStream(2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vandermonde_mc_slices_keep_the_block_bits(n):
    # two full slices of states and a short last one in one block: the bits of the
    # block's exponentials drawn whole and the integrand evaluated on all of them
    samples = 2 * sampling._UNIFORM_SLICE + 5
    est = oracles.vandermonde_sqrt_integral_mc(n, samples, RngStream(263, n))
    values = _vandermonde_values(RngStream(263, n), n, samples)
    assert est == _finish(stats_of(values[None]))


def test_vandermonde_mc_holds_its_values_and_one_slice():
    # one block of 2^20 states at N = 2: its values (8 MiB), squared in place by the
    # block statistics, and one slice (10.0 MiB measured); a copy of the deviations
    # peaked at 16 MiB, and drawn whole, the exponentials and the integrand's
    # temporaries at 32 MiB
    oracles.vandermonde_sqrt_integral_mc(2, 10, RngStream(2, 0))
    tracemalloc.start()
    try:
        oracles.vandermonde_sqrt_integral_mc(2, 2**20, RngStream(2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20
