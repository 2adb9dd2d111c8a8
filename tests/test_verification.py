import math

import numpy as np
import pytest

from haar_coherence import closed_forms as cf
from haar_coherence import oracles, verification
from haar_coherence.closed_forms import MomentTable
from haar_coherence.estimators import EstimatorResult
from haar_coherence.sampling import RngStream


@pytest.fixture
def fresh_moment_cache():
    cf.validated_half_moment_table.cache_clear()
    yield
    cf.validated_half_moment_table.cache_clear()


def test_moment_gate_fails_closed_on_nan(monkeypatch, fresh_moment_cache):
    def poisoned(n, q):
        values = np.full((n, n), np.nan)
        return MomentTable(q=q, values=values)

    monkeypatch.setattr(oracles, "quadrature_moment_table", poisoned)
    with pytest.raises(cf.PrecisionError, match="nan"):
        cf.validated_half_moment_table(4)
    with pytest.raises(cf.PrecisionError):
        cf.avg_coherence_mixed(4)


def test_moment_routes_reports_the_gate_it_tests(monkeypatch):
    assert "(gate 1e-09)" in verification.check_moment_routes().detail
    monkeypatch.setattr(cf, "MOMENT_GATE", 1e-20)
    result = verification.check_moment_routes()
    assert result.passed is False and result.detail.endswith("(gate 1e-20)")


def test_spectral_average_fails_closed_on_nan_mean(monkeypatch):
    def nan_estimate(n, samples, rng):
        return EstimatorResult(mean=math.nan, stderr=1e-3, n_samples=samples)

    monkeypatch.setattr(oracles, "trace_sqrt_squared_mc", nan_estimate)
    assert verification.check_spectral_average(42).passed is False


def _with_one_nan_state(sampler):
    def sample(rng, n, count):
        states = sampler(rng, n, count)
        states[count // 2] = np.nan
        return states

    return sample


def test_batched_invariant_check_fails_closed_on_nan_state(monkeypatch):
    assert verification.check_haar_invariance(42).passed
    monkeypatch.setattr(verification, "haar_pure_batch",
                        _with_one_nan_state(verification.haar_pure_batch))
    # the validated kernels refuse the state; the suite reports a FAIL line
    result = verification._fail_closed(verification.check_haar_invariance, (42,))
    assert result.passed is False and "raised ValueError" in result.detail
    with pytest.raises(ValueError, match="normalized"):
        verification.check_lipschitz_pure(42)


def test_validated_invariant_check_rejects_nan_state(monkeypatch):
    monkeypatch.setattr(verification, "hs_mixed_batch",
                        _with_one_nan_state(verification.hs_mixed_batch))
    with pytest.raises(ValueError, match="Hermitian"):
        verification.check_convexity(42)


def test_spectral_mc_fails_closed_on_nan_state(monkeypatch):
    # LAPACK's eigvalsh returns finite eigenvalues for some NaN matrices;
    # the closed-form spectra give NaN, which the PSD check refuses
    draw = oracles._hs_mixed_slices

    def one_nan_state_per_slice(rng, n, count):
        for states in draw(rng, n, count):
            states[len(states) // 2] = np.nan
            yield states

    monkeypatch.setattr(oracles, "_hs_mixed_slices", one_nan_state_per_slice)
    for n in (2, 3):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not PSD"):
            oracles.trace_sqrt_squared_mc(n, 1000, RngStream(5, n))
    result = verification._fail_closed(verification.check_spectral_average, (42,))
    assert result.passed is False and "raised ValueError" in result.detail


@pytest.mark.parametrize("case", ["random", "unequal sizes", "ties", "identical"])
def test_ks_statistic_matches_scipy(case):
    from scipy.stats import ks_2samp

    rng = RngStream(19, 0)
    a, b = rng.uniform(1000), rng.uniform(1000) ** 1.1
    if case == "unequal sizes":
        b = b[:371]
    elif case == "ties":
        a, b = np.floor(10 * a), np.floor(10 * b[:600] ** 0.5)
    elif case == "identical":
        b = a.copy()
    expected = ks_2samp(a, b).statistic
    assert abs(verification._ks_statistic(a, b) - expected) <= 1e-12
    assert abs(verification._ks_statistic(b, a) - expected) <= 1e-12


@pytest.mark.parametrize("seed", [42, 7])
def test_suite_results_do_not_depend_on_workers(monkeypatch, seed):
    def run(workers):
        monkeypatch.setattr(verification, "_workers", lambda: workers)
        return [(r.name, r.passed, r.detail) for r in verification.run_suite("invariants", seed)]

    assert run(1) == run(2)


def test_spectral_average_on_its_own_matches_the_pooled_suite(suite_all_seed42):
    alone = verification.check_spectral_average(42)
    assert alone in suite_all_seed42


def test_suite_records_a_raising_check_as_failed(monkeypatch):
    def check_polygamy(seed):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(verification, "check_polygamy", check_polygamy)
    results = verification.run_suite("invariants", 42)
    assert len(results) == 11
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("polygamy", "raised LinAlgError: Eigenvalues did not converge")]


def test_suite_propagates_unexpected_errors(monkeypatch):
    def broken(seed):
        raise ZeroDivisionError("not a verdict")

    monkeypatch.setattr(verification, "check_extremes", broken)
    with pytest.raises(ZeroDivisionError):
        verification.run_suite("invariants", 42)
