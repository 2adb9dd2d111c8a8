import math
import tracemalloc

import numpy as np
import pytest

from haar_coherence import closed_forms as cf
from haar_coherence import estimators, oracles, verification
from haar_coherence.closed_forms import MomentTable
from haar_coherence.estimators import EstimatorResult
from haar_coherence.sampling import RngStream


@pytest.fixture
def fresh_moment_cache():
    cf.half_moment_bracket.cache_clear()
    yield
    cf.half_moment_bracket.cache_clear()


def test_moment_gate_fails_closed_on_nan(monkeypatch, fresh_moment_cache):
    def poisoned(n, q):
        return MomentTable(values=np.full((n, n), np.nan))

    monkeypatch.setattr(oracles, "quadrature_moment_table", poisoned)
    with pytest.raises(cf.PrecisionError, match="nan"):
        cf.half_moment_bracket(4)
    with pytest.raises(cf.PrecisionError):
        cf.avg_coherence_mixed(4)
    # a NaN of the prefix-sum route fails too: pi Q becomes NaN when pi does
    monkeypatch.undo()
    monkeypatch.setattr(cf.math, "pi", math.nan)
    with pytest.raises(cf.PrecisionError, match="prefix sums nan"):
        cf.half_moment_bracket(4)


def test_moment_routes_reports_the_gate_it_tests(monkeypatch):
    [(label, gap, tolerance)] = verification.check_moment_routes().gates
    assert tolerance == cf.MOMENT_GATE
    monkeypatch.setattr(cf, "MOMENT_GATE", 1e-20)
    result = verification.check_moment_routes()
    assert result.passed is False and result.gates == ((label, gap, 1e-20),)


def test_check_result_renders_every_gate_one_way():
    result = verification.CheckResult("sampler", (("max KS distance", 0.013299999999999979, 0.02),
                                                  ("partial-trace mismatch", 2.22e-16, 1e-14)))
    assert result.passed is True
    assert result.detail == ("max KS distance 0.0133 (tol 0.02); "
                             "partial-trace mismatch 2.22e-16 (tol 1e-14)")


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e-10 + 1e-25])
def test_one_failing_gate_fails_the_check(value):
    result = verification.CheckResult("x", (("held", -1.0, 1e-10), ("broken", value, 1e-10)))
    assert result.passed is False
    assert result.detail.endswith(f"broken {value:#.3g} (tol 1e-10)")


def test_a_check_without_gates_or_with_an_error_fails():
    assert verification.CheckResult("x").passed is False
    result = verification.CheckResult("x", (("held", 0.0, 1.0),), error="raised ValueError: v")
    assert result.passed is False and result.detail == "raised ValueError: v"


@pytest.mark.parametrize("value,passed", [(0.0, True), (-0.0, True), (-1e-300, True),
                                          (5e-324, False)])
def test_a_zero_tolerance_gate_passes_only_at_or_below_zero(value, passed):
    assert verification.CheckResult("x", (("gap", value, 0),)).passed is passed


# (label, tolerance) of each gate of `verify --suite all`, check by check; README's table
VERIFY_ALL_GATES = [
    [("worst relative moment error", 1e-12)],
    [("max deviation from identity", 1e-10)],
    [("max |series - quadrature|", cf.MOMENT_GATE)],
    [("worst absolute error", 1e-12)],
    [("n=2 z vs closed form", 4), ("n=3 z vs closed form", 4),
     ("n=2 |closed form - 3pi/4|", 1e-12)],
    [("max |twirl(A) - A|", 0)],
    [("worst entrywise error / (5 |A| / sqrt(S))", 1)],
    [("n=2 z", 4), ("n=3 z", 4), ("n=2 |closed form - (1 + 3pi/16)|", 1e-12)],
    [("max -C", 1e-10), ("max C - (1 - 1/N)", 1e-10)],
    [("max |difference|", 1e-10)],
    [("max |difference|", 1e-12)],
    [("max violation", 0)],
    [("max violation", 0)],
    [("max violation", 1e-10)],
    [("max violation", 1e-10)],
    [("max deviation", 1e-12)],
    [("worst z of the mean gap", 4)],
    [("max KS distance", 0.02), ("partial-trace mismatch", 1e-14)],
    [("worst z", 4)],
]


def test_seed42_gates_are_finite_and_keep_their_tolerances(suite_all_seed42):
    assert [[(label, tolerance) for label, _, tolerance in result.gates]
            for result in suite_all_seed42] == VERIFY_ALL_GATES
    assert all(math.isfinite(value)
               for result in suite_all_seed42 for _, value, _ in result.gates)


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
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: workers)
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


def test_projector_sum_holds_one_slice_of_states():
    # the projector sum over slices of 125 states (4.9 MiB measured); broadcast over
    # all 1000 states at once, each (8, 1000, 8, 8) temporary took 8.2 MB (17.9 MiB peak)
    verification.check_projector_sum(42)
    tracemalloc.start()
    try:
        result = verification.check_projector_sum(42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 8 * 2**20
