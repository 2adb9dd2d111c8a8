"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); run the
whole module with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
from fractions import Fraction

import numpy as np

from haar_coherence import closed_forms as cf
from haar_coherence import oracles, verification
from haar_coherence.estimators import estimate_average, estimate_tail
from haar_coherence.linalg import swap_operator
from haar_coherence.sampling import RngStream


def _report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_pure_state_average():
    worst = 0.0
    for n in (2, 3, 4, 8, 16):
        est = estimate_average("pure", n, 10**5, seed=1000 + n)
        worst = max(worst, abs(est.mean - cf.avg_coherence_pure(n)) / est.stderr)
    _report("criterion 1 (pure-state average, N in {2,3,4,8,16})",
            worst <= 4.0, f"worst deviation {worst:.2f} sigma (limit 4)")


def test_criterion_2_mixed_state_average():
    gap2 = abs(cf.avg_coherence_mixed(2) - (1.0 / 3.0 - math.pi / 16))
    gap3 = abs(cf.avg_coherence_mixed(3) - (0.5 - 103 * math.pi / 1024))
    worst = 0.0
    for n in (2, 3, 4, 8):
        est = estimate_average("mixed", n, 10**5, seed=2000 + n)
        worst = max(worst, abs(est.mean - cf.avg_coherence_mixed(n)) / est.stderr)
    _report("criterion 2 (mixed-state average, N in {2,3,4,8})",
            worst <= 4.0 and gap2 < 1e-12 and gap3 < 1e-12,
            f"worst MC deviation {worst:.2f} sigma; closed-form gaps "
            f"{gap2:.1e}, {gap3:.1e} (tol 1e-12)")


def test_criterion_3_dimension_sweep_curve():
    values = [cf.avg_coherence_mixed(2**m) for m in range(1, 8)]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    plateau = all(0.25 <= v <= 0.30 for v in values[5:])  # N = 64, 128
    _report("criterion 3 (analytic sweep N = 2..128)",
            monotone and plateau,
            f"monotone={monotone}, plateau values {values[5]:.4f}, {values[6]:.4f} "
            "in [0.25, 0.30]")


def test_criterion_4_laguerre_moment_oracle():
    series = cf.moment_table(128, 0.5)
    quad = oracles.quadrature_moment_table(128, 0.5)
    gap_half = float(np.abs(series.values - quad.values).max())
    eye_gap = float(np.abs(cf.moment_table(7, 0.0).values - np.eye(7)).max())
    _report("criterion 4 (moment series vs quadrature, degrees <= 127)",
            gap_half <= 1e-9 and eye_gap <= 1e-10,
            f"q=1/2 max gap {gap_half:.2e} (tol 1e-9); q=0 identity gap "
            f"{eye_gap:.2e} (tol 1e-10)")


def test_criterion_5_vandermonde_integral():
    # the verify check itself, with its gates: n=2 and n=3 against the closed
    # form, each within 4 sigma, and the n=2 closed form against 3pi/4 exactly
    result = verification.check_vandermonde_mc(5000)
    _report("criterion 5 (exp-weighted Vandermonde integral, n=2,3)",
            result.passed, result.detail)


def test_criterion_6_twirl_identity():
    # the verify check: 5 random Hermitian A per N = 2, 3, entrywise error
    # under 5||A||/sqrt(S) at S = 10^5
    result = verification.check_twirl_mc(6000)
    fixed = all(
        np.array_equal(oracles.twofold_twirl(np.eye(n * n, dtype=complex), n),
                       np.eye(n * n)) and
        np.array_equal(oracles.twofold_twirl(swap_operator(n).astype(complex), n),
                       swap_operator(n))
        for n in (2, 3))
    emp_eye = oracles.twofold_twirl_mc(np.eye(4, dtype=complex), 2, 100, RngStream(6010, 0))
    eye_gap = float(np.abs(emp_eye - np.eye(4)).max())
    _report("criterion 6 (two-fold twirl vs closed form)",
            result.passed and fixed and eye_gap < 1e-12,
            f"{result.detail}; closed-form fixed points exact; empirical identity "
            f"residual {eye_gap:.1e}")


def test_criterion_7_spectral_average():
    # the verify check: N = 2 against 1 + 3pi/16 (closed form to 1e-12) and
    # N = 3 against the closed form, each within 4 sigma
    result = verification.check_spectral_average(7000)
    _report("criterion 7 (spectral average of (Tr sqrt(rho))^2)",
            result.passed, result.detail)


def test_criterion_8_typicality():
    samples = 10**5
    sound = True
    checked = 0
    # a grid point whose bound is >= 1 checks nothing, so it is not drawn;
    # each point's seed depends on N alone, so skipping one moves no other
    for n in (16, 29, 32, 64):
        for eps in (0.1, 0.2, 0.3):
            if cf.tail_bound_pure(n, eps) < 1.0:
                tail = estimate_tail("pure", n, eps, samples, seed=8000 + n)
                checked += 1
                sound &= tail.frequency <= tail.bound
    for n in (2, 4, 8):
        for eps in (0.2, 0.4):
            if cf.tail_bound_mixed(n, eps) < 1.0:
                tail = estimate_tail("mixed", n, eps, samples, seed=8100 + n)
                checked += 1
                sound &= tail.frequency <= tail.bound
    freqs = [estimate_tail("pure", n, 0.1, samples, seed=8200 + n).frequency
             for n in (4, 8, 16, 32)]
    monotone = all(a >= b for a, b in zip(freqs, freqs[1:]))
    _report("criterion 8 (tail soundness and concentration trend)",
            sound and monotone and checked >= 5,
            f"{checked} grid points with bound < 1 all sound; pure frequencies at "
            f"eps=0.1: {freqs} non-increasing")


def test_criterion_9_property_suites(suite_all_seed42):
    results = suite_all_seed42
    for r in results:
        print(f"    [{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.passed]
    _report("criterion 9 (verify --suite all, seed 42)",
            not failed,
            f"{len(results)} checks passed" if not failed else f"failed: {failed}")


def test_criterion_10_comparison_inequalities():
    ordering = all(cf.avg_cr_pure(n) > cf.avg_coherence_pure(n) and
                   cf.avg_cr_mixed(n) > cf.avg_coherence_mixed(n)
                   for n in range(2, 65))
    gap_ok = True
    for n in range(2, 65):
        exact = Fraction(n - 1, n) - Fraction(n - 1, n + 1)
        gap_ok &= abs(cf.pure_average_gap(n) - float(exact)) <= 1e-15 * float(exact)
    below_half = all(cf.avg_coherence_mixed(n) < (1 - 1 / n) / 2 for n in range(2, 65))
    _report("criterion 10 (comparison averages and gap identity, N = 2..64)",
            ordering and gap_ok and below_half,
            f"orderings hold; gap identity within 1e-15 relative; mixed average "
            f"below half the maximum")
