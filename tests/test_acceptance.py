"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); run the
whole module with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
from fractions import Fraction

import numpy as np

from haar_coherence import closed_forms as cf
from haar_coherence import oracles
from haar_coherence.estimators import estimate_average, estimate_tail
from haar_coherence.linalg import hermitian_part, swap_operator
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
    est2 = oracles.vandermonde_sqrt_integral_mc(2, 10**6, RngStream(5002, 0))
    target = 3 * math.pi / 4
    z_moment = abs(est2.mean - target) / est2.stderr
    z_closed2 = abs(est2.mean - cf.vandermonde_sqrt_integral(2)) / est2.stderr
    est3 = oracles.vandermonde_sqrt_integral_mc(3, 10**7, RngStream(5003, 0))
    z_closed3 = abs(est3.mean - cf.vandermonde_sqrt_integral(3)) / est3.stderr
    worst = max(z_moment, z_closed2, z_closed3)
    _report("criterion 5 (exp-weighted Vandermonde integral, n=2,3)",
            worst <= 4.0,
            f"n=2 vs 3pi/4: {z_moment:.2f} sigma; n=2 vs closed: {z_closed2:.2f}; "
            f"n=3 vs closed: {z_closed3:.2f} (limit 4)")


def test_criterion_6_twirl_identity():
    samples = 10**5
    worst_ratio = 0.0
    for n in (2, 3):
        rng = RngStream(6000 + n, 0)
        for _ in range(5):
            a = hermitian_part(rng.complex_normal((n * n) ** 2).reshape(n * n, n * n))
            emp = oracles.twofold_twirl_mc(a, n, samples, rng)
            gap = float(np.abs(emp - oracles.twofold_twirl(a, n)).max())
            budget = 5 * float(np.linalg.norm(a)) / math.sqrt(samples)
            worst_ratio = max(worst_ratio, gap / budget)
    fixed = all(
        np.array_equal(oracles.twofold_twirl(np.eye(n * n, dtype=complex), n),
                       np.eye(n * n)) and
        np.array_equal(oracles.twofold_twirl(swap_operator(n).astype(complex), n),
                       swap_operator(n))
        for n in (2, 3))
    emp_eye = oracles.twofold_twirl_mc(np.eye(4, dtype=complex), 2, 100, RngStream(6010, 0))
    eye_gap = float(np.abs(emp_eye - np.eye(4)).max())
    _report("criterion 6 (two-fold twirl vs closed form)",
            worst_ratio < 1.0 and fixed and eye_gap < 1e-12,
            f"worst error {worst_ratio:.2f} of 5||A||/sqrt(S); closed-form fixed "
            f"points exact; empirical identity residual {eye_gap:.1e}")


def test_criterion_7_spectral_average():
    est2 = oracles.trace_sqrt_squared_mc(2, 10**6, RngStream(7002, 0))
    target = 1 + 3 * math.pi / 16
    exact_gap = abs(cf.trace_sqrt_squared_average(2) - target)
    z2 = abs(est2.mean - target) / est2.stderr
    est3 = oracles.trace_sqrt_squared_mc(3, 10**6, RngStream(7003, 0))
    z3 = abs(est3.mean - cf.trace_sqrt_squared_average(3)) / est3.stderr
    _report("criterion 7 (spectral average of (Tr sqrt(rho))^2)",
            z2 <= 4.0 and z3 <= 4.0 and exact_gap < 1e-12,
            f"N=2: {z2:.2f} sigma vs 1 + 3pi/16; N=3: {z3:.2f} sigma vs closed form")


def test_criterion_8_typicality():
    samples = 10**5
    sound = True
    checked = 0
    for n in (16, 29, 32, 64):
        for eps in (0.1, 0.2, 0.3):
            tail = estimate_tail("pure", n, eps, samples, seed=8000 + n)
            if tail.bound < 1.0:
                checked += 1
                sound &= tail.frequency <= tail.bound
    for n in (2, 4, 8):
        for eps in (0.2, 0.4):
            tail = estimate_tail("mixed", n, eps, samples, seed=8100 + n)
            if tail.bound < 1.0:
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
