import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from haar_coherence import estimators, verification


@pytest.fixture
def many_cpus(monkeypatch):
    """Report 64 usable CPUs, so that a pool reaches the thread count a test asks for on any
    host; the engine never starts more threads than the CPUs it may use."""
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 64)


@pytest.fixture(scope="session")
def suite_all_seed42():
    """One shared run of ``verify --suite all --seed 42`` per test session."""
    return verification.run_suite("all", seed=42)


def host_simd_class() -> str:
    """Return "avx512" where numpy's float64 log1p runs its AVX-512 loop, which differs from
    math.log1p (glibc) in the last bit of about one input in twelve on this grid, else
    "baseline". Probed rather than read from numpy's CPU report, so that
    NPY_DISABLE_CPU_FEATURES=X86_V4 selects the baseline class on an AVX-512 host."""
    x = np.linspace(-0.9, 0.9, 1001)
    return "avx512" if np.log1p(x).tolist() != [math.log1p(v) for v in x.tolist()] else "baseline"


@pytest.fixture(scope="session")
def simd_class():
    """The SIMD class whose golden values this host reproduces (see test_golden.py)."""
    return host_simd_class()


# pi to 60 significant digits: its error moves pi Q_n by ~1e-60 relative, far below an ulp
PI_60 = Fraction("3.14159265358979323846264338327950288419716939937510582097494")


@lru_cache(maxsize=None)
def exact_half_bracket_q(n: int) -> Fraction:
    """Q_n, exactly: the bracket (sum_k I_kk)^2 - sum_kl I_kl^2 of the q = 1/2 Laguerre moment
    table of degrees 0..n-1 is pi Q_n. With b_j = binom(1/2, j), g_r = Gamma(r + 3/2)/(sqrt(pi)
    r!) and c_rs = sum_{k >= max(r, s)} b_{k-r} b_{k-s}, Q_n = (sum_r g_r c_rr)^2 -
    sum_rs g_r g_s c_rs^2. Every b_j 4^j and g_r 2^(2r+1) is an integer, so the sums run in
    Python ints over one power-of-two denominator."""
    beta, gamma, central = [], [], 1  # central = C(2j, j)
    for j in range(n):
        # b_j = (-1)^(j+1) C(2j, j)/((2j - 1) 4^j) and g_j = (2j + 1) C(2j, j)/2^(2j+1), both
        # scaled by 4^(n-1) 2: the exact division by 2j - 1 leaves an integer
        beta.append((-1) ** (j + 1) * central // (2 * j - 1) << 2 * (n - 1 - j) + 1)
        gamma.append((2 * j + 1) * central << 2 * (n - 1 - j))
        central = central * (2 * j + 1) * (2 * j + 2) // (j + 1) ** 2
    trace = squares = 0
    for d in range(n):
        c, total = [0] * (n - d), 0
        for j in range(n - d):  # c[r] = c_{r, r+d}: the partial sums over j <= n - 1 - d - r
            total += beta[j] * beta[j + d]
            c[n - d - 1 - j] = total
        if d == 0:
            trace = sum(g * x for g, x in zip(gamma, c))
        squares += (2 if d else 1) * sum(gamma[r] * gamma[r + d] * c[r] ** 2 for r in range(n - d))
    # beta and gamma carry 2^(2n-1), c 2^(4n-2): trace^2 and every g g c^2 carry 2^(12n-6)
    return Fraction(trace * trace - squares, 2 ** (12 * n - 6))


def ulps_from(value: float, exact: Fraction) -> float:
    """(value - exact) in units of the last place of the double nearest exact."""
    return float((Fraction(value) - exact) / Fraction(math.ulp(float(exact))))
