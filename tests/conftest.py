import math

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
