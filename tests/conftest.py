import pytest

from haar_coherence import verification


@pytest.fixture(scope="session")
def suite_all_seed42():
    """One shared run of ``verify --suite all --seed 42`` per test session."""
    return verification.run_suite("all", seed=42)
