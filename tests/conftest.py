import pytest

from heisenberg_ncg import acceptance as acc


@pytest.fixture(scope="session")
def acceptance_report():
    """All ten criteria at the default seed, computed once per session.

    Criterion 3 is the slow one (the truncation-48 Dirac pairing), so tests
    that need that pairing read it from here instead of running it again.
    """
    return acc.run_all(seed=acc.DEFAULT_SEED)
