import os

import pytest
from hypothesis import seed, settings

from heisenberg_ncg import acceptance as acc

# Every hypothesis suite draws its examples from HNC_SEED when it is set,
# else from the package default, and keeps no example database, so a failure
# replays from the seed alone.
SEED = int(os.environ.get("HNC_SEED", acc.DEFAULT_SEED))


def no_work(*args, **kwargs):
    """A stand-in for a step that a refused input must never reach."""
    raise AssertionError("the input must be refused before any work")


def seeded(max_examples: int = 100):
    """Hypothesis settings for a property test, under the seed rule above."""
    def decorate(test):
        test = settings(database=None, max_examples=max_examples, deadline=None)(test)
        return seed(SEED)(test)
    return decorate


@pytest.fixture(scope="session")
def acceptance_report():
    """All ten criteria at the default seed, computed once per session.

    Criterion 3 is the slow one (the truncation-48 Dirac pairing), so tests
    that need that pairing read it from here instead of running it again.
    """
    return acc.run_all(seed=acc.DEFAULT_SEED)
