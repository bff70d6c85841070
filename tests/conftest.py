import pytest
from hypothesis import settings

from seqpval import BoundaryTable, SpendingSequence


@pytest.fixture(scope="session")
def default_table():
    """Shared alpha=0.05, eps=1e-3, k=1000 table; tests must not mutate state
    other than extending it."""
    return BoundaryTable(0.05, SpendingSequence.default(1e-3, 1000))


# property tests draw the same examples on every run, without a time limit
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("tier1")
