import numpy as np
import pytest

from seqpval.spending import MAX_EPSILON, SpendingError, SpendingSequence


def value(seq, n):
    """eps_n alone, as the budget recursion reads it."""
    (eps_n,) = seq.values(n, start=n)
    return eps_n


def test_default_values():
    seq = SpendingSequence.default(1e-3, 1000)
    assert value(seq, 1) == pytest.approx(1e-3 / 1001)
    assert value(seq, 1000) == pytest.approx(5e-4)
    # converges to epsilon from below
    assert value(seq, 10**9) < 1e-3
    assert value(seq, 10**9) > 1e-3 * 0.999


def test_values_vector_matches_scalar():
    seq = SpendingSequence.default(1e-2, 50)
    vec = seq.values(200)
    assert vec.shape == (200,)
    for n in (1, 7, 200):
        assert vec[n - 1] == value(seq, n)


def test_epsilon_bounds():
    with pytest.raises(SpendingError):
        SpendingSequence.default(0.3)
    with pytest.raises(SpendingError):
        SpendingSequence.default(0.0)
    # the boundary value is allowed
    SpendingSequence.default(MAX_EPSILON)


def test_exactly_one_kind():
    with pytest.raises(SpendingError):
        SpendingSequence(epsilon=1e-3)
    with pytest.raises(SpendingError):
        SpendingSequence(epsilon=1e-3, k=10, table=np.array([1e-5]))


def test_custom_table():
    seq = SpendingSequence.custom(1e-2, [1e-4, 2e-4, 5e-4])
    assert seq.key()[0] == "custom"
    assert value(seq, 2) == 2e-4
    assert value(seq, 3) - value(seq, 2) == pytest.approx(3e-4)
    with pytest.raises(SpendingError):
        value(seq, 4)  # past the end of the table


def test_custom_table_must_be_monotone():
    with pytest.raises(SpendingError):
        SpendingSequence.custom(1e-2, [2e-4, 1e-4])
    with pytest.raises(SpendingError):
        SpendingSequence.custom(1e-2, [5e-3, 2e-2])  # reaches epsilon


def test_key_distinguishes_configs():
    a = SpendingSequence.default(1e-3, 1000)
    b = SpendingSequence.default(1e-3, 999)
    c = SpendingSequence.custom(1e-3, [1e-5])
    assert a.key() != b.key()
    assert a.key() != c.key()
    assert a.key() == SpendingSequence.default(1e-3, 1000).key()
