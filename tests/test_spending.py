import math

import numpy as np
import pytest

from seqpval.spending import (
    MAX_EPSILON,
    SpendingError,
    SpendingSequence,
    validate_spending,
)


def test_default_values():
    seq = SpendingSequence.default(1e-3, 1000)
    assert seq.value(1) == pytest.approx(1e-3 / 1001)
    assert seq.value(1000) == pytest.approx(5e-4)
    # converges to epsilon from below
    assert seq.value(10**9) < 1e-3
    assert seq.value(10**9) > 1e-3 * 0.999


def test_values_vector_matches_scalar():
    seq = SpendingSequence.default(1e-2, 50)
    vec = seq.values(200)
    assert vec.shape == (200,)
    for n in (1, 7, 200):
        assert vec[n - 1] == seq.value(n)


def test_increments_positive_and_summing():
    seq = SpendingSequence.default(1e-3, 1000)
    incs = [seq.increment(n) for n in range(1, 300)]
    assert all(i > 0 for i in incs)
    assert math.fsum(incs) == pytest.approx(seq.value(299), abs=1e-18)


def test_delta_formula():
    seq = SpendingSequence.default(1e-3, 1000)
    inc = seq.value(10) - seq.value(9)
    assert seq.delta(10) == pytest.approx(math.sqrt(-10 * math.log(inc) / 2))
    with pytest.raises(SpendingError):
        seq.delta(1)


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
    assert seq.kind == "custom"
    assert seq.value(2) == 2e-4
    assert seq.increment(3) == pytest.approx(3e-4)
    with pytest.raises(SpendingError):
        seq.value(4)  # past the end of the table


def test_custom_table_must_be_monotone():
    with pytest.raises(SpendingError):
        SpendingSequence.custom(1e-2, [2e-4, 1e-4])
    with pytest.raises(SpendingError):
        SpendingSequence.custom(1e-2, [5e-3, 2e-2])  # reaches epsilon


def test_zero_increment_gives_infinite_delta():
    seq = SpendingSequence.custom(1e-2, [1e-4, 1e-4, 2e-4])
    assert math.isinf(seq.delta(2))
    assert not math.isinf(seq.delta(3))


def test_key_distinguishes_configs():
    a = SpendingSequence.default(1e-3, 1000)
    b = SpendingSequence.default(1e-3, 999)
    c = SpendingSequence.custom(1e-3, [1e-5])
    assert a.key() != b.key()
    assert a.key() != c.key()
    assert a.key() == SpendingSequence.default(1e-3, 1000).key()


def test_validate_spending_flags_fast_decay():
    ok = validate_spending(SpendingSequence.default(1e-3, 1000), 500)
    assert ok.ok
    stalled = validate_spending(SpendingSequence.custom(1e-2, [1e-4] * 10), 10)
    assert not stalled.ok
    assert any("non-positive" in msg for _, msg in stalled.flags)
