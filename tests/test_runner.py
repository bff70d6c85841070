import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_boundary import chernoff_rates

from seqpval.boundary import BoundaryTable
from seqpval.runner import (
    LOWER,
    STOPPED,
    TRUNCATED,
    UPPER,
    BernoulliSampler,
    RunResult,
    SamplerError,
    TextBitSource,
    _IterSource,
    get_table,
    _cap,
    _scan,
    h_alpha,
    interim_edges,
    interim_interval,
    run,
)
from seqpval.spending import SpendingSequence


def first_upper_step(table, n_max=500):
    """First n at which an all-ones stream stops (S_n = n reaches U_n)."""
    table.extend(n_max)
    for n in range(1, n_max + 1):
        if n >= table.upper(n):
            return n
    raise AssertionError("no upper stop found")


class Capped:
    """A take(m) source over an iterable of bits that returns at most `cap`
    bits per take."""

    def __init__(self, bits, cap: int):
        self._source = _IterSource(bits)
        self.cap = cap

    def take(self, m: int) -> np.ndarray:
        return self._source.take(min(m, self.cap))


def first_lower_step(table, n_max=5000):
    table.extend(n_max)
    for n in range(1, n_max + 1):
        if table.lower(n) >= 0:
            return n
    raise AssertionError("no lower stop found")


def test_all_ones_stops_at_tabulated_step(default_table):
    n_up = first_upper_step(default_table)
    res = run(default_table, iter([1] * 100))
    assert res.status == STOPPED and res.side == UPPER
    assert res.n == n_up and res.s == n_up


def test_all_zeros_stops_at_tabulated_step(default_table):
    n_lo = first_lower_step(default_table)
    res = run(default_table, iter([0] * (n_lo + 100)))
    assert res.status == STOPPED and res.side == LOWER
    assert res.n == n_lo and res.s == 0


def test_truncation(default_table):
    res = run(default_table, iter([0, 1, 0, 0]), max_steps=3)
    assert res.status == TRUNCATED
    assert res.n == 3 and res.s == 1
    assert res.p_hat == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        _ = res.tau


def test_exhausted_stream_truncates(default_table):
    res = run(default_table, iter([0, 0]))
    assert res.status == TRUNCATED and res.n == 2


def test_empty_stream_errors(default_table):
    with pytest.raises(SamplerError):
        run(default_table, iter([]))


def test_sampler_failure_wraps_partial_state(default_table):
    calls = {"k": 0}

    def flaky():
        calls["k"] += 1
        if calls["k"] > 40:
            raise OSError("stream lost")
        return 0

    with pytest.raises(SamplerError) as exc:
        run(default_table, Capped(iter(flaky, None), 16))
    assert (exc.value.n, exc.value.s) == (40, 0)


@pytest.mark.parametrize("bits", [[2] * 3, [-1] * 3, [0.7] * 300],
                         ids=["two", "minus_one", "fraction"])
def test_iterable_bits_must_be_zero_or_one(default_table, bits):
    with pytest.raises(SamplerError) as exc:
        run(default_table, iter(bits))
    assert (exc.value.n, exc.value.s) == (0, 0)
    assert isinstance(exc.value.__cause__, ValueError)


@pytest.mark.parametrize("source", [
    lambda n: iter([0] * n + [2]),
    lambda n: TextBitSource(["0\n"] * n + ["x\n"]),
], ids=["bad_bit", "bad_token"])
def test_failure_after_the_stop_keeps_the_stop(default_table, source):
    # the stop lies inside the chunk that holds the failure; chunks of one
    # bit never reach the failure, and larger chunks must agree
    n_lo = first_lower_step(default_table)
    expected = RunResult(STOPPED, n_lo, 0, LOWER)
    assert run(default_table, Capped(source(n_lo), 1)) == expected
    assert run(default_table, source(n_lo)) == expected


def test_seeded_determinism(default_table):
    a = run(default_table, BernoulliSampler(0.07, seed=123))
    b = run(default_table, BernoulliSampler(0.07, seed=123))
    assert a == b


def test_chunking_invariance(default_table):
    bits = BernoulliSampler(0.12, seed=3).take(2000)
    r1 = run(default_table, Capped((int(b) for b in bits), 1))
    r2 = run(default_table, Capped((int(b) for b in bits), 37))
    r3 = run(default_table, iter(int(b) for b in bits))
    assert r1 == r2 == r3


def test_text_source(default_table):
    lines = ["0\n", " 1 \n", "\n", "0\n"]
    assert list(TextBitSource(lines)) == [0, 1, 0]
    with pytest.raises(ValueError):
        list(TextBitSource(["2\n"]))
    with pytest.raises(SamplerError) as exc:
        run(default_table, TextBitSource(["0\n", "x\n"]))
    assert "invalid bit 'x'" in str(exc.value)


def test_progress_reports(default_table):
    seen = []
    run(
        default_table,
        BernoulliSampler(0.05, seed=5),
        max_steps=3000,
        report_every=1000,
        progress=seen.append,
    )
    assert seen, "expected at least one progress record"
    for rec in seen:
        assert rec["p_min"] <= rec["s"] / rec["n"] + 1 / rec["n"]
        assert set(rec) == {"n", "s", "p_min", "p_max", "elapsed_ms"}


def test_progress_does_not_change_outcome(default_table):
    a = run(
        default_table,
        BernoulliSampler(0.05, seed=5),
        max_steps=5000,
        report_every=100,
        progress=lambda r: None,
    )
    b = run(default_table, BernoulliSampler(0.05, seed=5), max_steps=5000)
    assert a == b


# -- interim intervals ------------------------------------------------------


def test_interim_contains_every_future_estimate(default_table):
    # any run still alive at n must eventually report inside the interval
    lo, hi = interim_interval(default_table, 200)
    for seed in range(30):
        res = run(default_table, BernoulliSampler(0.05, seed=seed), max_steps=300_000)
        if res.status == STOPPED and res.n > 200:
            assert lo <= res.p_hat <= hi


def test_interim_intervals_shrink(default_table):
    widths = []
    for n in (100, 1000, 10_000):
        lo, hi = interim_interval(default_table, n)
        widths.append(hi - lo)
        assert lo < default_table.alpha < hi
    assert widths[0] > widths[1] > widths[2]


def hugging_bits(table, n, side):
    """n bits keeping S one step inside the lower (or upper) boundary."""
    table.extend(n)
    bits = []
    s = 0
    for step in range(1, n + 1):
        if side == LOWER:
            x = 1 if s <= table.lower(step) else 0
        else:
            x = 1 if s + 1 < table.upper(step) else 0
        bits.append(x)
        s += x
    return bits


def test_interim_edges_are_attained(default_table):
    # runs alive at n = 1000 that stop at the two edges of the interim
    # interval: hug L, then fall onto it; hug U, then climb onto it
    lower_bits = hugging_bits(default_table, 1000, LOWER) + [0] * 50
    upper_bits = hugging_bits(default_table, 1010, UPPER) + [1] * 50
    for bits in (lower_bits, upper_bits):
        alive = run(default_table, iter(bits), max_steps=1000)
        assert alive.status == TRUNCATED and alive.n == 1000
    low = run(default_table, iter(lower_bits))
    high = run(default_table, iter(upper_bits))
    assert (low.status, low.side, low.n, low.s) == (STOPPED, LOWER, 1005, 25)
    assert (high.status, high.side, high.n, high.s) == (STOPPED, UPPER, 1011, 81)
    assert interim_interval(default_table, 1000) == (low.p_hat, high.p_hat)


def test_interim_early_steps_are_trivial(default_table):
    lo, hi = interim_interval(default_table, 1)
    assert lo == 0.0 and hi <= 1.0


def doubling_scan_edges(table, n):
    """`interim_edges` by a window that doubles from ceil(2/alpha) steps until
    the envelope of the bisected Chernoff rates at its end lies inside the
    scanned extremes: the reference for the corridor bound.  Sound where the
    envelope narrows as the horizon grows, as on every table tested here."""
    win = max(1, math.ceil(2.0 / table.alpha))
    lo_edge = hi_edge = None
    scanned = n
    for _ in range(64):
        m = scanned + win
        lo_edge, hi_edge = _scan(table, scanned, m, (lo_edge, hi_edge))
        w_hi = hi_edge[0] / hi_edge[1] if hi_edge else -math.inf
        w_lo = lo_edge[0] / lo_edge[1] if lo_edge else math.inf
        scanned = m
        q_lo, q_hi = chernoff_rates(table, m)
        hi_done = w_hi >= 1.0 or q_hi + 1.0 / m <= w_hi
        lo_done = w_lo <= 0.0 or q_lo - 1.0 / m >= w_lo
        if hi_done and lo_done:
            return (0, 1) if w_lo <= 0.0 else lo_edge, (1, 1) if w_hi >= 1.0 else hi_edge
        win *= 2
    return (0, 1), (1, 1)


@pytest.mark.parametrize("alpha, epsilon, k", [
    (0.05, 1e-3, 1000), (0.1, 1e-3, 1000), (0.01, 1e-3, 1000), (0.1, 1e-2, 100), (0.2, 0.05, 50)])
def test_interim_edges_equal_doubling_scan(alpha, epsilon, k):
    table = BoundaryTable(alpha, SpendingSequence.default(epsilon, k))
    for n in list(range(1, 300)) + list(range(300, 12_001, 37)) + [20_000, 40_000, 60_000]:
        assert interim_edges(table, n) == doubling_scan_edges(table, n), n


def test_interim_reach_at_10000():
    # the least horizon the corridor bound certifies, not the end of a
    # doubled window (30,440) nor the Chernoff envelope's (22,372)
    table = BoundaryTable(0.05, SpendingSequence.default(1e-3, 1000))
    assert interim_edges(table, 10_000) == ((410, 10_003), (596, 10_004))
    assert table.n_max <= 21_379


def assert_caps(table, m, edges, end):
    """The `_cap` horizon M of each unclipped edge Q, checked on the table:
    U_nu <= floor((nu + 1)Q), or L_nu >= ceil((nu + 1)Q) - 1, for nu in
    [M, end(M)]."""
    for sign, (num, den) in zip((-1, 1), edges):
        if not 0 < num < den:
            continue
        cap = _cap(table, m, num / den, sign)
        assert cap is not None and cap > m
        last = end(cap)
        table.extend(last)
        nu = np.arange(cap, last + 1)
        if sign == 1:
            assert np.all(table.upper_array(last)[cap - 1 :] <= (nu + 1) * num // den)
        else:
            assert np.all(table.lower_array(last)[cap - 1 :] >= -(-(nu + 1) * num // den) - 1)


@given(alpha=st.floats(0.01, 0.5), epsilon=st.floats(1e-5, 0.25), k=st.integers(1, 3000),
       n=st.integers(1, 3000))
def test_corridor_caps_hold_and_edges_equal_doubling_scan(alpha, epsilon, k, n):
    table = BoundaryTable(alpha, SpendingSequence.default(epsilon, k))
    edges = interim_edges(table, n)
    assert edges == doubling_scan_edges(table, n)
    assert_caps(table, n, edges, end=lambda cap: 3 * cap)


def test_custom_table_certifies_no_side_across_zero_increments():
    # default increments up to 6000 steps, but none spent on (2500, 3500]:
    # no bound on the boundaries holds there, so no side may be certified
    # before 3501, and the edges are the hull of every stop to the table's end
    values = SpendingSequence.default(1e-3, 1000).values(6000)
    values[2500:3500] = values[2499]
    table = BoundaryTable(0.05, SpendingSequence.custom(1e-3, values))
    n = 1000
    edges = interim_edges(table, n)
    for sign, (num, den) in zip((-1, 1), edges):
        assert _cap(table, n, num / den, sign) > 3500
    table.extend(6000)
    up, lo = table.upper_array(6000), table.lower_array(6000)
    later = range(n + 1, 6001)
    his = [Fraction(int(up[nu - 2]), nu) for nu in later if up[nu - 1] <= up[nu - 2]]
    los = [Fraction(int(lo[nu - 2]) + 1, nu) for nu in later if lo[nu - 1] > lo[nu - 2]]
    assert (Fraction(*edges[0]), Fraction(*edges[1])) == (min(los), max(his))
    assert_caps(table, n, edges, end=lambda cap: 5999)


def test_custom_table_scan_stops_at_its_end():
    # the default values to 1,100 steps: from n = 1,090 the first window runs
    # past the end, where no run steps; no lower stop lies in (1090, 1100]
    values = SpendingSequence.default(1e-3, 1000).values(1100)
    table = BoundaryTable(0.05, SpendingSequence.custom(1e-3, values))
    assert interim_edges(table, 1000) == ((25, 1005), (81, 1011))
    edges = interim_edges(table, 1090)
    table.extend(1100)
    up, lo = table.upper_array(1100), table.lower_array(1100)
    later = range(1091, 1101)
    his = [Fraction(int(up[nu - 2]), nu) for nu in later if up[nu - 1] <= up[nu - 2]]
    assert not any(lo[nu - 1] > lo[nu - 2] for nu in later)
    assert edges == ((0, 1), (86, 1091)) and Fraction(*edges[1]) == max(his)
    assert interim_edges(table, 1100) == ((0, 1), (1, 1))


# -- table cache and combinator ---------------------------------------------


def test_get_table_is_shared():
    t1 = get_table(0.05, 1e-3, 1000)
    t2 = get_table(0.05, 1e-3, 1000)
    t3 = get_table(0.07, 1e-3, 1000)
    assert t1 is t2
    assert t1 is not t3


def test_h_alpha_combinator(default_table):
    p = h_alpha(0.05, BernoulliSampler(0.2, seed=9), table=default_table)
    assert p > 0.05
    p2 = h_alpha(0.05, iter([0, 1, 0, 0]), max_steps=4, table=default_table)
    assert p2 == pytest.approx(0.25)


@pytest.mark.parametrize("max_steps", [0, -5])
def test_max_steps_below_one_is_rejected(default_table, max_steps):
    with pytest.raises(ValueError, match="max_steps"):
        run(default_table, BernoulliSampler(0.2, seed=1), max_steps=max_steps)
    with pytest.raises(ValueError, match="max_steps"):
        h_alpha(0.05, iter([0, 1]), max_steps=max_steps, table=default_table)


def test_independent_tables_unaffected_by_runs():
    fresh = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(100)
    before = fresh.upper_array(100).copy()
    run(fresh, BernoulliSampler(0.05, seed=2), max_steps=50)
    assert np.array_equal(before, fresh.upper_array(100))
