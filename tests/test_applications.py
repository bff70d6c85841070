import math

import numpy as np
import pytest

from seqpval import applications
from seqpval.applications import (
    ContingencyTable,
    DataError,
    EngineConfig,
    NullModel,
    bootstrap_pvalue,
    check_level,
    check_level_bootstrap,
    chisq_pvalue,
    double_bootstrap,
    example_table,
    find_sample_size,
    fit_independence,
    lrt_statistic,
    sample_null,
)
from seqpval.runner import BernoulliSampler, get_table, run


@pytest.fixture(scope="module")
def data():
    return example_table()


# -- data and statistic -----------------------------------------------------


def test_example_table_shape_and_margins(data):
    assert data.counts.shape == (5, 7)
    assert data.total == 39
    assert data.df == 24
    assert data.row_sums.sum() == data.col_sums.sum() == 39


def test_contingency_table_validation():
    with pytest.raises(DataError):
        ContingencyTable(np.array([[1, -2], [0, 1]]))
    with pytest.raises(DataError):
        ContingencyTable(np.array([1, 2, 3]))
    with pytest.raises(DataError):
        lrt_statistic(ContingencyTable(np.zeros((2, 2), dtype=int)))


def test_lrt_chisq_anchor(data):
    t = lrt_statistic(data)
    assert chisq_pvalue(t, data.df) == pytest.approx(0.031, abs=1e-3)


def test_lrt_zero_on_independent_table():
    # exact outer product: observed equals fitted everywhere
    tab = ContingencyTable(np.outer([2, 2], [2, 2]))
    assert lrt_statistic(tab) == pytest.approx(0.0, abs=1e-12)


def test_lrt_nonnegative_random_tables():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tab = ContingencyTable(rng.integers(0, 9, size=(3, 4)))
        if tab.total == 0:
            continue
        assert lrt_statistic(tab) >= -1e-12


def test_lrt_permutation_invariance(data):
    t = lrt_statistic(data)
    rng = np.random.default_rng(1)
    perm = data.counts[rng.permutation(5)][:, rng.permutation(7)]
    assert lrt_statistic(ContingencyTable(perm)) == pytest.approx(t, rel=1e-12)


def test_lrt_zero_margins_contribute_nothing(data):
    padded = np.zeros((6, 8), dtype=int)
    padded[:5, :7] = data.counts
    assert lrt_statistic(ContingencyTable(padded)) == pytest.approx(
        lrt_statistic(data), rel=1e-12
    )


# -- chi-square tail --------------------------------------------------------


def test_chisq_trivial_values():
    assert chisq_pvalue(0.0, 24) == 1.0
    assert chisq_pvalue(0.0, 1) == 1.0
    assert chisq_pvalue(1e9, 24) < 1e-200


def test_chisq_against_continued_fraction_oracle():
    # independent evaluation of Q(a, x) by series (x < a+1) or Lentz's
    # continued fraction (x >= a+1)
    def upper_q(a, x):
        if x == 0.0:
            return 1.0
        if x < a + 1.0:
            term = 1.0 / a
            total = term
            k = a
            while True:
                k += 1.0
                term *= x / k
                total += term
                if term < total * 1e-17:
                    break
            p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
            return 1.0 - p
        tiny = 1e-300
        b = x + 1.0 - a
        c = 1.0 / tiny
        d = 1.0 / b
        h = d
        for i in range(1, 500):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < 1e-16:
                break
        return h * math.exp(-x + a * math.log(x) - math.lgamma(a))

    for t, df in [(1.0, 1), (5.0, 3), (24.0, 24), (38.5, 24), (80.0, 24), (3.0, 10)]:
        assert chisq_pvalue(t, df) == pytest.approx(upper_q(df / 2, t / 2), abs=1e-10)


def test_chisq_decreasing_in_t():
    vals = [chisq_pvalue(t, 24) for t in np.linspace(0, 80, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_chisq_input_validation():
    with pytest.raises(ValueError):
        chisq_pvalue(-1.0, 24)
    with pytest.raises(ValueError):
        chisq_pvalue(1.0, 0)


# -- null model and sampling ------------------------------------------------


def test_fit_independence(data):
    model = fit_independence(data)
    assert model.cell_probs.sum() == pytest.approx(1.0)
    assert model.total == 39
    with pytest.raises(DataError):
        fit_independence(ContingencyTable(np.zeros((2, 2), dtype=int)))
    with pytest.raises(DataError):
        NullModel(cell_probs=np.array([[0.5, 0.2]]), total=10)


def test_sample_null_total_and_margins(data):
    model = fit_independence(data)
    rng = np.random.default_rng(7)
    m = 100_000
    acc = np.zeros_like(model.cell_probs)
    for _ in range(20):
        flat = rng.multinomial(model.total, model.cell_probs.ravel(), size=m // 20)
        acc += flat.sum(axis=0).reshape(model.cell_probs.shape)
    mean = acc / m
    expect = model.total * model.cell_probs
    se = np.sqrt(model.total * model.cell_probs * (1 - model.cell_probs) / m)
    assert np.all(np.abs(mean - expect) <= 4 * se + 1e-9)
    # row-sum means match the data's row sums
    row_mean = mean.sum(axis=1)
    assert np.allclose(row_mean, data.row_sums, atol=0.05)
    one = sample_null(model, rng)
    assert one.total == data.total


def test_sample_null_degenerate():
    probs = np.zeros((2, 2))
    probs[1, 1] = 1.0
    model = NullModel(cell_probs=probs, total=5)
    draw = sample_null(model, np.random.default_rng(0))
    assert draw.counts[1, 1] == 5 and draw.total == 5


# -- bootstrap workflows ----------------------------------------------------


def test_bootstrap_pvalue_side_and_counter(data):
    rep = bootstrap_pvalue(data, EngineConfig(seed=42))
    assert rep.result.stopped
    assert rep.result.side == "lower"  # the example data is significant at 5%
    assert 0.02 < rep.result.p_hat <= 0.05
    assert rep.samples_used == rep.result.n
    assert 1e3 <= rep.result.n <= 1e5


def test_bootstrap_determinism(data):
    a = bootstrap_pvalue(data, EngineConfig(seed=9))
    b = bootstrap_pvalue(data, EngineConfig(seed=9))
    assert a.result == b.result and a.samples_used == b.samples_used


def test_bootstrap_huge_statistic_stops_lower_immediately(data):
    boosted = ContingencyTable(data.counts * 40)  # wildly significant
    rep = bootstrap_pvalue(boosted, EngineConfig(seed=0))
    assert rep.result.side == "lower"
    assert rep.result.s == 0  # no null draw ever reaches the statistic


def test_bootstrap_truncation_interim(data):
    rep = bootstrap_pvalue(data, EngineConfig(seed=42, max_steps=1000))
    assert rep.result.status == "truncated"
    assert rep.interim is not None
    lo, hi = rep.interim
    assert lo < 0.05 < hi
    d = rep.to_json_dict()
    assert d["interim"]["p_min"] == lo


def test_check_level_sides(data):
    rep = check_level(data, config=EngineConfig(seed=7))
    # the asymptotic 5% test over-rejects (true rate ~0.075)
    assert rep.result.side == "upper"
    assert rep.result.p_hat > 0.05
    far = check_level(data, threshold_alpha=0.5, config=EngineConfig(seed=7))
    assert far.result.side == "lower"
    assert far.result.n < 200


def test_check_level_alphas_default_to_config(data):
    from scipy.stats import chi2

    rep = check_level(data, config=EngineConfig(seed=2, alpha=0.1))
    assert rep.chisq_p == 0.1
    assert rep.statistic == chi2.ppf(0.9, data.df)


def test_check_level_bootstrap_nested(data):
    rep = check_level_bootstrap(data, M=50, config=EngineConfig(seed=3, max_steps=200))
    n = rep.result.n
    # every consumed outer bit costs between 1 and M inner samples
    assert n <= rep.samples_used <= 50 * n
    with pytest.raises(ValueError):
        check_level_bootstrap(data, M=0)


def test_truncated_indicator_matches_full_run():
    streams = 0
    for num, den in ((1, 20), (1, 10)):
        alpha = num / den
        table = get_table(alpha)
        for M in (1, 7, 50, 250):
            bounds = applications._ClippedBounds(table, M, num, den)
            for p in (alpha, 0.8 * alpha, 1.25 * alpha, 0.005, 0.4):
                for seed in range(6):
                    bit, n = applications._truncated_indicator(
                        bounds, BernoulliSampler(p, seed=seed))
                    res = run(table, BernoulliSampler(p, seed=seed), max_steps=M)
                    assert bit == int(res.s * den <= num * res.n), (num, den, M, p, seed)
                    assert 1 <= n <= res.n
                    streams += 1
    assert streams >= 200


@pytest.mark.parametrize("construct", [
    lambda data: double_bootstrap(data, M=50, config=EngineConfig(seed=11)),
    lambda data: check_level_bootstrap(data, M=50, config=EngineConfig(seed=3, max_steps=200)),
], ids=["double_bootstrap", "check_level_bootstrap"])
def test_nested_charge_equals_outer_chunks_of_one(data, monkeypatch, construct):
    # outer bits computed past the outer stop are not charged, so the charge
    # does not depend on the outer run's chunk sizes
    chunked = construct(data)
    real_run = applications.run

    def one_outer_bit_per_take(table, source, **kwargs):
        if isinstance(source, (applications._DoubleBootstrapStream,
                               applications._InnerLevelStream)):
            kwargs.update(initial_chunk=1, max_chunk=1)
        return real_run(table, source, **kwargs)

    monkeypatch.setattr(applications, "run", one_outer_bit_per_take)
    single = construct(data)
    assert chunked.result == single.result and chunked.result.stopped
    assert chunked.samples_used == single.samples_used


def test_double_bootstrap_side_and_cost(data):
    rep = double_bootstrap(data, config=EngineConfig(seed=5))
    assert rep.result.stopped
    assert rep.result.side == "upper"  # adjusted p-value is not significant
    assert rep.result.p_hat > 0.05
    # the first stage, then per consumed outer bit one outer draw and 1 to M
    # inner samples
    n = rep.result.n
    assert 10_000 + 2 * n <= rep.samples_used <= 10_000 + 251 * n
    assert rep.samples_used < 150_000
    with pytest.raises(ValueError):
        double_bootstrap(data, M=0)
    with pytest.raises(ValueError):
        double_bootstrap(data, first_stage=0)


@pytest.mark.parametrize("construct, expected", [
    (lambda data: bootstrap_pvalue(data, EngineConfig(seed=11)),
     ("stopped", 18894, 18894)),
    (lambda data: check_level(data, config=EngineConfig(seed=2)),
     ("stopped", 1730, 1730)),
    (lambda data: double_bootstrap(data, config=EngineConfig(seed=5, max_steps=150)),
     ("truncated", 150, 18096)),
    (lambda data: check_level_bootstrap(
        data, M=50, config=EngineConfig(seed=3, max_steps=200)),
     ("stopped", 75, 2565)),
], ids=["bootstrap", "level", "double_bootstrap", "check_level_bootstrap"])
def test_seeded_samples_used_pinned(data, construct, expected):
    # seeded runs and their sample charges, pinned so that any change to the
    # charging is seen
    rep = construct(data)
    assert (rep.result.status, rep.result.n, rep.samples_used) == expected


# -- sample-size search -----------------------------------------------------


def z_test_power_stream(effect, alpha=0.05):
    """Bit stream factory: rejections of a one-sided z-test at shift `effect`."""
    from scipy.stats import norm

    crit = norm.ppf(1 - alpha)

    def make(size):
        rng = np.random.default_rng(1000 + size)
        power = 1.0 - norm.cdf(crit - effect * math.sqrt(size))
        return BernoulliSampler(power, rng=rng)

    return make


def analytic_min_n(effect, target, alpha=0.05):
    from scipy.stats import norm

    crit = norm.ppf(1 - alpha)
    n = 1
    while 1.0 - norm.cdf(crit - effect * math.sqrt(n)) <= target:
        n += 1
    return n


def test_find_sample_size_matches_analytic_power():
    # target 0.75 sits comfortably between the powers at n=21 (0.741) and
    # n=22 (0.758), so every probe is decidable well within the truncation
    make = z_test_power_stream(0.5)
    res = find_sample_size(make, 0.75, 2, 200, config=EngineConfig(seed=0), max_steps=500_000)
    assert res.resolved
    expect = analytic_min_n(0.5, 0.75)
    assert abs(res.size - expect) <= 1


def test_find_sample_size_honest_bracket_on_razor_edge():
    # when the crossing lands within noise of a probed size the search may
    # truncate instead of guessing; the bracket must still contain the answer
    make = z_test_power_stream(0.5)
    res = find_sample_size(make, 0.8, 2, 200, config=EngineConfig(seed=0), max_steps=50_000)
    expect = analytic_min_n(0.5, 0.8)
    if res.resolved:
        assert abs(res.size - expect) <= 1
    else:
        lo, hi = res.bracket
        assert lo <= expect <= hi + 1


def test_find_sample_size_trivial_target():
    res = find_sample_size(lambda n: BernoulliSampler(0.5, seed=1), 0.0, 5, 50)
    assert res.resolved and res.size == 5


def test_find_sample_size_non_bracketing():
    # power never reaches the target inside the range
    res = find_sample_size(
        lambda n: BernoulliSampler(0.1, seed=n), 0.9, 2, 20, config=EngineConfig(seed=0)
    )
    assert not res.resolved and res.size is None


def test_find_sample_size_flat_power_truncates_honestly():
    # power exactly at the target: every probe truncates, bracket unresolved
    res = find_sample_size(
        lambda n: BernoulliSampler(0.8, seed=7),
        0.8,
        2,
        64,
        config=EngineConfig(seed=0),
        max_steps=2000,
    )
    assert not res.resolved
    lo, hi = res.bracket
    assert lo <= hi


def test_find_sample_size_bad_range():
    with pytest.raises(ValueError):
        find_sample_size(lambda n: BernoulliSampler(0.5, seed=1), 0.5, 10, 5)
