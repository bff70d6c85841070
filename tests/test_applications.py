import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from seqpval import _native, applications, runner
from seqpval.applications import (
    ContingencyTable,
    DataError,
    EngineConfig,
    NullModel,
    bootstrap_pvalue,
    check_level,
    check_level_bootstrap,
    chisq_pvalue,
    chisq_quantile,
    double_bootstrap,
    example_table,
    find_sample_size,
    fit_independence,
    lrt_statistic,
    sample_null,
    sample_null_batch,
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


@pytest.mark.parametrize("counts", [
    [[1.5, 2.7], [3.0, 4.0]],
    [[1.0, np.nan], [3.0, 4.0]],
    [[1.0, np.inf], [3.0, 4.0]],
    [[1.0, 2.0], [3.0, -4.0]],
    [["a", "b"], ["c", "d"]],
])
def test_contingency_table_rejects_non_integral_counts(counts):
    with pytest.raises(DataError):
        ContingencyTable(np.array(counts))


def test_contingency_table_accepts_integral_floats():
    tab = ContingencyTable(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert tab.counts.dtype == np.int64
    assert tab.counts.tolist() == [[1, 2], [3, 4]]


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


def _permutations(counts):
    """Every row/column permutation of a table, in blocks: all column
    permutations of one row permutation each."""
    rows, cols = counts.shape
    col_perms = np.array(list(itertools.permutations(range(cols))))
    for rp in itertools.permutations(range(rows)):
        yield counts[list(rp)][:, col_perms].transpose(1, 0, 2)


def _tie_tables():
    rng = np.random.default_rng(4)
    tables = [example_table().counts]
    for rows, cols, total in ((2, 3, 17), (3, 4, 200), (3, 4, 10**5), (4, 4, 10**6)):
        q = rng.dirichlet(np.ones(rows * cols))
        tables.append(rng.multinomial(total, q).reshape(rows, cols))
    return tables


@pytest.mark.parametrize("counts", _tie_tables(), ids=lambda c: f"{c.shape}_N{c.sum()}")
def test_every_permutation_counts_as_reaching_the_statistic(counts):
    # a table's row/column permutations have exactly its statistic, so the
    # tie rule counts every one of them as T* >= t_obs
    tab = ContingencyTable(counts)
    model = fit_independence(tab)
    t_obs = lrt_statistic(tab)
    for block in _permutations(tab.counts):
        assert applications._reaches(
            applications._lrt_batch(block, tab.total), t_obs, model).all()


@pytest.mark.parametrize("counts", _tie_tables(), ids=lambda c: f"{c.shape}_N{c.sum()}")
def test_null_stream_and_first_stage_count_permutations(counts, monkeypatch):
    tab = ContingencyTable(counts)
    t_obs = lrt_statistic(tab)
    model = fit_independence(tab)
    perms = np.concatenate([b for b, _ in zip(_permutations(tab.counts), range(3))])
    # the draw with the least statistic, clearly below t_obs: it must not count
    rng = np.random.default_rng(0)
    draws = sample_null_batch(model, rng, 200)
    low = draws[np.argmin(applications._lrt_batch(draws, tab.total))]
    assert lrt_statistic(ContingencyTable(low)) < t_obs - 1e-3
    batch = np.concatenate([perms, low[None]])
    monkeypatch.setattr(applications, "sample_null_batch", lambda model, rng, size: batch[:size])

    stream = applications.NullStatStream(model, t_obs, rng)
    bits = stream.take(batch.shape[0])
    assert bits[:-1].all() and bits[-1] == 0

    class StopAtSecondStage(Exception):
        pass

    def first_stage_estimate(table, M, num, den):
        raise StopAtSecondStage(num, den)

    monkeypatch.setattr(applications, "_ClippedBounds", first_stage_estimate)
    with pytest.raises(StopAtSecondStage) as stop:
        double_bootstrap(tab, first_stage=batch.shape[0], config=EngineConfig(seed=0))
    assert stop.value.args == (len(perms), batch.shape[0])


def test_lrt_statistic_equals_its_entry_in_any_batch(data):
    model = fit_independence(data)
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 64, 1000):
        batch = sample_null_batch(model, rng, size)
        for pos in (0, size // 2, size - 1):
            batch[pos] = data.counts
            stats = applications._lrt_batch(batch, data.total)
            assert stats[pos] == lrt_statistic(data)
        stats = applications._lrt_batch(batch, data.total)
        for pos in range(0, size, max(1, size // 50)):
            assert stats[pos] == lrt_statistic(ContingencyTable(batch[pos]))


def test_lrt_within_its_rounding_bound_of_50_digits():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50

    def exact(a):
        n = int(a.sum())
        r, c = a.sum(axis=1), a.sum(axis=0)
        return 2 * mp.fsum(mp.mpf(int(a[i, j])) * mp.log(mp.mpf(int(a[i, j]) * n) / (int(r[i]) * int(c[j])))
                           for i in range(a.shape[0]) for j in range(a.shape[1]) if a[i, j] > 0)

    rng = np.random.default_rng(11)
    checked = 0
    for rows, cols in ((2, 2), (3, 5), (5, 7), (8, 10)):
        for total in (10, 1000, 10**5, 10**6):
            q = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
            q[rng.integers(rows)] = 0.0  # a zero row
            q[:, rng.integers(cols)] = 0.0  # and a zero column
            if rng.random() < 0.5:
                # near independence, where T is small and the terms cancel
                q = np.outer(q.sum(axis=1), q.sum(axis=0))
            batch = rng.multinomial(total, (q / q.sum()).ravel(), size=4).reshape(4, rows, cols)
            got = applications._lrt_batch(batch, total)
            bound = applications._lrt_rounding_bound((rows, cols), total)
            for a, t in zip(batch, got):
                assert abs(mp.mpf(float(t)) - exact(a)) <= bound, (rows, cols, total)
                checked += 1
    assert checked == 64


def test_bundled_statistic_within_its_rounding_bound(data):
    # 2 (sum a log a - sum r log r - sum c log c + N log N) in exact terms
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    xlx = lambda k: mp.mpf(int(k)) * mp.log(int(k)) if k > 0 else mp.mpf(0)  # noqa: E731
    exact = 2 * (sum(xlx(k) for k in data.counts.ravel()) - sum(xlx(k) for k in data.row_sums)
                 - sum(xlx(k) for k in data.col_sums) + xlx(data.total))
    assert abs(exact - mp.mpf("38.519293416057050")) < mp.mpf("1e-15")
    bound = applications._lrt_rounding_bound(data.counts.shape, data.total)
    assert abs(mp.mpf(lrt_statistic(data)) - exact) <= bound


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


def test_chisq_quantile_equals_scipy_ppf():
    from scipy.stats import chi2

    for df in range(1, 80):
        for alpha in (0.001, 0.01, 0.025, 0.05, 0.1, 0.2, 0.5):
            t = chisq_quantile(alpha, df)
            assert t == float(chi2.ppf(1.0 - alpha, df)), (alpha, df)
            assert chisq_pvalue(t, df) == pytest.approx(alpha, rel=1e-9)


def test_check_level_leaves_scipy_stats_unloaded():
    code = ("import sys; from seqpval.applications import EngineConfig, check_level, "
            "example_table; check_level(example_table(), config=EngineConfig(seed=2)); "
            "assert 'scipy.stats' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


# -- null model and sampling ------------------------------------------------


def test_fit_independence(data):
    model = fit_independence(data)
    assert model.cell_probs.sum() == pytest.approx(1.0)
    assert model.total == 39
    with pytest.raises(DataError):
        fit_independence(ContingencyTable(np.zeros((2, 2), dtype=int)))
    with pytest.raises(DataError):
        NullModel(cell_probs=np.array([[0.5, 0.2]]), total=10)


def _binomial_gof_pvalue(counts: np.ndarray, n: int, q: float) -> float:
    """Chi-square goodness-of-fit p-value of draws `counts` against
    Binomial(n, q), over runs of adjacent values pooled to an expected count
    of at least 5."""
    from scipy.stats import binom, chi2

    expected = counts.size * binom.pmf(np.arange(n + 1), n, q)
    observed = np.bincount(counts, minlength=n + 1)
    e_bins, o_bins, e_acc, o_acc = [], [], 0.0, 0
    for e, o in zip(expected, observed):
        e_acc, o_acc = e_acc + e, o_acc + o
        if e_acc >= 5.0:
            e_bins.append(e_acc)
            o_bins.append(o_acc)
            e_acc, o_acc = 0.0, 0
    e_bins[-1] += e_acc
    o_bins[-1] += o_acc
    e, o = np.array(e_bins), np.array(o_bins)
    return float(chi2.sf(np.sum((o - e) ** 2 / e), e.size - 1))


def _null_models():
    rng = np.random.default_rng(12)
    padded = np.zeros((6, 8), dtype=int)  # the bundled table, a zero row and column
    padded[:5, :7] = example_table().counts
    q = np.outer(rng.dirichlet(np.ones(2)), [0.3, 0.0, 0.7])
    return [fit_independence(example_table()), fit_independence(ContingencyTable(padded)),
            # above the multinomial cutover, with a zero column
            NullModel(cell_probs=q, total=applications._INVERSION_MAX_DRAWS_PER_CELL * 6 + 1)]


def test_sample_null_total_and_margins(monkeypatch):
    # the compiled draw first (when it is available), then the numpy loop
    for numpy_path in (False, True):
        if numpy_path:
            monkeypatch.setattr(_native, "_lib", None)
        for model in _null_models():
            rng = np.random.default_rng(7)
            m = 20_000
            draws = sample_null_batch(model, rng, m)
            q = model.cell_probs
            assert draws.shape == (m,) + q.shape and draws.dtype == np.int64
            assert np.all(draws.sum(axis=(1, 2)) == model.total)
            assert not draws[:, q.sum(axis=1) == 0].any()
            assert not draws[:, :, q.sum(axis=0) == 0].any()
            # each cell is Binomial(N, q_ij): no fit is rejected at 1e-4 / cells
            for (i, j), q_ij in np.ndenumerate(q):
                if q_ij > 0.0:
                    p = _binomial_gof_pvalue(draws[:, i, j], model.total, q_ij)
                    assert p > 1e-4 / q.size, (q.shape, i, j, numpy_path)
            one = sample_null(model, rng)
            assert one.total == model.total and one.counts.shape == q.shape


def test_batch_of_one_is_the_draw_of_sample_null(data):
    # the double bootstrap's inner streams draw A_i with sample_null_batch
    # and refit it without a ContingencyTable; both must match sample_null
    model = fit_independence(data)
    for seed in range(20):
        one = sample_null(model, np.random.default_rng(seed))
        batch = sample_null_batch(model, np.random.default_rng(seed), 1)
        assert np.array_equal(one.counts, batch[0])
        refit = applications._independence(batch[0].sum(axis=1), batch[0].sum(axis=0), 39)
        assert refit.total == 39
        assert np.array_equal(refit.cell_probs, fit_independence(one).cell_probs)


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


def test_single_bootstrap_draws_what_its_stream_takes(data, monkeypatch):
    taken = []
    real_take = applications.NullStatStream.take

    def take(self, m):
        taken.append(m)
        return real_take(self, m)

    monkeypatch.setattr(applications.NullStatStream, "take", take)
    for seed in range(3):
        taken.clear()
        rep = bootstrap_pvalue(data, EngineConfig(seed=seed))
        assert rep.samples_drawn == sum(taken) >= rep.samples_used
        assert rep.to_json_dict()["samples_drawn"] == rep.samples_drawn
    taken.clear()
    rep = check_level(data, config=EngineConfig(seed=2))
    assert rep.samples_drawn == sum(taken) >= rep.samples_used


@pytest.mark.parametrize("construct", [
    lambda data: bootstrap_pvalue(data, EngineConfig(seed=11)),
    lambda data: check_level(data, config=EngineConfig(seed=2)),
    lambda data: double_bootstrap(data, config=EngineConfig(seed=5, max_steps=150)),
    lambda data: check_level_bootstrap(data, M=50, config=EngineConfig(seed=3, max_steps=200)),
], ids=["bootstrap", "level", "double_bootstrap", "check_level_bootstrap"])
def test_samples_drawn_at_least_samples_used(data, construct):
    rep = construct(data)
    assert rep.samples_drawn >= rep.samples_used
    assert rep.to_json_dict()["samples_drawn"] == rep.samples_drawn


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

    class OneBitPerTake:
        def __init__(self, stream):
            self.stream = stream

        def take(self, m):
            return self.stream.take(1)

    def one_outer_bit_per_take(table, source, **kwargs):
        if isinstance(source, (applications._DoubleBootstrapStream,
                               applications._InnerLevelStream)):
            source = OneBitPerTake(source)
        return real_run(table, source, **kwargs)

    monkeypatch.setattr(applications, "run", one_outer_bit_per_take)
    single = construct(data)
    assert chunked.result == single.result and chunked.result.stopped
    assert chunked.samples_used == single.samples_used


def test_double_bootstrap_leaves_the_table_cache_as_it_was(data):
    # each seed gives another first-stage estimate, hence another alpha
    double_bootstrap(data, M=50, config=EngineConfig(seed=0, max_steps=20))
    size = len(runner._table_cache)
    for seed in range(1, 6):
        double_bootstrap(data, M=50, config=EngineConfig(seed=seed, max_steps=20))
    assert len(runner._table_cache) == size


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
     ("stopped", 13711, 13711)),
    (lambda data: check_level(data, config=EngineConfig(seed=2)),
     ("stopped", 114, 114)),
    (lambda data: double_bootstrap(data, config=EngineConfig(seed=5, max_steps=150)),
     ("truncated", 150, 18977)),
    (lambda data: check_level_bootstrap(
        data, M=50, config=EngineConfig(seed=3, max_steps=200)),
     ("stopped", 35, 1263)),
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
        return BernoulliSampler(power, seed=rng)

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
