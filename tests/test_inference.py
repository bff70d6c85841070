import copy
import math
import subprocess
import sys

import numpy as np
import pytest

from seqpval import inference
from seqpval.boundary import BoundaryTable
from seqpval.inference import (
    _ETAU_FLOOR,
    ConfidenceInterval,
    SIDE_LOWER,
    SIDE_UPPER,
    StoppingCounts,
    _sweep,
    confidence_interval,
    confidence_interval_running,
    expected_stop_time,
    naive_risk,
    outcome_distribution,
    resampling_risk,
    wald_lower_bound,
)
from seqpval.runner import (
    RunResult, STOPPED, TRUNCATED, BernoulliSampler, interim_edges, interim_interval, run,
)
from seqpval.spending import SpendingSequence


@pytest.fixture(scope="module")
def counts(default_table):
    # the horizon confidence_interval builds by default: the intervals of the
    # tests below certify within it
    return StoppingCounts(default_table, 200_000)


# -- outcome distribution ---------------------------------------------------


def test_total_mass_is_one(default_table):
    od = outcome_distribution(default_table, 0.05, 2000)
    assert od.prob.sum() + od.residual == pytest.approx(1.0, abs=1e-10)


def test_null_rate_matches_table_hit_mass(default_table):
    # under p = alpha the stopped masses are exactly the table's own budget use
    default_table.extend(2000)
    od = outcome_distribution(default_table, 0.05, 2000)
    assert od.upper_mass == pytest.approx(default_table.hit_upper_cum(2000), abs=1e-12)
    assert od.lower_mass == pytest.approx(default_table.hit_lower_cum(2000), abs=1e-12)


def test_deterministic_streams(default_table):
    od = outcome_distribution(default_table, 1.0, 500)
    # all-ones path: single upper stop at the first n with n >= U_n
    assert od.tau.size == 1
    assert od.side[0] == SIDE_UPPER
    assert od.prob[0] == pytest.approx(1.0)
    assert od.s[0] == od.tau[0]
    od0 = outcome_distribution(default_table, 0.0, 5000)
    assert od0.tau.size == 1
    assert od0.side[0] == SIDE_LOWER
    assert od0.s[0] == 0


def test_stop_states_touch_boundaries(default_table):
    od = outcome_distribution(default_table, 0.1, 2000)
    for t, j, side in zip(od.tau, od.s, od.side):
        if side == SIDE_UPPER:
            assert j >= default_table.upper(int(t))
        else:
            assert j <= default_table.lower(int(t))


def test_distribution_matches_simulation(default_table):
    od = outcome_distribution(default_table, 0.15, 3000)
    upper_by_200 = od.prob[(od.side == SIDE_UPPER) & (od.tau <= 200)].sum()
    hits = 0
    m = 4000
    for seed in range(m):
        res = run(default_table, BernoulliSampler(0.15, seed=seed), max_steps=200)
        if res.status == STOPPED and res.side == "upper":
            hits += 1
    se = math.sqrt(upper_by_200 * (1 - upper_by_200) / m)
    assert hits / m == pytest.approx(upper_by_200, abs=4 * se + 1e-4)


def test_invalid_inputs(default_table):
    for sweep in (outcome_distribution, resampling_risk, expected_stop_time):
        for p, horizon in ((1.5, 100), (-0.1, 100), (0.5, 0), (0.3, -5)):
            with pytest.raises(ValueError):
                sweep(default_table, p, horizon)


# -- risk -------------------------------------------------------------------


def test_naive_risk_against_fsum_oracle():
    # compensated-summation binomial tail, independent of scipy
    def oracle(p, n, alpha):
        c = math.floor(n * alpha)
        logp = [
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
            for j in range(n + 1)
        ]
        if p > alpha:
            return math.fsum(math.exp(x) for x in logp[: c + 1])
        return math.fsum(math.exp(x) for x in logp[c + 1 :])

    for p, n, alpha in [(0.11, 999, 0.1), (0.04, 500, 0.05), (0.2, 100, 0.1)]:
        assert naive_risk(p, n, alpha) == pytest.approx(oracle(p, n, alpha), abs=1e-10)


def test_naive_risk_paper_anchor():
    assert naive_risk(0.11, 999, 0.1) == pytest.approx(0.146, abs=5e-4)


def test_naive_risk_threshold_sides():
    # just below alpha the risk is the upper tail, just above the lower tail
    assert naive_risk(0.049, 1000, 0.05) < 0.5
    assert naive_risk(0.051, 1000, 0.05) < 0.5
    assert naive_risk(0.05, 1000, 0.05) > 0.4  # at the threshold it cannot be small


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.special cost most of the import time; the
    # functions that need them load them on use
    code = ("import sys, seqpval, seqpval.cli; "
            "assert 'scipy.stats' not in sys.modules and 'scipy.special' not in sys.modules; "
            "seqpval.chisq_pvalue(3.0, 2); assert 'scipy.special' in sys.modules; "
            "seqpval.naive_risk(0.3, 999, 0.05); assert 'scipy.stats' in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_resampling_risk_bracket(default_table):
    rb = resampling_risk(default_table, 0.1, horizon=20_000)
    assert 0.0 <= rb.lower <= rb.upper
    assert rb.upper <= 1e-3 + 1e-6
    assert rb.residual <= 1e-8
    assert rb.certified
    assert rb.upper - rb.lower == pytest.approx(rb.residual, abs=1e-15)


def test_risk_far_from_threshold_is_tiny(default_table):
    rb = resampling_risk(default_table, 0.5, horizon=2000)
    assert rb.lower < 1e-15  # wrong-side stopped mass is astronomically small
    assert rb.upper <= rb.lower + rb.residual
    assert rb.residual <= 1e-8


def test_risk_at_threshold_reports_residual(default_table):
    rb = resampling_risk(default_table, 0.05, horizon=5000)
    # no doubling at p = alpha: the residual mass does not vanish there
    assert rb.horizon <= 5000
    assert rb.residual > 0.1
    assert not rb.certified
    # near alpha the doubling stops at its cap, uncertified
    capped = resampling_risk(default_table, 0.0508, horizon=1000, max_horizon=4000)
    assert capped.horizon == 4000
    assert capped.residual > 1e-8 and not capped.certified


# (value, residual) at horizon 20,000; the values as computed while
# expected_stop_time still special-cased a sweep that ends early.  Every p but
# 0 and 1 ends the sweep once the alive total is at most 2^-54, with that total
# as its residual; p = 0 and 1 end on an alive total of 0.0
@pytest.mark.parametrize("p, expected", [
    (0.0, (173.0, 0.0)),
    (0.001, (184.25223474472466, 5.925718107333511e-18)),
    (0.01, (323.66069308186985, 4.9050539771207256e-17)),
    (0.03, (1557.7814143046248, 5.5131923985846016e-17)),
    (0.075, (1301.8183214113644, 5.5381732448834194e-17)),
    (0.12, (216.3364225545175, 5.507223843859015e-17)),
    (0.2, (65.56579988216872, 5.042058900003153e-17)),
    (0.3, (30.74083981529908, 4.8494003625088726e-17)),
    (0.5, (13.075601499606211, 4.100386703720809e-17)),
    (0.9, (5.584416920168089, 1.0677536595986141e-17)),
    (1.0, (5.0, 0.0)),
])
def test_expected_stop_time_pinned(default_table, p, expected):
    assert expected_stop_time(default_table, p, 20_000) == expected


def test_wald_lower_bound_arithmetic():
    # direct evaluation of the closed form at p0=0.1, alpha=0.05, eps=1e-3
    eps = 1e-3
    num = (1 - eps) * math.log((1 - eps) / eps) + eps * math.log(eps / (1 - eps))
    den = 0.1 * math.log(0.1 / 0.05) + 0.9 * math.log(0.9 / 0.95)
    assert wald_lower_bound(0.1, eps, 0.05) == pytest.approx(num / den, rel=1e-12)
    with pytest.raises(ValueError):
        wald_lower_bound(0.05, eps, 0.05)
    with pytest.raises(ValueError):
        wald_lower_bound(0.0, eps, 0.05)


def test_expected_stop_time_matches_distribution(default_table):
    horizon = 3000
    od = outcome_distribution(default_table, 0.12, horizon)
    direct = float((od.prob * od.tau).sum() + od.residual * horizon)
    et, res = expected_stop_time(default_table, 0.12, horizon)
    assert et == pytest.approx(direct, abs=1e-8)
    assert res == pytest.approx(od.residual, abs=1e-14)


def test_expected_stop_time_exceeds_wald(default_table):
    et, _ = expected_stop_time(default_table, 0.1, 100_000)
    assert et >= wald_lower_bound(0.1, 1e-3, 0.05) * 0.999


@pytest.mark.parametrize("horizon", [300, 3000, 20_000])
def test_expected_stop_time_early_exit_is_exact(default_table, horizon):
    # the sweep's exit at _ETAU_FLOOR against a sweep run to the horizon
    for p in (0.0, 1e-4, 0.001, 0.01, 0.03, 0.0508, 0.075, 0.12, 0.2, 0.3, 0.5, 0.9, 1.0):
        full = _sweep(default_table, p, horizon)
        full_residual = float(full.alive.sum())
        et, residual = expected_stop_time(default_table, p, horizon)
        assert et == 1.0 + float(full.acc[0]) - full_residual, p
        assert residual >= full_residual, p
        if _sweep(default_table, p, horizon, alive_floor=_ETAU_FLOOR).n < horizon:
            assert residual <= 2.0**-54, p
        else:
            assert residual == full_residual, p


# -- path counts ------------------------------------------------------------


def test_counts_match_direct_recursion(default_table, counts):
    for p in (0.03, 0.05, 0.2):
        od = outcome_distribution(default_table, p, 5000)
        direct = {(int(t), int(j)): pr for t, j, pr in zip(od.tau, od.s, od.prob)}
        w = counts.masses(p)
        sel = counts.tau <= 5000
        for i in np.flatnonzero(sel):
            key = (int(counts.tau[i]), int(counts.s[i]))
            assert w[i] == pytest.approx(direct[key], rel=1e-9, abs=1e-300)


def test_counts_match_exact_integer_pascal():
    # independent oracle: Pascal's recursion in exact Python integers,
    # restricted to the alive corridor, up to n = 3000
    n_max = 3000
    for alpha, epsilon, k in ((0.05, 1e-3, 1000), (0.1, 1e-2, 100), (0.01, 1e-3, 1000)):
        table = BoundaryTable(alpha, SpendingSequence.default(epsilon, k))
        counts = StoppingCounts(table, n_max)
        alive = {0: 1, 1: 1}
        expect = {}
        for n in range(2, n_max + 1):
            new = {}
            for j, c in alive.items():
                new[j] = new.get(j, 0) + c
                new[j + 1] = new.get(j + 1, 0) + c
            u, lo = table.upper(n), table.lower(n)
            alive = {}
            for j, c in new.items():
                if j >= u or j <= lo:
                    expect[(n, j)] = c
                else:
                    alive[j] = c
        got = {(int(t), int(j)): lc for t, j, lc in zip(counts.tau, counts.s, counts.log_count)}
        assert got.keys() == expect.keys() and len(got) == counts.tau.size
        for key, c in expect.items():
            want = math.log(c)
            assert abs(got[key] - want) <= 1e-11, (alpha, key)
            assert got[key] == pytest.approx(want, rel=1e-12), (alpha, key)


def test_counts_refuse_underflowing_null_masses():
    # no budget for 600 steps: the corridor spans every S, the null mass
    # 0.05^n of the top cell underflows to 0 near n = 250, and from there the
    # upper boundary takes the cells of zero mass, whose counts are lost
    n = np.arange(1, 1001)
    seq = SpendingSequence.custom(1e-3, np.where(n <= 600, 0.0, 5e-4))
    table = BoundaryTable(0.05, seq).extend(1000)
    first = next(n for n in range(2, 1001) if table.upper(n) <= n)
    assert 200 < first < 600
    counts = StoppingCounts(table, first - 1)
    with pytest.raises(FloatingPointError, match=f"at step {first} "):
        counts.extend(1000)
    # the failed call left the counts as they were
    assert counts.horizon == first - 1 and counts._lattice.n == first - 1
    with pytest.raises(FloatingPointError, match=f"at step {first} "):
        StoppingCounts(table, 1000)


def test_counts_endpoint_masses(default_table, counts):
    assert counts.masses(0.0).sum() == pytest.approx(1.0)
    assert counts.masses(1.0).sum() == pytest.approx(1.0)


# p log-spaced down to 1e-300 and 1 - p down to 1e-16, the least subnormal,
# alpha and both ends
DENSE_PS = np.concatenate([np.geomspace(1e-300, 0.5, 1000), 1.0 - np.geomspace(1e-16, 0.5, 1000),
                           [5e-324, 0.05, 0.0, 1.0]])


def _masses_equal_array_formula(counts, ps=DENSE_PS):
    from scipy.special import xlog1py, xlogy

    s_f = counts.s.astype(float)
    f_f = (counts.tau - counts.s).astype(float)
    for p in ps:
        expected = np.exp(counts.log_count + xlogy(s_f, p) + xlog1py(f_f, -p))
        assert np.array_equal(counts.masses(p), expected), p


def test_counts_masses_equal_array_formula(default_table, counts):
    # masses computes from two scalar logs: the result must be the array
    # formula's, bit for bit, at every p
    _masses_equal_array_formula(counts)
    resumed = StoppingCounts(default_table, 20_000).extend(30_000)
    _masses_equal_array_formula(resumed)
    small = StoppingCounts(default_table, 500)
    assert 0 < small.tau.size < 1024
    _masses_equal_array_formula(small)
    n = np.arange(1, 5_001)
    custom = BoundaryTable(0.1, SpendingSequence.custom(1e-2, 1e-2 * (1.0 - np.exp(-n / 300.0))
                                                        * 0.999))
    _masses_equal_array_formula(StoppingCounts(custom, 5_000))


def test_counts_copy_extended_leaves_the_original(default_table):
    # extend rebinds the arrays and lattice it holds, never writes into them
    given = StoppingCounts(default_table, 20_000)
    ps = DENSE_PS[::20]
    before = [given.masses(p) for p in ps]
    grown = copy.copy(given)
    grown.extend(40_000)
    _masses_equal_array_formula(grown)
    for p, w in zip(ps, before):
        assert np.array_equal(given.masses(p), w), p
    _masses_equal_array_formula(given, ps)


def test_counts_masses_of_a_prefix(default_table, counts):
    # masses(p, size) is the first size entries of masses(p), bit for bit, in
    # the scalar-log form and in the array form at p = 0 and 1 alike
    ps = np.concatenate([DENSE_PS[::50], [5e-324, 0.05, 0.0, 1.0]])
    for size in (0, 1, 1023, 1024, 1025, 5_000, counts.tau.size):
        for p in ps:
            assert np.array_equal(counts.masses(p, size), counts.masses(p)[:size]), (size, p)


def test_counts_reject_horizon_below_one(default_table):
    for h in (0, -3):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            StoppingCounts(default_table, h)
    # a horizon with no stop yet still gives a complete, empty law
    one = StoppingCounts(default_table, 1)
    assert one.tau.size == 0
    for p in (0.0, 0.03, 1.0):
        assert one.masses(p).size == 0


def test_counts_extend_is_idempotent(default_table):
    c = StoppingCounts(default_table, 2000)
    n1 = c.tau.size
    c.extend(2000)
    assert c.tau.size == n1
    c.extend(3000)
    assert c.tau.size > n1


# -- confidence intervals ---------------------------------------------------


def test_ci_brackets_truth(default_table, counts):
    covered = 0
    total = 0
    for seed in range(20):
        res = run(default_table, BernoulliSampler(0.03, seed=seed), max_steps=50_000)
        if res.status != STOPPED:
            continue
        ci = confidence_interval(default_table, res, beta=0.1, counts=counts)
        total += 1
        if ci.p_low <= 0.03 <= ci.p_high:
            covered += 1
        assert 0.0 <= ci.p_low <= res.p_hat <= ci.p_high <= 1.0
    assert total > 10
    assert covered / total >= 0.85


def test_ci_monotone_in_observed_estimate(default_table, counts):
    # stopped outcomes ordered by estimate give ordered intervals
    picks = [(2422, 93), (1398, 59), (87, 10)]  # increasing p_hat
    prev = None
    for n, s in picks:
        res = RunResult(STOPPED, n, s, "upper")
        ci = confidence_interval(default_table, res, beta=0.1, counts=counts)
        if prev is not None:
            assert ci.p_low >= prev.p_low - 1e-9
            assert ci.p_high >= prev.p_high - 1e-9
        prev = ci


def test_ci_certified_flag_and_json(default_table, counts):
    res = run(default_table, BernoulliSampler(0.02, seed=4), max_steps=50_000)
    ci = confidence_interval(default_table, res, beta=0.05, counts=counts)
    assert ci.certified
    d = ci.to_json_dict()
    assert set(d) == {
        "p_obs", "tau", "s_tau", "beta", "p_low", "p_high", "horizon", "certified",
    }
    assert d["p_obs"] == pytest.approx(res.p_hat)


def test_ci_edge_conventions(default_table, counts):
    lo_stop = None
    default_table.extend(1000)
    for n in range(1, 1001):
        if default_table.lower(n) >= 0:
            lo_stop = n
            break
    ci0 = confidence_interval(
        default_table, RunResult(STOPPED, lo_stop, 0, "lower"), beta=0.1, counts=counts
    )
    assert ci0.p_low == 0.0
    up1 = None
    for n in range(1, 1001):
        if default_table.upper(n) <= n:
            up1 = n
            break
    ci1 = confidence_interval(
        default_table, RunResult(STOPPED, up1, up1, "upper"), beta=0.1, counts=counts
    )
    assert ci1.p_high == 1.0


def test_ci_rejects_truncated_runs(default_table, counts):
    with pytest.raises(ValueError):
        confidence_interval(
            default_table, RunResult(TRUNCATED, 100, 3, None), beta=0.1, counts=counts
        )
    with pytest.raises(ValueError):
        confidence_interval(
            default_table, RunResult(STOPPED, 87, 10, "upper"), beta=1.5, counts=counts
        )


def test_ci_at_its_cap_is_returned_uncertified(default_table):
    # near alpha a horizon of 4000 leaves both enclosures wide; the interval
    # comes back flagged, and it contains the certified one, since the
    # enclosures nest as the horizon grows
    res = RunResult(STOPPED, 2422, 93, "upper")
    given = StoppingCounts(default_table, 2000)
    before = [a.copy() for a in (given.tau, given.s, given.log_count)]
    capped = confidence_interval(default_table, res, beta=0.1, counts=given, max_horizon=4000)
    assert capped.certified is False
    assert capped.horizon == 4000
    # the interval extended a copy; the caller's counts are as they were
    assert given.horizon == 2000 and given._lattice.n == 2000
    for a, b in zip((given.tau, given.s, given.log_count), before):
        assert np.array_equal(a, b)
    exact = confidence_interval(default_table, res, beta=0.1,
                                counts=StoppingCounts(default_table, 50_000))
    assert exact.certified
    assert capped.p_low < exact.p_low < exact.p_high < capped.p_high


def _custom_table(size):
    n = np.arange(1, size + 1)
    seq = SpendingSequence.custom(1e-2, 1e-2 * (1.0 - np.exp(-n / 300.0)) * 0.999)
    return BoundaryTable(0.1, seq).extend(size)


def test_ci_on_a_custom_table_stops_at_its_end():
    # past its end a custom table has no boundaries, so the horizon is capped
    # there, where the hull proves nothing and the enclosures apply
    table = _custom_table(5_000)
    stops = [RunResult(STOPPED, 4989, 625, "upper")]
    for p in (0.05, 0.08, 0.09, 0.11, 0.12, 0.15):
        for seed in range(12):
            res = run(table, BernoulliSampler(p, seed=seed), max_steps=5_000)
            if res.status == STOPPED:
                stops.append(res)
    assert len(stops) > 30
    for res in stops:
        ci = confidence_interval(table, res, beta=0.1)
        assert ci.horizon <= 5_000
        assert ci.p_low <= res.s / res.n <= ci.p_high, res
    capped = confidence_interval(table, stops[0], beta=0.1)
    assert capped.horizon == 5_000 and not capped.certified


@pytest.mark.parametrize("size", [300, 999])
def test_ci_on_a_custom_table_shorter_than_1000_steps(size):
    table = _custom_table(size)
    res = run(table, BernoulliSampler(0.3, seed=1), max_steps=size)
    assert res.status == STOPPED
    ci = confidence_interval(table, res, beta=0.1)
    assert ci.horizon == size
    assert ci.p_low <= res.s / res.n <= ci.p_high
    for n in (10, res.n, size):
        low, high = confidence_interval_running(table, n, beta=0.1)
        assert 0.0 <= low <= high <= 1.0
    low, high = confidence_interval_running(table, res.n, beta=0.1)
    assert low <= ci.p_low and ci.p_high <= high


# seeded stopped runs (p, seed, tau, S) on the default table and the edges
# (p_low, p_high) of their beta = 0.1 intervals, to which both enclosures shrink
PINNED_CIS = [
    (0.01, 1, 286, 2, (0.0015654563903808594, 0.023305416107177734)),
    (0.02, 2, 630, 12, (0.011970996856689453, 0.03232431411743164)),
    (0.1, 3, 463, 44, (0.07055902481079102, 0.11547613143920898)),
]


@pytest.mark.parametrize("p, seed, tau, s, edges", PINNED_CIS)
def test_ci_endpoints_pinned(default_table, counts, p, seed, tau, s, edges):
    res = run(default_table, BernoulliSampler(p, seed=seed), max_steps=50_000)
    assert (res.status, res.n, res.s) == (STOPPED, tau, s)
    ci = confidence_interval(default_table, res, beta=0.1, counts=counts)
    low, high = edges
    assert ci == ConfidenceInterval(p_low=low, p_high=high, beta=0.1, p_obs_num=s, p_obs_den=tau,
                                    horizon=200_000, certified=True,
                                    enclosure=(low, low, high, high))


def test_running_ci_pinned(default_table, counts):
    assert confidence_interval_running(default_table, 50, 0.1, counts=counts) == (
        0.0, 0.3287644386291504)


def test_ci_near_alpha_pinned(default_table):
    # the run of BernoulliSampler(0.06, seed=2) stops 0.0092 from alpha; the
    # hull after 21,310 steps excludes its estimate, so the interval is exact
    # from counts to twice tau
    res = RunResult(STOPPED, 10655, 631, "upper")
    ci = confidence_interval(default_table, res, beta=0.1)
    low, high = 0.05457162857055664, 0.06247091293334961
    assert (ci.p_low, ci.p_high) == (low, high)
    assert ci.certified and ci.enclosure == (low, low, high, high)
    assert ci.horizon <= 2 * res.n


@pytest.mark.parametrize("beta", [0.1, 0.01])
def test_ci_inside_the_fallback_enclosures(default_table, counts, monkeypatch, beta):
    # with the hull unproven, the interval encloses each endpoint by the
    # residual's two allocations over every record of the counts; the exact
    # endpoints from the hull lie inside those enclosures
    results = []
    for p in (0.01, 0.02, 0.035, 0.1, 0.2):
        for seed in range(3):
            res = run(default_table, BernoulliSampler(p, seed=seed), max_steps=200_000)
            assert res.status == STOPPED
            ci = confidence_interval(default_table, res, beta, counts=counts)
            assert ci.certified and ci.enclosure == (ci.p_low,) * 2 + (ci.p_high,) * 2
            results.append((res, ci))
    monkeypatch.setattr(inference, "interim_edges", lambda table, n: ((0, 1), (1, 1)))
    for res, ci in results:
        fallback = confidence_interval(default_table, res, beta, counts=counts)
        assert fallback.horizon == 200_000
        low_lo, low_hi, high_lo, high_hi = fallback.enclosure
        assert low_lo <= ci.p_low <= low_hi and high_lo <= ci.p_high <= high_hi, (res, ci)


@pytest.mark.parametrize("n", [50, 1_000, 2_801, 10_000])
def test_running_ci_from_own_counts_equals_given_counts(default_table, counts, n):
    # the running interval reads the records up to max(n, 1000) only
    assert confidence_interval_running(default_table, n, 0.1) == confidence_interval_running(
        default_table, n, 0.1, counts=counts)


def test_running_ci_contains_stopped_ci(default_table, counts):
    lo_run, hi_run = confidence_interval_running(default_table, 1000, beta=0.1, counts=counts)
    assert 0.0 <= lo_run < 0.05 < hi_run <= 1.0
    res = run(default_table, BernoulliSampler(0.03, seed=0), max_steps=50_000)
    assert res.status == STOPPED and res.n > 1000
    ci = confidence_interval(default_table, res, beta=0.1, counts=counts)
    # the pre-stop interval is conservative: it must reach at least as far out
    assert lo_run <= ci.p_low + 1e-9
    assert hi_run >= ci.p_high - 1e-9


# (n, tau, S) of lower stops reachable after n on the interim interval's lower
# edge, whose intervals a float comparison of estimates left uncovered
EDGE_STOPS = [(2801, 2808, 96), (2843, 2856, 98), (11973, 11974, 499)]


@pytest.mark.parametrize("n, tau, s", EDGE_STOPS)
def test_running_ci_contains_ci_of_edge_stop(default_table, counts, n, tau, s):
    assert interim_edges(default_table, n)[0] == (s, tau)
    lo_run, hi_run = confidence_interval_running(default_table, n, beta=0.1, counts=counts)
    ci = confidence_interval(default_table, RunResult(STOPPED, tau, s, "lower"), beta=0.1,
                             counts=counts)
    assert ci.certified
    assert lo_run <= ci.p_low and ci.p_high <= hi_run


@pytest.mark.parametrize("n", [5, 60, 605, 1000, 2801, 2843, 11973, 60_000])
def test_interim_edges_are_reachable_stops_enclosing_every_later_stop(default_table, counts, n):
    (lo_num, lo_den), (hi_num, hi_den) = edges = interim_edges(default_table, n)
    assert interim_interval(default_table, n) == (lo_num / lo_den, hi_num / hi_den)
    up = default_table.upper_array(max(lo_den, hi_den))
    lo = default_table.lower_array(max(lo_den, hi_den))
    later = counts.tau > n
    stops = set(zip(counts.tau[later].tolist(), counts.s[later].tolist()))
    # each scanned edge is the stop cell it comes from, reachable after n
    if edges[0] != (0, 1):
        nu = lo_den
        assert nu > n and lo[nu - 1] > lo[nu - 2] and lo_num == lo[nu - 2] + 1
        assert (nu, lo_num) in stops
    if edges[1] != (1, 1):
        nu = hi_den
        assert nu > n and up[nu - 1] <= up[nu - 2] and hi_num == up[nu - 2]
        assert (nu, hi_num) in stops
    # every stop after n lies between the edges, as exact rationals
    s, tau = counts.s[later], counts.tau[later]
    assert np.all(s * lo_den >= lo_num * tau) and np.all(s * hi_den <= hi_num * tau)
