"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (criterion number plus a short
tag) and then asserts, so a bare run of this file doubles as a checklist.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import seqpval as sp
from seqpval.applications import EngineConfig, bootstrap_pvalue, double_bootstrap, example_table
from seqpval.boundary import BoundaryTable
from seqpval.inference import (
    SIDE_LOWER,
    SIDE_UPPER,
    StoppingCounts,
    confidence_interval,
    expected_stop_time,
    naive_risk,
    outcome_distribution,
    resampling_risk,
    wald_lower_bound,
)
from seqpval.runner import RunResult, STOPPED, BernoulliSampler, interim_interval, run
from seqpval.spending import SpendingSequence

from exact_oracle import default_budget, exact_boundaries
from test_boundary import hoeffding_delta


def report(num: int, tag: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{tag}]: {status}{suffix}")
    assert ok, f"criterion {num} [{tag}]{suffix}"


def test_criterion_1_boundary_oracle_equivalence():
    ok = True
    for alpha in (0.05, 0.1):
        for eps in (1e-3, 1e-2):
            table = BoundaryTable(alpha, SpendingSequence.default(eps, 1000)).extend(20)
            budget = default_budget(Fraction(str(eps)), 1000)
            exact = exact_boundaries(Fraction(str(alpha)), budget, 20)
            ok &= [table.upper(n) for n in range(1, 21)] == exact.upper
            ok &= [table.lower(n) for n in range(1, 21)] == exact.lower
    report(1, "exact-rational boundary equivalence n<=20", ok)


def test_criterion_2_budget_invariants(default_table):
    n_max = 20_000
    default_table.extend(n_max)
    eps = default_table.spending.values(n_max)
    ok = True
    worst = 0.0
    for n in range(1, n_max + 1):
        hu = default_table.hit_upper_cum(n)
        hl = default_table.hit_lower_cum(n)
        ok &= hu <= eps[n - 1] + 1e-10 and hl <= eps[n - 1] + 1e-10
        worst = max(worst, hu - eps[n - 1], hl - eps[n - 1])
        u, lo = default_table.upper(n), default_table.lower(n)
        ok &= u > n * 0.05 > lo
        if n >= 2:
            ok &= u <= math.ceil(n * 0.05 + hoeffding_delta(default_table.spending, n))
    report(2, "budget + ordering + Hoeffding caps to n=2e4", ok, f"max overshoot {worst:.2e}")


def test_criterion_3_naive_risk_anchor():
    val = naive_risk(0.11, 999, 0.1)
    ok = abs(val - 0.146) <= 5e-4
    report(3, "fixed-n risk anchor 0.146", ok, f"got {val:.6f}")


def test_criterion_4_uniform_risk_bound(default_table):
    eps = 1e-3
    grid = np.linspace(0.005, 0.995, 99)
    grid = grid[np.abs(grid - 0.05) > 0.002]
    worst = 0.0
    ok = True
    for p in grid:
        rb = resampling_risk(default_table, float(p), horizon=20_000)
        worst = max(worst, rb.upper)
        ok &= rb.upper <= eps + 1e-6
    report(4, "uniform risk bound over 99-point grid", ok, f"max rr upper {worst:.3e}")


def test_criterion_5_interim_anchor(default_table):
    # the anchor is the hull of the stop estimates still reachable after
    # n = 1000, read off the exact rational boundaries: a lower stop at nu
    # lands at (L_{nu-1} + 1)/nu where L rises, an upper stop at no more than
    # U_{nu-1}/nu where U does not rise
    n, n_exact = 1000, 1100
    exact = exact_boundaries(Fraction(1, 20), default_budget(Fraction(1, 1000), 1000), n_exact)
    up, lo = exact.upper, exact.lower
    steps = range(n + 1, n_exact + 1)
    lo_edge = min(Fraction(lo[nu - 2] + 1, nu) for nu in steps if lo[nu - 1] > lo[nu - 2])
    hi_edge = max(Fraction(up[nu - 2], nu) for nu in steps if up[nu - 1] <= up[nu - 2])
    expected = (round(float(lo_edge), 3), round(float(hi_edge), 3))
    p_min, p_max = interim_interval(default_table, n)
    got = (round(p_min, 3), round(p_max, 3))
    ok = expected == (0.025, 0.080) and got == expected
    report(
        5,
        "interim interval anchor at n=1000",
        ok,
        f"got [{got[0]:.3f}, {got[1]:.3f}], exact [{expected[0]:.3f}, {expected[1]:.3f}]",
    )


def test_criterion_6_stop_mass_monotonicity(default_table):
    ps = [round(0.01 * i, 2) for i in range(1, 11)]
    uppers, lowers = [], []
    for p in ps:
        od = outcome_distribution(default_table, p, 2000)
        uppers.append(od.upper_mass)
        lowers.append(od.lower_mass)
    ok = all(a <= b + 1e-12 for a, b in zip(uppers, uppers[1:]))
    ok &= all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))
    report(6, "stop-mass monotonicity in p at n=2000", ok)


def test_criterion_7_wald_ratio_band(default_table):
    ok = True
    ratios = []
    for p in (0.02, 0.03, 0.08, 0.1, 0.2):
        et, _ = expected_stop_time(default_table, p, 100_000)
        ratio = et / wald_lower_bound(p, 1e-3, 0.05)
        ratios.append(round(ratio, 2))
        ok &= 0.9 <= ratio <= 6.0
    report(7, "E(tau)/Wald-bound band", ok, f"ratios {ratios}")


def test_criterion_8_width_growth(default_table):
    default_table.extend(100_000)
    norm = {}
    for n in (10**3, 10**4, 10**5):
        width = default_table.upper(n) - default_table.lower(n)
        norm[n] = width / math.sqrt(n * math.log(n))
    base = norm[10**3]
    ok = all(base / 3 <= v <= base * 3 for v in norm.values())
    report(8, "width ~ sqrt(n log n) factor-3 band", ok, f"normalized {norm}")


def test_criterion_9_demo_anchors():
    data = example_table()
    t = sp.lrt_statistic(data)
    chisq = sp.chisq_pvalue(t, data.df)
    ok_chisq = abs(chisq - 0.031) <= 1e-3

    # the example data is significant at the 5% level (its ideal bootstrap
    # p-value is ~0.041), so the sequential run must stop on the lower side
    # with an estimate in (0.025, 0.05]
    good = 0
    for seed in range(100):
        rep = bootstrap_pvalue(data, EngineConfig(seed=seed))
        if (
            rep.result.stopped
            and rep.result.side == "lower"
            and 0.025 < rep.result.p_hat <= 0.05
        ):
            good += 1
    ok_boot = good >= 95

    good_double = 0
    for seed in range(50):
        rep = double_bootstrap(data, config=EngineConfig(seed=seed))
        if rep.result.p_hat > 0.05 and rep.samples_used < 150_000:
            good_double += 1
    ok_double = good_double >= 45

    report(
        9,
        "demo anchors (chisq, bootstrap side, double bootstrap)",
        ok_chisq and ok_boot and ok_double,
        f"chisq {chisq:.4f}, bootstrap {good}/100, double {good_double}/50",
    )


def test_criterion_10_confidence_intervals(default_table):
    beta = 0.1
    p_true = 0.03
    counts = StoppingCounts(default_table, 200_000)

    # endpoint monotonicity over a small grid of stopped outcomes
    grid = [(2422, 93), (1398, 59), (344, 21), (87, 10)]  # increasing p_hat
    cis = [
        confidence_interval(default_table, RunResult(STOPPED, n, s, "upper"), beta, counts=counts)
        for n, s in grid
    ]
    ok_mono = all(
        a.p_low <= b.p_low + 1e-9 and a.p_high <= b.p_high + 1e-9
        for a, b in zip(cis, cis[1:])
    )

    # edge conventions
    default_table.extend(2000)
    n0 = next(n for n in range(1, 2001) if default_table.lower(n) >= 0)
    n1 = next(n for n in range(1, 2001) if default_table.upper(n) <= n)
    ci0 = confidence_interval(default_table, RunResult(STOPPED, n0, 0, "lower"), beta, counts=counts)
    ci1 = confidence_interval(default_table, RunResult(STOPPED, n1, n1, "upper"), beta, counts=counts)
    ok_edge = ci0.p_low == 0.0 and ci1.p_high == 1.0

    # empirical coverage over seeded end-to-end runs; containment of p_true is
    # decided by the defining tail equations (the endpoint bisection brackets
    # the same quantities), so the check is exact and fast
    w = counts.masses(p_true)
    resid = max(0.0, 1.0 - float(w.sum()))
    runs = 0
    covered = 0
    target = beta / 2.0
    for seed in range(1000):
        res = run(default_table, BernoulliSampler(p_true, seed=seed), max_steps=200_000)
        if res.status != STOPPED:
            continue
        runs += 1
        ge = counts.estimate_ge_mask(res.s, res.n)
        le = counts.estimate_le_mask(res.s, res.n)
        below_ok = float(w @ ge) + resid >= target  # p_low <= p_true
        above_ok = float(w @ le) + resid >= target  # p_high >= p_true
        if below_ok and above_ok:
            covered += 1
    coverage = covered / runs
    ok_cov = runs >= 990 and coverage >= 1 - beta - 1e-3 - 0.01

    # spot-check the fast containment test against full interval construction
    ok_spot = True
    for seed in (0, 3, 11, 17):
        res = run(default_table, BernoulliSampler(p_true, seed=seed), max_steps=200_000)
        ci = confidence_interval(default_table, res, beta, counts=counts)
        ge = counts.estimate_ge_mask(res.s, res.n)
        le = counts.estimate_le_mask(res.s, res.n)
        fast = (float(w @ ge) + resid >= target) and (float(w @ le) + resid >= target)
        ok_spot &= fast == (ci.p_low <= p_true <= ci.p_high)

    report(
        10,
        "CI monotonicity, edges, coverage",
        ok_mono and ok_edge and ok_cov and ok_spot,
        f"coverage {coverage:.3f} over {runs} runs",
    )


def test_criterion_11_cli_determinism():
    cmd = [sys.executable, "-m", "seqpval.cli", "run", "--simulate-p", "0.2", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = a.returncode == b.returncode == 0 and a.stdout == b.stdout and len(a.stdout) > 0
    report(11, "byte-identical seeded CLI output", ok)
