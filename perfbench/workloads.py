"""The three workloads: their inputs, their operations and the checks on
their outputs.

Each workload builds every input from the run seed in ``setup`` and then
runs whole rounds of the same operation list; ``check`` judges a round's
results after the round, outside the timed region.  Program functions are
looked up on their modules at call time, so a traced run records them.

An operation fails when it raises or returns an uncertified bracket or
interval.  A check that finds a wrong answer makes the run incorrect.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import reference
from seqpval import applications, boundary, inference, runner, spending

EPSILON = 1e-3
K = 1000


def program_seed(*key) -> int:
    """A 32-bit seed for the program, derived from the run seed and a key."""
    return int(np.random.SeedSequence([int(x) for x in key]).generate_state(1)[0])


def new_table(alpha: float):
    return boundary.BoundaryTable(alpha, spending.SpendingSequence.default(EPSILON, K))


class Problems:
    """Failed operations and wrong answers of a run."""

    def __init__(self):
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def fail(self, what: str):
        self.failed += 1
        self.failures.append(what)

    def check(self, ok: bool, what: str):
        if not ok:
            self.wrong.append(what)


def _bits(seed: int, p: float, n: int) -> np.ndarray:
    # BernoulliSampler draws rng.random(m) < p chunk by chunk; doubles come
    # off the stream in the same order however it is chunked
    return np.random.default_rng(seed).random(n) < p


def _check_boundaries(table, alpha: float, n: int, problems: Problems):
    """The table's first n steps against the exact-rational recursion."""
    upper, lower = reference.exact_boundaries(
        Fraction(str(alpha)), Fraction(str(EPSILON)), K, n)
    table.extend(n)
    problems.check(list(table.upper_array(n)) == upper and list(table.lower_array(n)) == lower,
                   f"U/L of alpha={alpha} differ from the exact recursion within n <= {n}")


# -- decide ---------------------------------------------------------------------


class Decide:
    """Seeded ``run`` calls on Bernoulli streams, the way ``seqpval run`` makes
    them: a fresh table per call, progress every REPORT_EVERY steps, a cap of
    MAX_STEPS and, for a truncated run, the final interim interval."""

    ALPHAS = (0.05, 0.1)
    # p / alpha: 0.002 to 0.1 and 2.5 to 9 stop within tens to hundreds of
    # steps, 0.6 and 1.5 within thousands, 0.98, 1 and 1.02 almost never
    # before MAX_STEPS.  A run's time follows the steps its fresh table
    # reaches, and the crossing scan takes 32, 64, 128, ... bits at a time,
    # so run times come in steps; the far runs put op_p50_ms inside the
    # runs that end within 224 steps, away from such a step
    MULTIPLES = (0.002, 0.02, 0.05, 0.1, 0.6, 0.98, 1, 1.02, 1.5, 2.5, 4, 6, 9)
    MAX_STEPS = 10_000
    REPORT_EVERY = 1_250

    def __init__(self, seed: int):
        self.seed = seed
        self.decisions = 0
        self.wrong_side = 0
        self.tables = {a: new_table(a) for a in self.ALPHAS}  # for the replays

    def setup(self):
        pass

    def inputs(self, r: int):
        rng = np.random.default_rng([self.seed, r, 0])
        ops = []
        for alpha in self.ALPHAS:
            for mult in self.MULTIPLES:
                p = min(0.95, alpha * mult * (1.0 + rng.uniform(-0.01, 0.01)))
                ops.append((alpha, p, program_seed(self.seed, r, len(ops) + 1)))
        return ops

    def op(self, item):
        alpha, p, seed = item
        table = new_table(alpha)
        reports = []
        res = runner.run(table, runner.BernoulliSampler(p, seed=seed), max_steps=self.MAX_STEPS,
                         report_every=self.REPORT_EVERY, progress=reports.append)
        final = None if res.stopped else runner.interim_interval(table, res.n)
        return res, reports, final

    def check(self, items, results, problems: Problems):
        for (alpha, p, seed), (res, reports, final) in zip(items, results):
            table = self.tables[alpha].extend(res.n)
            bits = _bits(seed, p, res.n)
            got = (res.status, res.n, res.s, res.side)
            problems.check(reference.replay(bits, table.upper_array(res.n),
                                            table.lower_array(res.n), self.MAX_STEPS) == got,
                           f"run(alpha={alpha}, p={p}, seed={seed}) = {got} differs from its replay")
            problems.check([rec["n"] for rec in reports]
                           == list(range(self.REPORT_EVERY, res.n, self.REPORT_EVERY))
                           + ([res.n] if not res.stopped and res.n % self.REPORT_EVERY == 0 else []),
                           f"progress reports of p={p} are not every {self.REPORT_EVERY} steps")
            if res.stopped:
                self.decisions += 1
                self.wrong_side += (res.side == "upper") == (p < alpha)
                est = res.s / res.n
                for rec in reports:
                    problems.check(rec["p_min"] - 1e-12 <= est <= rec["p_max"] + 1e-12,
                                   f"stop estimate {est} of p={p} outside the interim "
                                   f"interval reported at n={rec['n']}")
            else:
                problems.check(final[0] < alpha < final[1],
                               f"final interim interval {final} of p={p} misses alpha")
                problems.check(not reports or reports[-1]["n"] != res.n
                               or (reports[-1]["p_min"], reports[-1]["p_max"]) == final,
                               f"final interim interval of p={p} differs from its last report")

    def finish(self, problems: Problems):
        for alpha in self.ALPHAS:
            _check_boundaries(self.tables[alpha], alpha, 400, problems)
        _check_wrong_side(self.wrong_side, self.decisions, problems)


def _check_wrong_side(wrong: int, decisions: int, problems: Problems):
    # each decision is on the wrong side with probability at most EPSILON; a
    # count this unlikely (below 1e-6) means a broken guarantee
    allowed = _binomial_quantile(decisions, EPSILON, 1e-6)
    problems.check(wrong <= allowed, f"{wrong} wrong-side decisions of {decisions}, "
                                     f"more than the {allowed} the eps budget allows")


def _binomial_quantile(n: int, q: float, tail: float) -> int:
    """Least k with P(Binomial(n, q) > k) <= tail."""
    term = (1.0 - q) ** n
    cdf = term
    k = 0
    while 1.0 - cdf > tail:
        term *= (n - k) / (k + 1) * q / (1.0 - q)
        cdf += term
        k += 1
    return k


# -- evaluate -------------------------------------------------------------------


class Evaluate:
    """Risk-curve rows (a ``resampling_risk`` bracket plus ``expected_stop_time``
    at one p, as ``seqpval risk`` computes them) and exact confidence intervals
    for stopped runs, all on one table and one StoppingCounts built in set-up."""

    ALPHA = 0.05
    HORIZON = 20_000  # the CLI's default --horizon
    COUNTS_HORIZON = 200_000  # confidence_interval's default horizon
    BETA = 0.1
    # no point within 0.02 of alpha: there one bracket takes seconds, and at
    # p = 0.0508 it never certifies (see CHANGES.md)
    GRID = (0.001, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.075, 0.09, 0.12, 0.2, 0.3, 0.5)
    # runs at these p stop far enough from alpha that their intervals certify
    # within COUNTS_HORIZON on every seed; round r takes one interval, for a
    # run at CI_PS[r % 4]
    CI_PS = (0.01, 0.02, 0.1, 0.2)
    SMALL_HORIZON = 300  # where the plain forward recursion is the reference

    def __init__(self, seed: int, rounds: int):
        self.seed = seed
        self.rounds = rounds

    def setup(self):
        self.table = new_table(self.ALPHA)
        self.counts = inference.StoppingCounts(self.table, self.COUNTS_HORIZON)
        self.observed = []
        for r in range(self.rounds):
            p = self.CI_PS[r % len(self.CI_PS)]
            seed = program_seed(self.seed, r, 100)
            res = runner.run(self.table, runner.BernoulliSampler(p, seed=seed))
            self.observed.append((p, seed, res))

    def inputs(self, r: int):
        rng = np.random.default_rng([self.seed, r, 0])
        rows = [("row", p * (1.0 + rng.uniform(-0.01, 0.01))) for p in self.GRID]
        # the round's interval amid its rows
        return rows[:7] + [("ci", self.observed[r])] + rows[7:]

    def op(self, item):
        kind, arg = item
        if kind == "row":
            rb = inference.resampling_risk(self.table, arg, self.HORIZON)
            return rb, inference.expected_stop_time(self.table, arg, self.HORIZON)
        return inference.confidence_interval(self.table, arg[2], self.BETA, counts=self.counts)

    def check(self, items, results, problems: Problems):
        for (kind, arg), out in zip(items, results):
            if out is None:
                continue
            if kind == "row":
                self._check_row(arg, *out, problems)
            else:
                self._check_ci(arg, out, problems)

    def _check_row(self, p, rb, etau, problems):
        if rb.residual > 1e-8:
            problems.fail(f"risk bracket at p={p} not certified (residual {rb.residual:.3g})")
            return
        problems.check(rb.upper <= EPSILON, f"risk upper {rb.upper:.3g} > eps at p={p}")
        # E(min(tau, H)) <= E(tau), so the truncated value must clear the bound
        e_tau = etau[0]
        wald = reference.wald_bound(p, EPSILON, self.ALPHA)
        problems.check(e_tau >= wald,
                       f"E(min(tau, {self.HORIZON})) = {e_tau:.6g} below the Wald bound "
                       f"{wald:.6g} at p={p}")
        # the program's stopped law and E(tau) at a small horizon against the
        # plain forward recursion
        h = self.SMALL_HORIZON
        stops, ref_etau, ref_res = reference.forward_law(
            self.table.upper_array(h), self.table.lower_array(h), p, h)
        law = inference.outcome_distribution(self.table, p, h)
        got = {(n, j, side): m for n, j, side, m in law.outcomes}
        # masses below 1e-280 may underflow in one order of summation only
        problems.check(all(math.isclose(got.get(key, 0.0), stops.get(key, 0.0),
                                        rel_tol=1e-9, abs_tol=1e-280)
                           for key in got.keys() | stops.keys())
                       and math.isclose(law.residual, ref_res, rel_tol=1e-9, abs_tol=1e-15),
                       f"stopped law at p={p} differs from the forward recursion")
        small_etau, small_res = inference.expected_stop_time(self.table, p, h)
        problems.check(math.isclose(small_etau, ref_etau, rel_tol=1e-9)
                       and math.isclose(small_res, ref_res, rel_tol=1e-9, abs_tol=1e-15),
                       f"E(min(tau, {h})) at p={p} differs from the forward recursion")
        # both brackets hold the true risk, so they must meet
        wrong = "upper" if p < self.ALPHA else "lower"
        ref_lower = sum(m for (n, j, side), m in stops.items() if side == wrong)
        problems.check(max(rb.lower, ref_lower) <= min(rb.upper, ref_lower + ref_res)
                       * (1 + 1e-9) + 1e-300,
                       f"risk bracket at p={p} misses the forward recursion's at n={h}")

    def _check_ci(self, obs, ci, problems):
        p, seed, res = obs
        if not ci.certified:
            problems.fail(f"interval for p={p}, seed={seed} not certified")
            return
        p_hat = res.s / res.n
        problems.check(0.0 <= ci.p_low <= p_hat <= ci.p_high <= 1.0 and ci.p_low < ci.p_high,
                       f"interval [{ci.p_low}, {ci.p_high}] misses p_hat={p_hat}")

    def finish(self, problems: Problems):
        _check_boundaries(self.table, self.ALPHA, 400, problems)
        for p, seed, res in self.observed:
            got = (res.status, res.n, res.s, res.side)
            bits = _bits(seed, p, res.n)
            problems.check(reference.replay(bits, self.table.upper_array(res.n),
                                            self.table.lower_array(res.n)) == got,
                           f"run(p={p}, seed={seed}) = {got} differs from its replay")


# -- bootstrap ------------------------------------------------------------------


class Bootstrap:
    """``bootstrap_pvalue`` on the bundled 5x7 table and on three larger tables
    made from the seed for each round, and ``double_bootstrap`` on the bundled
    table."""

    ALPHA = 0.05
    # (rows, cols, planted association): tables with association have a
    # p-value near 0 and the others one above 0.5, so their runs stop within
    # the first refill of null draws on every seed
    SHAPES = ((4, 6, False), (6, 8, True), (8, 10, False))
    PER_SHAPE = 5
    BUNDLED = 5
    DOUBLES = 6
    INNER_M = 250  # the CLI's default --inner-m
    FIRST_STAGE = 10_000
    # the outer run of a double bootstrap is capped here, as
    # `demo double-bootstrap --max-steps 150` would cap it (see README)
    DOUBLE_MAX_STEPS = 150
    REFERENCE_DRAWS = 20_000

    def __init__(self, seed: int):
        self.seed = seed
        self._refs = {}  # reference p-value per table
        # single bootstraps whose reference p-value is clearly off alpha, and
        # those of them that stopped on the other side
        self.decisions = 0
        self.wrong_side = 0

    def setup(self):
        self.bundled = applications.example_table()

    def inputs(self, r: int):
        rng = np.random.default_rng([self.seed, r, 0])
        generated = [applications.ContingencyTable(_make_table(rng, rows, cols, assoc))
                     for rows, cols, assoc in self.SHAPES]
        key = iter(range(1, 1000))
        ops = [("single", t, program_seed(self.seed, r, next(key)))
               for t in generated for _ in range(self.PER_SHAPE)]
        ops += [("single", self.bundled, program_seed(self.seed, r, next(key)))
                for _ in range(self.BUNDLED)]
        ops += [("double", self.bundled, program_seed(self.seed, r, next(key)))
                for _ in range(self.DOUBLES)]
        # spread the kinds through the round
        return [ops[i] for i in rng.permutation(len(ops))]

    def op(self, item):
        kind, data, seed = item
        if kind == "single":
            return applications.bootstrap_pvalue(data, applications.EngineConfig(seed=seed))
        cfg = applications.EngineConfig(seed=seed, max_steps=self.DOUBLE_MAX_STEPS)
        return applications.double_bootstrap(data, M=self.INNER_M,
                                             first_stage=self.FIRST_STAGE, config=cfg)

    def check(self, items, results, problems: Problems):
        for (kind, data, seed), rep in zip(items, results):
            if rep is None:
                continue
            t = reference.lrt(data.counts)
            problems.check(math.isclose(rep.statistic, t, rel_tol=1e-9, abs_tol=1e-12),
                           f"LRT {rep.statistic} differs from the formula's {t}")
            problems.check(math.isclose(rep.chisq_p, reference.chi2_pvalue(t, data.df),
                                        rel_tol=1e-7, abs_tol=1e-300),
                           f"chi-square p-value {rep.chisq_p} differs from chi2.sf")
            res = rep.result
            if kind == "double":
                problems.check(res.stopped or res.n == self.DOUBLE_MAX_STEPS,
                               f"double bootstrap (seed {seed}) ended at {res.n} unstopped")
                problems.check(rep.samples_used >= self.FIRST_STAGE + 2 * res.n,
                               f"double bootstrap charged {rep.samples_used} for {res.n} "
                               "outer steps")
                continue
            problems.check(rep.samples_used == res.n,
                           f"bootstrap charged {rep.samples_used} samples for tau = {res.n}")
            ref = self._reference(data)
            se = math.sqrt(max(ref * (1 - ref), 1.0 / self.REFERENCE_DRAWS) / self.REFERENCE_DRAWS)
            if abs(ref - self.ALPHA) > 5 * se:
                self.decisions += 1
                self.wrong_side += res.side != ("upper" if ref > self.ALPHA else "lower")

    def _reference(self, data):
        key = data.counts.tobytes()
        if key not in self._refs:
            self._refs[key] = reference.mc_pvalue(
                data.counts, self.REFERENCE_DRAWS, [self.seed, *data.counts.ravel().tolist()])
        return self._refs[key]

    def finish(self, problems: Problems):
        _check_wrong_side(self.wrong_side, self.decisions, problems)


def _make_table(rng, rows: int, cols: int, assoc: bool) -> np.ndarray:
    """A rows x cols table of 5 * rows * cols counts, with a p-value (by the
    chi-square approximation of the LRT) below 1e-4 if `assoc` and above 0.5
    otherwise."""
    total = 5 * rows * cols
    while True:
        q = np.outer(rng.dirichlet(np.full(rows, 8.0)), rng.dirichlet(np.full(cols, 8.0)))
        if assoc:
            q = q * np.exp(1.5 * rng.standard_normal((rows, cols)))
        counts = rng.multinomial(total, (q / q.sum()).ravel()).reshape(rows, cols)
        if counts.sum(axis=0).min() == 0 or counts.sum(axis=1).min() == 0:
            continue
        p = reference.chi2_pvalue(reference.lrt(counts), (rows - 1) * (cols - 1))
        if (p < 1e-4) if assoc else (p > 0.5):
            return counts


def make(name: str, seed: int, rounds: int):
    if name == "decide":
        return Decide(seed)
    if name == "evaluate":
        return Evaluate(seed, rounds)
    if name == "bootstrap":
        return Bootstrap(seed)
    raise ValueError(f"unknown workload {name!r}")
