"""Exact inference for fixed stopping boundaries.

Everything here is a pure function of an immutable (fully extended) boundary
table.  The central tool is a forward lattice sweep of the partial-sum
distribution under an arbitrary success rate p; because the boundaries are
fixed, the same recursion that defines them under the null rate also yields
the exact law of the stopped outcome (tau, S_tau) under any p, truncated at a
horizon H.  Risk brackets add the unstopped residual to one edge, extend H up
to a cap and carry a `certified` flag.  Confidence intervals are exact: every
run alive after H stops inside the interim hull `interim_edges(table, H)`,
proven up to its limit N (8.6e8 steps at k = 1000), so once the estimate in
question lies outside that hull the residual belongs to one tail whole.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .boundary import BoundaryTable
# interim_interval is re-exported: perfbench/spans.py wraps it in this namespace
from .runner import LOWER, STOPPED, UPPER, RunResult, interim_edges, interim_interval  # noqa: F401

SIDE_UPPER = 1
SIDE_LOWER = -1

RISK_RESIDUAL = 1e-8  # a risk bracket is certified when its residual is at most this
CI_TOL = 1e-6  # bisection tolerance of confidence-interval endpoints
CI_CERT_TOL = 1e-4  # an interval is certified when both enclosures are at most this wide


# -- forward lattice sweep -------------------------------------------------


def _initial_state(p: float) -> _native.Lattice:
    """The sweep's lattice after step 1, where no stop is possible (U_1 = 2,
    L_1 = -1); its acc sums the alive totals of the completed steps."""
    return _native.Lattice([1.0 - p, p], 1, 0, (1.0,))


#: dtypes of the stop-record arrays n, j, side, mass
_STOP_DTYPES = (np.int64, np.int64, np.int8, np.float64)


def _sweep(
    table: BoundaryTable,
    p: float,
    horizon: int,
    state: _native.Lattice | None = None,
    alive_floor: float = 0.0,
    record: list | None = None,
) -> _native.Lattice:
    """Advance the alive-mass recursion to `horizon`, collecting stop events.

    Steps `state` (a fresh lattice when None) in place and returns it.
    Given a list `record`, appends to it the stopped cells of positive mass
    this call passed, as four arrays n, j, side, mass in step order, upper
    cells before lower ones within a step.  When the total alive mass drops
    to `alive_floor` the sweep exits early (the lattice's n records how far
    it got).  Runs the compiled kernel when it is available and the numpy
    loop otherwise; both give bit-identical lattices and records.
    """
    table.extend(horizon)
    lat = state if state is not None else _initial_state(p)
    kern = _native.kernel() if horizon > lat.n else None
    if kern is not None:
        return _sweep_kernel(kern, table, p, horizon, lat, alive_floor, record)
    recs = []
    alive = lat.alive
    off = lat.offset
    last = lat.n
    sum_alive = float(lat.acc[0])
    for n in range(lat.n + 1, horizon + 1):
        w = alive.size
        if w == 0:
            last = horizon
            break
        new = np.empty(w + 1)
        np.multiply(alive, 1.0 - p, out=new[:w])
        new[w] = 0.0
        new[1:] += alive * p
        u_n = table.upper(n)
        l_n = table.lower(n)
        top = off + w
        if record is not None:
            for side, lo, hi in ((SIDE_UPPER, max(u_n, off), top),
                                 (SIDE_LOWER, off, min(l_n, top))):
                for j in range(lo, hi + 1):
                    mass = new[j - off]
                    if mass > 0.0:
                        recs.append((n, j, side, mass))
        alive = new[max(l_n + 1 - off, 0) : max(u_n - off, 0)]
        off = max(l_n + 1, off)
        last = n
        total = float(alive.sum())
        sum_alive += total
        if total <= alive_floor:
            break
    lat.set(alive, last, off, sum_alive)
    if record is not None:
        rows = np.array(recs, dtype=object).reshape(-1, 4)
        record.extend(rows[:, i].astype(d) for i, d in enumerate(_STOP_DTYPES))
    return lat


#: stop records the kernel may write before its buffers must grow
_RECORD_BUFFER = 4096


def _sweep_kernel(kern, table, p, horizon, lat, alive_floor, record):
    """`_sweep` in the compiled kernel (``_kernel.c``)."""
    i64, ptr = np.int64, _native.ptr
    # views of U_1..U_horizon and L_1..L_horizon; they keep their arrays
    # alive for the whole call even if another thread grows the table
    upper, lower = table.upper_array(horizon), table.lower_array(horizon)
    args = (kern.seqpval_sweep, float(p), int(horizon), ptr(upper, i64), ptr(lower, i64),
            float(alive_floor))
    if record is None:
        lat.call(*args, None, None, None, None, 0, None)  # NULL: record nothing
        return lat
    fill = np.zeros(1, i64)
    recs = tuple(np.empty(_RECORD_BUFFER, d) for d in _STOP_DTYPES)
    while lat.call(*args, *map(ptr, recs, _STOP_DTYPES), recs[0].size,
                   ptr(fill, i64)) == _native.FLUSH:
        # grow, keeping the records; the next step records at most w + 1 cells
        recs = tuple(np.resize(a, max(2 * a.size, int(fill[0]) + lat.alive.size + 1))
                     for a in recs)
    record.extend(a[: int(fill[0])].copy() for a in recs)
    return lat


def _alive_total(lat: _native.Lattice) -> float:
    return float(lat.alive.sum())


# -- outcome distribution and derived quantities ---------------------------


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact truncated law of the stopped outcome under a given rate p."""

    p: float
    horizon: int
    tau: np.ndarray
    s: np.ndarray
    side: np.ndarray  # +1 upper, -1 lower
    prob: np.ndarray
    residual: float

    @property
    def outcomes(self) -> list[tuple[int, int, str, float]]:
        names = {SIDE_UPPER: UPPER, SIDE_LOWER: LOWER}
        return [
            (int(t), int(j), names[int(sd)], float(pr))
            for t, j, sd, pr in zip(self.tau, self.s, self.side, self.prob)
        ]

    @property
    def upper_mass(self) -> float:
        return float(self.prob[self.side == SIDE_UPPER].sum())

    @property
    def lower_mass(self) -> float:
        return float(self.prob[self.side == SIDE_LOWER].sum())


def _check_sweep_args(p: float, horizon: int):
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def outcome_distribution(table: BoundaryTable, p: float, horizon: int) -> OutcomeDistribution:
    """Forward recursion under Bernoulli(p) against the table's boundaries."""
    _check_sweep_args(p, horizon)
    stops = []
    lat = _sweep(table, p, horizon, record=stops)
    tau, s, side, prob = stops
    return OutcomeDistribution(
        p=p, horizon=horizon, tau=tau, s=s, side=side, prob=prob, residual=_alive_total(lat)
    )


@dataclass(frozen=True)
class RiskBound:
    """Bracket for the resampling risk at p.

    The true risk lies in [lower, upper] whatever the residual; `certified`
    says whether the residual is at most RISK_RESIDUAL.
    """

    p: float
    lower: float
    upper: float
    horizon: int
    residual: float
    certified: bool


def resampling_risk(
    table: BoundaryTable,
    p: float,
    horizon: int = 100_000,
    max_horizon: int = 8_000_000,
) -> RiskBound:
    """Bracket the probability of ending on the wrong side of alpha.

    The bracket's lower edge is the wrong-side stopped mass by the horizon;
    its upper edge adds the unstopped residual (which could still end wrong).
    The horizon doubles, up to `max_horizon`, until the residual is at most
    RISK_RESIDUAL; at p = alpha it does not (the residual does not vanish
    there - the expected stopping time is infinite at the threshold).  A
    bracket whose residual stays above RISK_RESIDUAL has `certified` False.
    """
    _check_sweep_args(p, horizon)
    at_alpha = abs(p - table.alpha) < 1e-12
    h = horizon
    wrong_side = SIDE_UPPER if p <= table.alpha else SIDE_LOWER
    lat = _initial_state(p)
    wrong = 0.0
    while True:
        stops = []
        _sweep(table, p, h, lat, alive_floor=RISK_RESIDUAL / 10.0, record=stops)
        _, _, side, mass = stops
        mass = mass[side == wrong_side]
        if mass.size:
            # in sequence, as the last partial sum (np.sum would sum pairwise)
            wrong += float(np.cumsum(mass)[-1])
        residual = _alive_total(lat)
        if at_alpha or residual <= RISK_RESIDUAL or h >= max_horizon:
            break
        h = min(2 * h, max_horizon)
    return RiskBound(p=p, lower=wrong, upper=wrong + residual, horizon=lat.n, residual=residual,
                     certified=residual <= RISK_RESIDUAL)


#: alive total at which `expected_stop_time` ends its sweep: no later term can
#: change the float value of E(min(tau, H)).  With u = 2^-53:
#: - sum_alive starts at 1.0 and only grows, so ulp(S)/2 >= u and S + T
#:   rounds back to S for every term T < u;
#: - the float alive cells of a step sum to at most (1 + u)^3 times those of
#:   the step before (fl(1 - p) + p <= 1 + u/2, then one product and one
#:   addition per cell; cutting cells off only lowers the sum, and underflow
#:   adds at most 2^-1074 per cell), and a computed total of w cells is off
#:   from their exact sum by a factor within 1 -+ (w - 1)u / (1 - (w - 1)u).
#:   So from a total T_m <= 2^-54 every later total stays below
#:   2^-54 (1 + u)^(3H) (1 + 2wu + O(u^2)) < u as long as 3H + 2w is far below
#:   ln(2) / u = 6e15, which holds whenever H w << 6e15;
#: - (1 + S) - T for T < u is exactly 1 + S, as 1 + S >= 2.
#: So e_tau equals that of a sweep run to the horizon, bit for bit.
_ETAU_FLOOR = 2.0**-54


def expected_stop_time(table: BoundaryTable, p: float, horizon: int) -> tuple[float, float]:
    """E_p(min(tau, horizon)) and a residual bounding P_p(tau > horizon).

    Uses E(min(tau, H)) = sum_{n=0}^{H-1} P(tau > n), accumulated from the
    alive mass of the sweep.  The sweep ends once the alive total is at most
    _ETAU_FLOOR, where no later term can change the value; the residual is
    the alive total at the last step swept, P(tau > horizon) itself when the
    sweep reaches the horizon and an upper bound of at most 2^-54 otherwise.
    """
    _check_sweep_args(p, horizon)
    lat = _sweep(table, p, horizon, alive_floor=_ETAU_FLOOR)
    residual = _alive_total(lat)
    # the summed alive totals include the one after the last step swept; the
    # truncated expectation needs terms n = 0 .. horizon-1 only (terms below
    # 2^-53 change neither sum, see _ETAU_FLOOR)
    return 1.0 + float(lat.acc[0]) - residual, residual


def naive_risk(p: float, n: int, alpha: float) -> float:
    """Resampling risk of the fixed-n estimator S_n/n against threshold alpha."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    from scipy import stats  # most of the package's import time; import on use

    c = math.floor(n * alpha)
    if p > alpha:
        return float(stats.binom.cdf(c, n, p))
    return float(stats.binom.sf(c, n, p))


def wald_lower_bound(p0: float, epsilon: float, alpha: float) -> float:
    """Closed-form lower bound on E_{p0}(tau) for any procedure with the same
    wrong-side error probabilities (sequential-likelihood-ratio optimality)."""
    if not (0.0 < p0 < 1.0):
        raise ValueError(f"p0 must be in (0, 1), got {p0}")
    if p0 == alpha:
        raise ValueError(
            "the bound diverges at p0 = alpha (like 2*alpha*(1-alpha)/(p0-alpha)^2)"
        )
    num = (1.0 - epsilon) * math.log((1.0 - epsilon) / epsilon) + epsilon * math.log(
        epsilon / (1.0 - epsilon)
    )
    den = p0 * math.log(p0 / alpha) + (1.0 - p0) * math.log((1.0 - p0) / (1.0 - alpha))
    return num / den


# -- log path counts: fast evaluation over many p --------------------------


class StoppingCounts:
    """Log path counts of every stopped outcome up to a horizon.

    Any path stopping at (tau=n, S=j) has probability p^j (1-p)^(n-j), so the
    stopped law under every p is determined by the (p-free) number of lattice
    paths to each stop, which lets G(p)-type quantities needed by the
    confidence-interval root finder be evaluated in one vectorized pass.  The
    counts come from one null sweep from step 1 to the horizon: a stop's null
    mass m = N alpha^j (1-alpha)^(n-j) gives log N.  Where a stop's null mass
    underflows its count is lost, and `extend` raises FloatingPointError.
    `extend` sweeps again from step 1 under the counts' lock and publishes
    ``horizon`` last, so threads may share one object.
    """

    def __init__(self, table: BoundaryTable, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.table = table
        self.horizon = 0
        self._lock = threading.Lock()
        self.extend(horizon)

    def extend(self, horizon: int) -> "StoppingCounts":
        with self._lock:
            if horizon <= self.horizon:
                return self
            alpha = self.table.alpha
            stops = []
            lat = _sweep(self.table, alpha, horizon, record=stops)
            tau, s, _, mass = stops
            _check_null_masses(self.table, lat.n, tau, mass)
            self.log_count = np.log(mass) - s * math.log(alpha) - (tau - s) * math.log1p(-alpha)
            self.tau, self.s = tau, s
            self.horizon = horizon
        return self

    def _prefix(self, size: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """s, tau and log_count of the first `size` records (all if None), of one
        length while `extend` runs: it publishes s after tau and log_count."""
        s = self.s[:size]
        return s, self.tau[: s.size], self.log_count[: s.size]

    def masses(self, p: float, size: int | None = None) -> np.ndarray:
        """Stopped-outcome probabilities under p of the first `size` records (all if None):
        exp(log_count + s log(p) + (tau - s) log1p(-p)), with 0 log(0) = 0."""
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {p}")
        from scipy.special import xlog1py, xlogy  # slow to import; import on first use

        s, tau, log_count = self._prefix(size)
        f = tau - s  # |s|, tau < 2^53: int64 * float is the float copy's product
        if 0.0 < p < 1.0:
            # xlogy(s, p) is s * log(p) for finite log(p): the same products
            # in the same order as the array form, from two scalar logs
            w = log_count + s * xlogy(1.0, p)
            w += f * xlog1py(1.0, -p)
            return np.exp(w, out=w)
        # 0 * log(0) must be 0 here, which only the array form gives
        w = log_count + xlogy(s, p) + xlog1py(f, -p)
        return np.exp(w, out=w)

    def estimate_ge_mask(self, num: int, den: int, size: int | None = None) -> np.ndarray:
        """Mask of the first `size` outcomes (all if None) with s/tau >= num/den, exactly."""
        s, tau, _ = self._prefix(size)
        return (s * den >= tau * num).astype(float)

    def estimate_le_mask(self, num: int, den: int, size: int | None = None) -> np.ndarray:
        s, tau, _ = self._prefix(size)
        return (s * den <= tau * num).astype(float)


def _check_null_masses(table, last, tau, mass):
    """Raise unless the null sweep of steps 2..last recorded every stop cell
    (at step n: U_n..U_{n-1} and L_{n-1}+1..L_n) with a normal mass."""
    upper, lower = table.upper_array(last), table.lower_array(last)  # U_1 .. U_last
    cells = np.maximum(upper[:-1] - upper[1:] + 1, 0) + np.maximum(lower[1:] - lower[:-1], 0)
    recorded = np.bincount(tau - 2, minlength=last - 1)
    bad = np.concatenate([2 + np.flatnonzero(recorded != cells),
                          tau[mass < np.finfo(np.float64).tiny]])
    if bad.size:
        raise FloatingPointError(
            f"the null mass of a stop cell at step {int(bad.min())} underflows, so its path "
            f"count cannot be derived from the null sweep"
        )


# -- confidence intervals --------------------------------------------------


@dataclass(frozen=True)
class ConfidenceInterval:
    p_low: float
    p_high: float
    beta: float
    p_obs_num: int
    p_obs_den: int
    horizon: int
    certified: bool
    enclosure: tuple = field(default=(0.0, 0.0, 0.0, 0.0), repr=False)

    def to_json_dict(self) -> dict:
        return {
            "p_obs": self.p_obs_num / self.p_obs_den,
            "tau": self.p_obs_den,
            "s_tau": self.p_obs_num,
            "beta": self.beta,
            "p_low": self.p_low,
            "p_high": self.p_high,
            "horizon": self.horizon,
            "certified": self.certified,
        }


def _bisect_mono(f, target: float, increasing: bool) -> float:
    """Root of f = target for monotone f on [0, 1], to within CI_TOL; an end
    where f is already past the target is returned as is."""
    lo, hi = 0.0, 1.0
    if (f(lo) > target) if increasing else (f(lo) < target):
        return lo
    if (f(hi) < target) if increasing else (f(hi) > target):
        return hi
    while hi - lo > CI_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (f(mid) < target) == increasing else (lo, mid)
    return 0.5 * (lo + hi)


def _endpoints(table: BoundaryTable, counts: StoppingCounts | None, horizon: int,
               low_est: tuple[int, int], high_est: tuple[int, int], target: float,
               shares: list[tuple[bool, ...]]) -> tuple[tuple, tuple, int]:
    """Enclosures of the lower and the upper confidence-interval endpoint, and
    the horizon of the counts read: `counts`, or new ones if they stop short.

    The endpoints solve P_p(p_hat >= low_est) = target and P_p(p_hat <=
    high_est) = target over the stops up to `horizon`, estimates (num, den)
    compared as exact rationals s*den >= num*tau, ties included.  Tail i is
    solved with each share of the residual in `shares[i]`: one where the hull
    places the residual, both (0, 1), which enclose the root, where it does
    not.  An estimate num = 0 has lower endpoint 0, and num = den upper 1.
    Counts stop at a custom spending table's end, where the run does too.
    """
    if table.spending.k is None:
        horizon = min(horizon, table.spending.table.size)
    if counts is None or counts.horizon < horizon:
        counts = StoppingCounts(table, horizon)
    size = int(np.searchsorted(counts.tau, horizon, side="right"))  # records are in step order
    masks = counts.estimate_ge_mask(*low_est, size), counts.estimate_le_mask(*high_est, size)

    # one masses(p) serves both tails; the bisections start from 0 and 1 and
    # share midpoints until they part
    @functools.cache
    def tails(p):
        w = counts.masses(p, size)
        return float(w @ masks[0]), float(w @ masks[1]), max(0.0, 1.0 - float(w.sum()))

    def root(i, increasing):
        r = [_bisect_mono(lambda p: tails(p)[i] + (tails(p)[2] if a else 0.0), target, increasing)
             for a in shares[i]]
        return (min(r), max(r))

    low_enc = (0.0, 0.0) if low_est[0] == 0 else root(0, True)
    high_enc = (1.0, 1.0) if high_est[0] == high_est[1] else root(1, False)
    return low_enc, high_enc, counts.horizon


def confidence_interval(
    table: BoundaryTable,
    observed: RunResult,
    beta: float,
    counts: StoppingCounts | None = None,
    max_horizon: int = 4_000_000,
) -> ConfidenceInterval:
    """Exact 1-beta confidence interval for p from a stopped run (s, tau).

    Endpoints solve P_p(p_hat >= p_obs) = beta/2 (lower) and P_p(p_hat <=
    p_obs) = beta/2 (upper) by bisection over the stops up to a horizon H,
    which starts at max(tau, 1000) and doubles, up to `max_horizon`, while
    the exact rational p_obs = s/tau lies in the hull `interim_edges(table,
    H)` of every later stop's estimate.  Once p_obs is strictly outside it,
    each later stop is in one tail alone, which gets the whole residual
    1 - (mass of the stops up to H): both tails are exact.  At p = alpha,
    where P(tau = inf) > 0, the mass that never stops goes with the
    residual's side, so the tail stays a continuous polynomial in p.  The
    answer holds up to the hull's limit N (about 8.6e8 steps at k = 1000;
    see `runner._cap`).  Where the hull proves nothing (at the cap, at a
    custom table's end, or its unproven fallback (0, 1)-(1, 1)), the
    residual's two allocations over every record of the counts enclose each
    endpoint, the outer edges are returned, and `certified` says whether
    both enclosures are at most CI_CERT_TOL wide.  Counts short of H are
    left as they are; `horizon` is that of the counts read.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if observed.status != STOPPED:
        raise ValueError("confidence_interval needs a stopped run; see the running variant")
    est = (s, tau) = (observed.s, observed.n)
    h = min(max(tau, 1000), max_horizon)
    while True:
        edges = (lo_num, lo_den), (hi_num, hi_den) = interim_edges(table, h)
        # the tails, p_hat >= p_obs and p_hat <= p_obs, that hold every stop after h
        owner = (s * lo_den < lo_num * tau, s * hi_den > hi_num * tau)
        if any(owner) or edges == ((0, 1), (1, 1)) or h >= max_horizon:
            break
        h = min(2 * h, max_horizon)
    shares = [(o,) for o in owner]
    if not any(owner):  # the hull proves nothing: both allocations, over every given record
        shares, h = [(False, True)] * 2, max(h, counts.horizon if counts is not None else 0)
    low_enc, high_enc, horizon = _endpoints(table, counts, h, est, est, beta / 2.0, shares)
    certified = max(low_enc[1] - low_enc[0], high_enc[1] - high_enc[0]) <= CI_CERT_TOL
    return ConfidenceInterval(p_low=low_enc[0], p_high=high_enc[1], beta=beta, p_obs_num=s,
                              p_obs_den=tau, horizon=horizon, certified=certified,
                              enclosure=low_enc + high_enc)


def confidence_interval_running(
    table: BoundaryTable,
    n: int,
    beta: float,
    counts: StoppingCounts | None = None,
) -> tuple[float, float]:
    """Conservative interval available before stopping.

    Puts the edges of the interim hull after step n, the least and greatest
    stop estimate still reachable, for the observed one in the two tail
    equations.  Every stop after H = max(n, 1000) lies in the hull after H,
    inside that after n, so the residual after H belongs to both tails (ties
    included; past a custom table's end nothing stops) and each endpoint is
    exact, as in `confidence_interval`.  So the result contains the interval
    of every stop still reachable, and its coverage is at least 1 - beta.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    h = max(n, 1000)
    low_enc, high_enc, _ = _endpoints(table, counts, h, *interim_edges(table, n), beta / 2.0,
                                      [(True,)] * 2)
    return (low_enc[0], high_enc[1])
