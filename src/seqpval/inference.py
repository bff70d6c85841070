"""Exact truncated-horizon inference for fixed stopping boundaries.

Everything here is a pure function of an immutable (fully extended) boundary
table.  The central tool is a forward lattice sweep of the partial-sum
distribution under an arbitrary success rate p; because the boundaries are
fixed, the same recursion that defines them under the null rate also yields
the exact law of the stopped outcome (tau, S_tau) under any p, truncated at a
horizon.  Truncated-horizon answers are always returned as certified
brackets: a computed value plus the residual unstopped mass that could still
fall either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.special import xlog1py, xlogy

from . import _native
from .boundary import BoundaryTable
from .runner import LOWER, STOPPED, UPPER, RunResult, interim_interval

SIDE_UPPER = 1
SIDE_LOWER = -1


class HorizonError(RuntimeError):
    """A truncated-horizon computation could not be certified; raise the horizon."""


# -- forward lattice sweep -------------------------------------------------


@dataclass
class _SweepState:
    n: int
    alive: np.ndarray
    offset: int
    sum_alive: float = 0.0  # sum over completed steps of total alive mass


def _initial_state(p: float) -> _SweepState:
    # after step 1 no stop is possible (U_1 = 2, L_1 = -1)
    return _SweepState(n=1, alive=np.array([1.0 - p, p]), offset=0, sum_alive=1.0)


def _sweep(
    table: BoundaryTable,
    p: float,
    horizon: int,
    state: _SweepState | None = None,
    alive_floor: float = 0.0,
    outcomes: list | None = None,
):
    """Advance the alive-mass recursion to `horizon`, collecting stop events.

    Returns the final state; `outcomes` (if given) receives tuples
    (n, j, side, mass).  When the total alive mass drops to `alive_floor` the
    sweep exits early (the state's n records how far it got).  Runs the
    compiled kernel when it is available and the numpy loop otherwise; both
    give bit-identical states and records.
    """
    table.extend(horizon)
    st = state if state is not None else _initial_state(p)
    kern = _native.kernel() if horizon > st.n else None
    if kern is not None:
        return _sweep_kernel(kern, table, p, horizon, st, alive_floor, outcomes)
    alive = st.alive
    off = st.offset
    for n in range(st.n + 1, horizon + 1):
        w = alive.size
        if w == 0:
            st.n = horizon
            break
        new = np.empty(w + 1)
        np.multiply(alive, 1.0 - p, out=new[:w])
        new[w] = 0.0
        new[1:] += alive * p
        u_n = table.upper(n)
        l_n = table.lower(n)
        top = off + w
        if u_n <= top and outcomes is not None:
            for j in range(max(u_n, off), top + 1):
                mass = new[j - off]
                if mass > 0.0:
                    outcomes.append((n, j, SIDE_UPPER, mass))
        if l_n >= off and outcomes is not None:
            for j in range(off, min(l_n, top) + 1):
                mass = new[j - off]
                if mass > 0.0:
                    outcomes.append((n, j, SIDE_LOWER, mass))
        alive = new[max(l_n + 1 - off, 0) : max(u_n - off, 0)]
        off = max(l_n + 1, off)
        st.n = n
        total = float(alive.sum())
        st.sum_alive += total
        if total <= alive_floor:
            alive = alive.copy()
            st.alive = alive
            st.offset = off
            return st
    st.alive = alive.copy() if alive.base is not None else alive
    st.offset = off
    return st


#: stop records the kernel may write before Python empties its buffer
_RECORD_BUFFER = 4096


def _sweep_kernel(kern, table, p, horizon, st, alive_floor, outcomes):
    """`_sweep` in the compiled kernel (``_kernel.c``)."""
    f64, i64, ptr = np.float64, np.int64, _native.ptr
    # views of U_1..U_horizon and L_1..L_horizon; they keep their arrays
    # alive for the whole call even if another thread grows the table
    upper, lower = table.upper_array(horizon), table.lower_array(horizon)
    buf, state = _native.work_buffer(st.alive, st.n, st.offset)
    acc = np.array([st.sum_alive])
    records = None  # stop-record buffers: n, j, side, mass, and their fill
    record_args = (None, None, None, None, 0, None)  # NULL: record nothing
    while True:
        if outcomes is not None and (records is None or records[0].size < buf.size):
            # a step records at most w + 1 <= buf.size cells
            cap = max(_RECORD_BUFFER, buf.size)
            records = (np.empty(cap, i64), np.empty(cap, i64), np.empty(cap, np.int8),
                       np.empty(cap, f64), np.zeros(1, i64))
            rn, rj, rs, rm, fill = records
            record_args = (ptr(rn, i64), ptr(rj, i64), ptr(rs, np.int8), ptr(rm, f64), cap,
                           ptr(fill, i64))
        rc = kern.seqpval_sweep(
            ptr(buf, f64), buf.size, ptr(state, i64), ptr(acc, f64), float(p), int(horizon),
            ptr(upper, i64), ptr(lower, i64), float(alive_floor), *record_args,
        )
        if records is not None and fill[0]:
            k = int(fill[0])
            # the same tuples as the numpy loop: ints and an np.float64 mass
            outcomes.extend(zip(rn[:k].tolist(), rj[:k].tolist(), rs[:k].tolist(), rm[:k]))
            fill[0] = 0
        if rc == _native.ROOM:
            buf = _native.regrow(buf, state)
        elif rc != _native.FLUSH:
            break
    n, start, w, off = state.tolist()
    st.n = n
    st.alive = buf[start : start + w].copy()
    st.offset = off
    st.sum_alive = float(acc[0])
    return st


def _alive_total(st: _SweepState) -> float:
    return float(st.alive.sum())


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

    def side_mass(self, side: int) -> float:
        return float(self.prob[self.side == side].sum())

    @property
    def upper_mass(self) -> float:
        return self.side_mass(SIDE_UPPER)

    @property
    def lower_mass(self) -> float:
        return self.side_mass(SIDE_LOWER)


def outcome_distribution(table: BoundaryTable, p: float, horizon: int) -> OutcomeDistribution:
    """Forward recursion under Bernoulli(p) against the table's boundaries."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    recs: list = []
    st = _sweep(table, p, horizon, outcomes=recs)
    tau = np.array([r[0] for r in recs], dtype=np.int64)
    s = np.array([r[1] for r in recs], dtype=np.int64)
    side = np.array([r[2] for r in recs], dtype=np.int8)
    prob = np.array([r[3] for r in recs])
    return OutcomeDistribution(
        p=p, horizon=horizon, tau=tau, s=s, side=side, prob=prob, residual=_alive_total(st)
    )


@dataclass(frozen=True)
class RiskBound:
    """Bracket for the resampling risk at p.

    The true risk lies in [lower, upper] whatever the residual; `certified`
    says whether the residual undercut the target the caller asked for.
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
    auto_extend: bool = True,
    target_residual: float = 1e-8,
    max_horizon: int = 8_000_000,
) -> RiskBound:
    """Bracket the probability of ending on the wrong side of alpha.

    The bracket's lower edge is the wrong-side stopped mass by the horizon;
    its upper edge adds the unstopped residual (which could still end wrong).
    With auto_extend the horizon doubles until the residual undercuts
    target_residual; at p = alpha this is disabled (the residual does not
    vanish there - the expected stopping time is infinite at the threshold).
    """
    at_alpha = abs(p - table.alpha) < 1e-12
    h = horizon
    wrong_side = SIDE_UPPER if p <= table.alpha else SIDE_LOWER
    st = _initial_state(p)
    wrong = 0.0
    while True:
        recs: list = []
        st = _sweep(table, p, h, state=st, alive_floor=target_residual / 10.0, outcomes=recs)
        wrong += sum(r[3] for r in recs if r[2] == wrong_side)
        residual = _alive_total(st)
        if at_alpha or not auto_extend or residual <= target_residual or h >= max_horizon:
            break
        h = min(2 * h, max_horizon)
    return RiskBound(p=p, lower=wrong, upper=wrong + residual, horizon=st.n, residual=residual,
                     certified=residual <= target_residual)


def expected_stop_time(table: BoundaryTable, p: float, horizon: int) -> tuple[float, float]:
    """E_p(min(tau, horizon)) and the residual mass P_p(tau > horizon).

    Uses E(min(tau, H)) = sum_{n=0}^{H-1} P(tau > n), accumulated from the
    alive mass of the sweep.
    """
    st = _sweep(table, p, horizon)
    residual = _alive_total(st)
    # sum_alive includes the alive total after step `horizon`; the truncated
    # expectation needs terms n = 0 .. horizon-1 only
    value = 1.0 + st.sum_alive - residual
    if st.n < horizon:
        # recursion exited early on exact-zero alive mass; the missing terms
        # are all zero
        value = 1.0 + st.sum_alive
        residual = 0.0
    return value, residual


def naive_risk(p: float, n: int, alpha: float) -> float:
    """Resampling risk of the fixed-n estimator S_n/n against threshold alpha."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    paths to each stop.  The counts obey Pascal's recursion restricted to the
    alive corridor and are propagated in log space (their dynamic range far
    exceeds floats), letting G(p)-type quantities needed by the
    confidence-interval root finder be evaluated in one vectorized pass.
    """

    def __init__(self, table: BoundaryTable, horizon: int):
        self.table = table
        # N(1, 0) = N(1, 1) = 1; no stop is possible at n = 1
        self._logn = np.zeros(2)
        self._offset = 0
        self._n = 1
        self._recs: list = []
        self.tau = self.s = self.side = self.log_count = None
        self.horizon = 0
        self.extend(horizon)

    def extend(self, horizon: int) -> "StoppingCounts":
        if horizon <= self.horizon:
            return self
        self.table.extend(horizon)
        logn = self._logn
        off = self._offset
        recs = self._recs
        for n in range(self._n + 1, horizon + 1):
            w = logn.size
            if w == 0:
                break
            new = np.empty(w + 1)
            new[0] = logn[0]
            new[w] = logn[w - 1]
            if w > 1:
                np.logaddexp(logn[1:], logn[:-1], out=new[1:w])
            u_n = self.table.upper(n)
            l_n = self.table.lower(n)
            top = off + w
            for j in range(max(u_n, off), top + 1):
                recs.append((n, j, SIDE_UPPER, new[j - off]))
            for j in range(off, min(l_n, top) + 1):
                recs.append((n, j, SIDE_LOWER, new[j - off]))
            logn = new[max(l_n + 1 - off, 0) : max(u_n - off, 0)]
            off = max(l_n + 1, off)
            self._n = n
        self._logn = logn.copy() if logn.base is not None else logn
        self._offset = off
        self.horizon = horizon
        self.tau = np.array([r[0] for r in recs], dtype=np.int64)
        self.s = np.array([r[1] for r in recs], dtype=np.int64)
        self.side = np.array([r[2] for r in recs], dtype=np.int8)
        self.log_count = np.array([r[3] for r in recs])
        self._s_f = self.s.astype(float)
        self._f_f = (self.tau - self.s).astype(float)
        return self

    def masses(self, p: float) -> np.ndarray:
        """Stopped-outcome probabilities under p, aligned with tau/s/side."""
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {p}")
        logw = self.log_count + xlogy(self._s_f, p) + xlog1py(self._f_f, -p)
        return np.exp(logw)

    def event_mass(self, p: float, mask: np.ndarray) -> tuple[float, float]:
        """(P_p(event), residual) where the event is a subset of stops."""
        w = self.masses(p)
        total = float(w.sum())
        residual = max(0.0, 1.0 - total)
        return float(w @ mask), residual

    def estimate_ge_mask(self, num: int, den: int) -> np.ndarray:
        """Mask of outcomes whose estimate s/tau is >= num/den (exact rationals)."""
        return (self.s * den >= self.tau * num).astype(float)

    def estimate_le_mask(self, num: int, den: int) -> np.ndarray:
        return (self.s * den <= self.tau * num).astype(float)


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


def _bisect_mono(f, target: float, lo: float, hi: float, increasing: bool, tol: float) -> float:
    """Root of f = target for monotone f on [lo, hi] with f(lo), f(hi) straddling."""
    flo = f(lo)
    fhi = f(hi)
    if increasing:
        if flo > target:
            return lo
        if fhi < target:
            return hi
    else:
        if flo < target:
            return lo
        if fhi > target:
            return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _certified_root(
    g_stopped, target: float, increasing: bool, tol: float
) -> tuple[float, float]:
    """Enclose the root of a monotone probability with bracketed truncation error.

    `g_stopped(p)` returns (stopped event mass, residual); the true value lies
    in [mass, mass + residual].  The two adversarial allocations of the
    residual give an enclosure of the true root.
    """

    def g_lo(p):
        m, _ = g_stopped(p)
        return m

    def g_hi(p):
        m, r = g_stopped(p)
        return m + r

    if increasing:
        r1 = _bisect_mono(g_hi, target, 0.0, 1.0, True, tol)
        r2 = _bisect_mono(g_lo, target, 0.0, 1.0, True, tol)
    else:
        r1 = _bisect_mono(g_lo, target, 0.0, 1.0, False, tol)
        r2 = _bisect_mono(g_hi, target, 0.0, 1.0, False, tol)
    return (min(r1, r2), max(r1, r2))


def confidence_interval(
    table: BoundaryTable,
    observed: RunResult,
    beta: float,
    horizon: int = 200_000,
    counts: StoppingCounts | None = None,
    tol: float = 1e-6,
    cert_tol: float = 1e-4,
    auto_extend: bool = True,
    max_horizon: int = 4_000_000,
) -> ConfidenceInterval:
    """Exact 1-beta confidence interval for p from a stopped run.

    Endpoints solve the tail equations P_p(p_hat >= p_obs) = beta/2 (lower)
    and P_p(p_hat <= p_obs) = beta/2 (upper), each by bisection with the
    unstopped residual mass allocated adversarially in both directions; the
    returned endpoints are the outer edges of the two enclosures, and
    `certified` records whether both enclosures were narrower than cert_tol.
    Estimates are compared as exact rationals s*den >= num*tau, ties included
    in the observed-or-larger event.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if observed.status != STOPPED:
        raise ValueError("confidence_interval needs a stopped run; see the running variant")
    num, den = observed.s, observed.n
    cts = counts if counts is not None else StoppingCounts(table, horizon)
    target = beta / 2.0
    while True:
        ge_mask = cts.estimate_ge_mask(num, den)
        le_mask = cts.estimate_le_mask(num, den)
        if num == 0:
            low_enc = (0.0, 0.0)
        else:
            low_enc = _certified_root(
                lambda p: cts.event_mass(p, ge_mask), target, increasing=True, tol=tol
            )
        if num == den:
            high_enc = (1.0, 1.0)
        else:
            high_enc = _certified_root(
                lambda p: cts.event_mass(p, le_mask), target, increasing=False, tol=tol
            )
        widths = (low_enc[1] - low_enc[0], high_enc[1] - high_enc[0])
        certified = max(widths) <= cert_tol
        if certified or not auto_extend or cts.horizon >= max_horizon:
            break
        cts.extend(min(2 * cts.horizon, max_horizon))
    if not certified and auto_extend:
        raise HorizonError(
            f"confidence interval not certified at horizon {cts.horizon}: "
            f"enclosure widths {widths}; increase the horizon cap"
        )
    return ConfidenceInterval(
        p_low=low_enc[0],
        p_high=high_enc[1],
        beta=beta,
        p_obs_num=num,
        p_obs_den=den,
        horizon=cts.horizon,
        certified=certified,
        enclosure=low_enc + high_enc,
    )


def confidence_interval_running(
    table: BoundaryTable,
    n: int,
    beta: float,
    horizon: int = 200_000,
    counts: StoppingCounts | None = None,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Conservative interval available before stopping.

    Substitutes the interim bounds on the eventual estimate for the observed
    estimate in the two tail equations; by inclusion the result covers the
    interval the stopped run will eventually produce, so coverage is at least
    1 - beta.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    p_min, p_max = interim_interval(table, n)
    cts = counts if counts is not None else StoppingCounts(table, horizon)
    target = beta / 2.0
    if p_min <= 0.0:
        p_low = 0.0
    else:
        ge = (cts.s >= p_min * cts.tau).astype(float)
        p_low = _bisect_mono(
            lambda p: cts.event_mass(p, ge)[1] + cts.event_mass(p, ge)[0], target, 0.0, 1.0,
            True, tol,
        )
    if p_max >= 1.0:
        p_high = 1.0
    else:
        le = (cts.s <= p_max * cts.tau).astype(float)
        p_high = _bisect_mono(
            lambda p: cts.event_mass(p, le)[1] + cts.event_mass(p, le)[0], target, 0.0, 1.0,
            False, tol,
        )
    return (p_low, p_high)


# -- curves ----------------------------------------------------------------


def risk_curve(
    table: BoundaryTable,
    ps,
    horizon: int = 20_000,
    etau_horizon: int | None = None,
    **risk_kwargs,
) -> list[dict]:
    """Per-p records (rr bracket, expected stopping time, Wald bound) for CSV export."""
    eps = table.spending.epsilon
    out = []
    for p in ps:
        rb = resampling_risk(table, p, horizon, **risk_kwargs)
        et, et_res = expected_stop_time(table, p, etau_horizon or horizon)
        try:
            wald = wald_lower_bound(p, eps, table.alpha)
        except ValueError:
            wald = math.inf
        out.append(
            {
                "p": p,
                "rr_lower": rb.lower,
                "rr_upper": rb.upper,
                "e_tau": et,
                "residual": rb.residual,
                "wald_bound": wald,
            }
        )
    return out
