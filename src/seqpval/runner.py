"""Driving the sequential test over a Bernoulli bit stream.

The runner consumes bits in their generation order (so results are exactly
reproducible under a fixed seed no matter how samples are produced), stops as
soon as the partial sum touches a boundary, and can report a sound interim
interval for the eventual estimate while still running.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .boundary import BoundaryTable
from .spending import SpendingSequence

UPPER = "upper"
LOWER = "lower"
STOPPED = "stopped"
TRUNCATED = "truncated"


class SamplerError(RuntimeError):
    """Sampler failed mid-run; carries the partial state reached so far."""

    def __init__(self, n: int, s: int, cause: BaseException):
        super().__init__(f"bit source failed after {n} steps (partial sum {s}): {cause}")
        self.n = n
        self.s = s


@dataclass(frozen=True)
class RunResult:
    status: str  # STOPPED or TRUNCATED
    n: int  # tau when stopped, steps consumed when truncated
    s: int  # partial sum at n
    side: str | None  # UPPER / LOWER when stopped, None when truncated

    @property
    def stopped(self) -> bool:
        return self.status == STOPPED

    @property
    def tau(self) -> int:
        if not self.stopped:
            raise ValueError("run did not stop; no stopping time")
        return self.n

    @property
    def p_hat(self) -> float:
        # truncated runs report the running estimate s/n
        return self.s / self.n


# -- bit sources -----------------------------------------------------------


class BernoulliSampler:
    """Seeded pseudo-random Bernoulli(p) bit source; `seed` may be a Generator."""

    def __init__(self, p: float, seed=None):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.rng = np.random.default_rng(seed)

    def take(self, m: int) -> np.ndarray:
        return (self.rng.random(m) < self.p).astype(np.int8)


class TextBitSource:
    """Line-oriented 0/1 input (one bit per line, whitespace tolerated)."""

    def __init__(self, lines):
        self._lines = lines

    def __iter__(self):
        for raw in self._lines:
            tok = raw.strip()
            if not tok:
                continue
            if tok not in ("0", "1"):
                raise ValueError(f"invalid bit {tok!r} in text stream")
            yield int(tok)


class _IterSource:
    """``take(m)`` over an iterable of bits: up to m of them, each 0 or 1.

    A failure (a bad bit, or an exception from the iterable) ends the take
    at the bits before it and is raised by the next take, so a run stops
    wherever it would with takes of one bit.
    """

    def __init__(self, bits):
        self._it = iter(bits)
        self._failure = None

    def take(self, m: int) -> np.ndarray:
        if self._failure is not None:
            raise self._failure
        out = []
        try:
            for x in islice(self._it, m):
                if x not in (0, 1):
                    raise ValueError(f"bits must be 0 or 1, got {x!r}")
                out.append(x)
        except Exception as exc:  # noqa: BLE001 - raised by the next take
            if not out:
                raise
            self._failure = exc
        return np.asarray(out, dtype=np.int8)


# -- interim intervals -----------------------------------------------------

def interim_interval(table: BoundaryTable, n: int) -> tuple[float, float]:
    """Hull of the stop estimates S_tau/tau still reachable after step n.

    A run alive at n stops at some nu > n.  S moves by at most one per step
    and is strictly inside the corridor at nu - 1, so a lower stop at nu needs
    L_nu > L_{nu-1} and lands at S_nu = L_{nu-1} + 1, and an upper stop at nu
    needs U_nu <= U_{nu-1} and lands at S_nu <= U_{nu-1}.  The interval runs
    from the least (L_{nu-1} + 1)/nu over rising L to the greatest
    U_{nu-1}/nu over non-rising U, with nu scanned over (n, M].  Both edges
    are estimates that some run alive at n produces.

    The first window has ceil(2/alpha) steps and doubles while an edge is
    missing; ``_cap`` then proves an M past which no stop lands outside the
    edges found, and the scan jumps there once (to 21,379 from step 10,000 of
    the default table).  Where none is proven, (0, 1) is returned.  On a
    custom table the scan stops at its end, past which no run steps, and an
    edge with no stop there is clipped to the bound.
    """
    (lo_num, lo_den), (hi_num, hi_den) = interim_edges(table, n)
    return (lo_num / lo_den, hi_num / hi_den)


def interim_edges(table: BoundaryTable, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The edges of `interim_interval` as exact estimates (num, den): the stop
    cells (L_{nu-1} + 1, nu) and (U_{nu-1}, nu) they come from, or (0, 1) and
    (1, 1) for an edge clipped to the bound and for the fallback."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    win = math.ceil(2.0 / table.alpha)
    end = math.inf if table.spending.k is not None else table.spending.table.size
    edges, m = (None, None), n  # (lower, upper) over nu in (n, m]; nu = n never stops
    while None in edges and m < end:
        stop = min(m + win, end)
        edges, m, win = _scan(table, m, stop, edges), stop, 2 * win
    if None not in edges:
        caps = [_cap(table, m, num / den, sign) if 0 < num < den else m
                for (num, den), sign in zip(edges, (-1, 1))]
        if None in caps:
            return (0, 1), (1, 1)
        edges = _scan(table, m, max(caps), edges)
    lo, hi = edges  # an edge with no stop, or at the bound, is clipped to it
    return ((0, 1) if lo is None or lo[0] <= 0 else lo,
            (1, 1) if hi is None or hi[0] >= hi[1] else hi)


def _scan(table: BoundaryTable, m: int, end: int, edges: tuple) -> tuple:
    """`edges` (lower, upper), None or (num, den), widened by the stops at nu
    in (m, end]; estimates whose float is the extreme are compared exactly."""
    table.extend(end)
    nu = np.arange(m + 1, end + 1, dtype=float)
    out = []
    for edge, sign, bound in zip(edges, (-1, 1), (table.lower_array(end), table.upper_array(end))):
        prev, cur = bound[m - 1 : end - 1], bound[m:end]  # L_{nu-1}, L_nu (or U)
        nums, reach = (prev + 1, cur > prev) if sign < 0 else (prev, cur <= prev)
        q = np.where(reach, sign * nums / nu, -math.inf)
        for i in np.flatnonzero(reach & (q == q.max(initial=-math.inf))).tolist():
            num, den = int(nums[i]), int(nu[i])
            if edge is None or sign * (num * edge[1] - edge[0] * den) > 0:
                edge = (num, den)
        out.append(edge)
    return tuple(out)


def _cap(table: BoundaryTable, m: int, q: float, sign: int) -> int | None:
    """A horizon M > m after which no stop lands beyond an edge, or None.

    For an edge Q in (0, 1), upper (sign 1) or lower (sign -1), q = float(Q),
    and nu in [M, N), U_nu <= j = floor((nu + 1)Q), or L_nu >= j =
    ceil((nu + 1)Q) - 1, so a stop at nu + 1 lands no further out than Q.  N
    is a custom table's end, or where the rounding of the default eps_n is a
    third of their increment (8.6e8 steps at k = 1000, 2.7e7 at k = 1).

    For nu > m and sign*theta > 0, Markov's inequality on e^{theta S_nu},
    whose steps after m are independent of the past, and
    P(tau > m, S_m = s) <= Binom(m, alpha)(s) give under alpha
        P(tau > nu - 1, S_nu >= j) <= P(tau > m, S_nu >= j)
          <= e^{-theta j} g^{nu - m} sum_{L_m < s < U_m} Binom(m, alpha)(s) e^{theta s}
    with g = 1 - alpha + alpha e^theta (S_nu <= j on the lower side), at
    theta the KL tilt of q.  As -theta j <= max(theta, 0) - theta (nu + 1) Q,
    its log is at most K - kappa nu, with kappa = theta Q - log g and
    K = c + max(theta, 0) - theta Q - m log g, c the log of the sum.
    In floats a cell at nu is at most (1 + u)^{3 nu} times its paths' mass
    (three roundings a step, u = 2^-53), a tail sums at most nu + 1 cells,
    and the hit sum is at most eps_{nu-1}, as steps keep fl(tail + hit) <=
    eps_n, non-decreasing up to N.  Rounding is monotone, so j is admitted
    (U_nu <= j, or L_nu >= j) once D = log I + (kappa - 4u) nu - K >= 0, for
    an I <= eps_nu - eps_{nu-1}.

    On a custom table I is the float increment less a rounding, and M is one
    past the last nu in (m, N) where D fails.  In the default family
    I = h - a with h = eps k/(x(x - 1)) at x = k + nu and a = 4.02 u eps, as
    the computed eps_n = fl(fl(eps n)/(k + n)) err by under a/2.  While
    h >= 3a, D' >= kappa - 4u - 3/(x - 1), so D rises once
    x >= 1 + 3/(kappa - 4u); doubling and bisection find the least nu past
    there with D >= 0.  c is summed from one lgamma anchor and the cumulated
    log ratios of the w alive cells, whose magnitudes sum to at most
    w^2 log((m + 1)/min(alpha, 1 - alpha)).  With lgamma, log, log1p, exp and
    expm1 taken to err by at most 2^10 ulps, kappa and K are moved outward by
    2^-40, and D by 2^-48 = 32u, times the sum of their terms' magnitudes.
    """
    a, seq = table.alpha, table.spending
    theta = math.log(q * (1.0 - a) / (a * (1.0 - q)))
    s = np.arange(table.lower(m) + 1, table.upper(m), dtype=float)  # the alive cells at m
    anchor = (math.lgamma(m + 1.0), -math.lgamma(s[0] + 1.0), -math.lgamma(m - s[0] + 1.0),
              s[0] * math.log(a), (m - s[0]) * math.log1p(-a))
    ratio = (m - s[:-1]) / (s[:-1] + 1.0) * (a / (1.0 - a))
    x = sum(anchor) + np.concatenate(([0.0], np.cumsum(np.log(ratio)))) + theta * s
    c = (top := x.max()) + math.log(np.exp(x - top).sum())
    lg = math.log1p(a * math.expm1(theta))
    k0 = c + max(theta, 0.0) - theta * q - m * lg + 2.0**-40 * (
        sum(map(abs, anchor)) + s.size**2 * math.log((m + 1.0) / min(a, 1.0 - a))
        + abs(theta) * (m + 1) + abs(c) + abs(theta * q) + m * abs(lg))
    kappa = theta * q - lg - 2.0**-40 * (abs(theta * q) + abs(lg)) - 2.0**-51
    if sign * theta <= 0.0 or kappa <= 0.0:
        return None

    def low(li, nu):  # D(nu) less a bound on its float error
        return li + kappa * nu - k0 - 2.0**-48 * (1.0 + abs(li) + abs(kappa) * nu + abs(k0))

    if seq.k is None:
        nu = np.arange(m + 1, seq.table.size)
        with np.errstate(divide="ignore"):
            bad = np.flatnonzero(~(low(np.log(np.diff(seq.table)[m - 1 : -1]), nu) >= 0.0))
        return min(seq.table.size, int(nu[bad[-1]]) + 1 if bad.size else m + 1)
    err = 4.02 * 2.0**-53 * seq.epsilon

    def holds(nu: int) -> bool | None:  # D(nu) >= 0, or None past N
        h = seq.epsilon * seq.k / ((seq.k + nu) * (seq.k + nu - 1))
        return None if h < 3.0 * err else low(math.log(h - err), nu) >= 0.0

    start = max(m, math.ceil(3.0 / kappa) - seq.k)  # D rises on (start, N]
    below, nu = start, start + 1 + m // 2  # a first probe: M is near 2m on default tables
    while not (ok := holds(nu)):
        if ok is None:
            return None
        below, nu = nu, 2 * nu - start
    while nu - below > 1:
        mid = (below + nu) // 2
        below, nu = (below, mid) if holds(mid) else (mid, nu)
    return nu


# -- the driver ------------------------------------------------------------

#: bits run's first take asks for, doubling per take up to MAX_CHUNK
INITIAL_CHUNK = 32
MAX_CHUNK = 8192


def run(
    table: BoundaryTable,
    source,
    max_steps: int | None = None,
    report_every: int | None = None,
    report_seconds: float | None = None,
    progress=None,
) -> RunResult:
    """Drive the test until a boundary is hit, the stream ends, or max_steps.

    `source` is an object with ``take(m)``, which returns up to m bits, or
    any iterable of 0/1 bits; for a callback ``fn`` returning one bit per
    call, pass ``iter(fn, None)``.  Bits taken past a stop are dropped.  A
    source that fails, or an iterable that yields anything but 0 or 1, raises
    `SamplerError` with the state reached before the failing take (for an
    iterable, before the failing bit).  Progress records (dicts with n, s,
    p_min, p_max, elapsed_ms) are delivered to `progress` at the configured
    report points; reporting never changes the consumed bit sequence.
    `max_steps` below 1 raises ValueError.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    src = source if hasattr(source, "take") else _IterSource(source)
    n = 0
    s = 0
    t0 = time.monotonic()
    next_report = report_every if report_every else None
    last_report_time = t0
    chunk = INITIAL_CHUNK
    while True:
        m = chunk
        if max_steps is not None:
            m = min(m, max_steps - n)
            if m <= 0:
                return RunResult(TRUNCATED, n, s, None)
        if next_report is not None:
            m = min(m, next_report - n)
        try:
            bits = np.asarray(src.take(m), dtype=np.int64)
        except Exception as exc:  # noqa: BLE001 - wrap with partial state
            raise SamplerError(n, s, exc) from exc
        got = bits.size
        if got == 0:
            # exhausted stream: report the running estimate
            if n == 0:
                raise SamplerError(0, 0, ValueError("empty bit stream"))
            return RunResult(TRUNCATED, n, s, None)
        table.extend(n + got)
        cum = s + np.cumsum(bits)
        up = cum >= table.upper_array(n + got)[n : n + got]
        lo = cum <= table.lower_array(n + got)[n : n + got]
        hit = up | lo
        if hit.any():
            i = int(np.argmax(hit))
            n += i + 1
            s = int(cum[i])
            side = UPPER if up[i] else LOWER
            return RunResult(STOPPED, n, s, side)
        n += got
        s = int(cum[-1])
        chunk = min(MAX_CHUNK, chunk * 2)
        if progress is not None:
            now = time.monotonic()
            due = (next_report is not None and n >= next_report) or (
                report_seconds is not None and now - last_report_time >= report_seconds
            )
            if due:
                p_min, p_max = interim_interval(table, n)
                progress(
                    {
                        "n": n,
                        "s": s,
                        "p_min": p_min,
                        "p_max": p_max,
                        "elapsed_ms": int((now - t0) * 1000),
                    }
                )
                last_report_time = now
                if next_report is not None:
                    while next_report <= n:
                        next_report += report_every


# -- shared table cache and the nesting combinator -------------------------

_table_cache: dict[tuple, BoundaryTable] = {}
_table_lock = threading.Lock()


def get_table(alpha: float, epsilon: float = 1e-3, k: int = 1000) -> BoundaryTable:
    """Shared boundary table keyed by (alpha, spending identity)."""
    seq = SpendingSequence.default(epsilon, k)
    key = (round(alpha, 15),) + seq.key()
    with _table_lock:
        tab = _table_cache.get(key)
        if tab is None:
            tab = BoundaryTable(alpha, seq)
            _table_cache[key] = tab
        return tab


def h_alpha(
    threshold: float,
    source,
    max_steps: int | None = None,
    table: BoundaryTable | None = None,
) -> float:
    """Run the test at `threshold` and return the estimate.

    This is the combinator used for nesting: a finite or truncated stream
    yields the running estimate s/n, a stopped run yields s_tau/tau.
    """
    tab = table if table is not None else get_table(threshold)
    return run(tab, source, max_steps=max_steps).p_hat
