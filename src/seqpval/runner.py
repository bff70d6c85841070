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
    U_{nu-1}/nu over non-rising U, with nu scanned over (n, m].  Both edges
    are estimates that some run alive at n produces.

    Beyond the scanned window the Chernoff envelope at the window end m
    takes over (see ``BoundaryTable.chernoff_covers``, one KL evaluation per
    side): once it lies inside the scanned extremes, it bounds every stop
    estimate after m as long as the envelope narrows with m, as it does for
    the default spending sequence.  So the edges are the extremes over all
    nu > n, whichever m certifies them.  The first window has ceil(2/alpha)
    steps and doubles while an edge is missing; once both exist, the least
    horizon whose envelope they cover is found by doubling and bisecting m on
    the envelope test alone, and the scan jumps straight to it.  Extremes
    found on the way only widen the hull, so the envelope there still lies
    inside it.  If no horizon is certified within 64 rounds, the trivially
    sound (0, 1) is returned.
    """
    (lo_num, lo_den), (hi_num, hi_den) = interim_edges(table, n)
    return (lo_num / lo_den, hi_num / hi_den)


def interim_edges(table: BoundaryTable, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The edges of `interim_interval` as exact estimates (num, den).

    A scanned edge is the stop cell it comes from: (L_{nu-1} + 1, nu) for
    the lower edge and (U_{nu-1}, nu) for the upper one.  An edge clipped to
    the bound, and the fallback, are (0, 1) and (1, 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    win = max(1, math.ceil(2.0 / table.alpha))
    lo_edge = hi_edge = None
    scanned = n  # last nu already included in the extremes (nu = n never stops)
    m = n + win
    for _ in range(64):
        table.extend(m)
        nu = np.arange(scanned + 1, m + 1, dtype=float)
        up = table.upper_array(m)
        lo = table.lower_array(m)
        # U_{nu-1}, U_nu (and likewise L) for nu in (scanned, m]
        up_prev, up_cur = up[scanned - 1 : m - 1], up[scanned:m]
        lo_prev, lo_cur = lo[scanned - 1 : m - 1], lo[scanned:m]
        hi_edge = _extreme(hi_edge, up_prev, nu, up_cur <= up_prev, sign=1)
        lo_edge = _extreme(lo_edge, lo_prev + 1, nu, lo_cur > lo_prev, sign=-1)
        w_hi = hi_edge[0] / hi_edge[1] if hi_edge else -math.inf
        w_lo = lo_edge[0] / lo_edge[1] if lo_edge else math.inf
        scanned = m
        if table.chernoff_covers(m, w_lo, w_hi):
            return (0, 1) if w_lo <= 0.0 else lo_edge, (1, 1) if w_hi >= 1.0 else hi_edge
        if hi_edge is None or lo_edge is None:
            win *= 2
            m = scanned + win
        else:
            m = _least_covered(table, scanned, win, w_lo, w_hi)
            if m is None:
                break
    # envelope never dominated (pathological spending); fall back to the
    # trivially sound interval
    return (0, 1), (1, 1)


def _least_covered(table: BoundaryTable, m: int, step: int, w_lo: float, w_hi: float):
    """A horizon after m whose Chernoff envelope lies inside [w_lo, w_hi], or
    None if none does within 64 doublings of `step`.

    The distance from m doubles until the envelope test passes and is then
    bisected, so the result is the least such horizon when the test, once
    passed, stays passed as m grows; the test passes there in any case.
    """
    below = m
    for _ in range(64):
        above = m + step
        if table.chernoff_covers(above, w_lo, w_hi):
            break
        below, step = above, 2 * step
    else:
        return None
    while above - below > 1:
        mid = (below + above) // 2
        if table.chernoff_covers(mid, w_lo, w_hi):
            above = mid
        else:
            below = mid
    return above


def _extreme(edge, nums: np.ndarray, nu: np.ndarray, reach: np.ndarray, sign: int):
    """The greatest (sign 1) or least (sign -1) estimate (num, den) among
    `edge` and the nums / nu where `reach` holds.

    Floats order distinct estimates only up to rounding, so the ones whose
    quotient equals the extreme float are compared exactly; the result's
    float quotient is that extreme.
    """
    q = np.where(reach, sign * nums / nu, -math.inf)
    for i in np.flatnonzero(reach & (q == q.max())).tolist():
        num, den = int(nums[i]), int(nu[i])
        if edge is None or sign * (num * edge[1] - edge[0] * den) > 0:
            edge = (num, den)
    return edge


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
