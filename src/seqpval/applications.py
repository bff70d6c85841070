"""Bootstrap testing of contingency-table independence via the sequential engine.

The case study: a likelihood-ratio test of independence on a small table,
its chi-square asymptotic p-value, a parametric bootstrap under the fitted
independence model driven by the sequential procedure, level checks of the
asymptotic test, the double bootstrap, and a sample-size search.  Each
workflow reports as `samples_used` the null draws its runs consumed, computed
from their results, so that total-cost comparisons are exact, and as
`samples_drawn` every null draw it made, including those no run consumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from . import _native
from .boundary import BoundaryTable
from .runner import INITIAL_CHUNK, LOWER, MAX_CHUNK, RunResult, get_table, interim_interval, run
from .spending import SpendingSequence


class DataError(ValueError):
    pass


# -- data and the test statistic -------------------------------------------


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.size == 0:
            raise DataError("counts must be a non-empty 2-d array")
        if not np.issubdtype(c.dtype, np.integer):
            try:
                c = np.asarray(c, dtype=float)
            except (TypeError, ValueError):
                raise DataError("counts must be non-negative integers") from None
            if not np.all(np.isfinite(c) & (c == np.floor(c))):
                raise DataError("counts must be non-negative integers, without fractions")
        if np.any(c < 0):
            raise DataError("counts must be non-negative integers")
        c = c.astype(np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def df(self) -> int:
        r, c = self.counts.shape
        return (r - 1) * (c - 1)

    @classmethod
    def from_csv(cls, path) -> "ContingencyTable":
        return cls(np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2))


def example_table() -> ContingencyTable:
    """The bundled 5x7 example data set."""
    ref = resources.files("seqpval.data").joinpath("example_5x7.csv")
    with resources.as_file(ref) as path:
        return ContingencyTable.from_csv(path)


@dataclass(frozen=True)
class NullModel:
    """Independence fit: cell probabilities q_ij = (r_i/N)(c_j/N)."""

    cell_probs: np.ndarray
    total: int

    def __post_init__(self):
        q = np.asarray(self.cell_probs, dtype=float)
        if abs(q.sum() - 1.0) > 1e-9:
            raise DataError(f"cell probabilities must sum to 1, got {q.sum()}")
        q.setflags(write=False)
        object.__setattr__(self, "cell_probs", q)

    @functools.cached_property
    def _inversion(self) -> "_Inversion":
        return _Inversion(self.cell_probs)


def fit_independence(table: ContingencyTable) -> NullModel:
    n = table.total
    if n == 0:
        raise DataError("cannot fit a null model to an all-zero table")
    return _independence(table.row_sums, table.col_sums, n)


def _independence(row_sums: np.ndarray, col_sums: np.ndarray, total: int) -> NullModel:
    """The fit q = r c^T / N^2 of margins that sum to `total` > 0.

    Its cells sum to 1 by construction, so the model is built without the
    constructor's check: inner runs of the double bootstrap refit one per
    outer bit.
    """
    q = np.multiply.outer(row_sums, col_sums) / float(total * total)
    q.setflags(write=False)
    model = object.__new__(NullModel)
    model.__dict__.update(cell_probs=q, total=total)
    return model


def lrt_statistic(table: ContingencyTable) -> float:
    """Likelihood-ratio statistic T = 2 sum a_ij log(a_ij / h_ij).

    h_ij = r_i c_j / N is the independence fit; cells with a_ij = 0 (and in
    particular whole zero rows/columns) contribute 0 by the 0 log 0 = 0
    convention.  The value is the one ``_lrt_batch`` gives the table in any
    batch.
    """
    n = table.total
    if n == 0:
        raise DataError("LRT statistic undefined for an all-zero table")
    return float(_lrt_batch(table.counts[None], n)[0])


#: totals N whose k log k tables stay cached, 8 (N + 1) bytes each
_XLOGX_CACHED = 4


@functools.lru_cache(maxsize=_XLOGX_CACHED)
def _xlogx(n_total: int) -> tuple[np.ndarray, int]:
    """Read-only k log k for k = 0..n_total, with 0 log 0 = 0, and its
    address for the kernel."""
    k = np.arange(1, n_total + 1, dtype=float)
    out = np.zeros(n_total + 1)
    out[1:] = k * np.log(k)
    out.setflags(write=False)
    return out, out.ctypes.data


def _lrt_batch(counts: np.ndarray, n_total: int) -> np.ndarray:
    """LRT of each table of a (batch, rows, cols) integer array, every table
    summing to n_total.

    T = 2 (sum_ij x(a_ij) - sum_i x(r_i) - sum_j x(c_j) + x(N)) with
    x(k) = k log k read from a cached table, so T is a function of the
    counts alone and a table gets the same value at any place in any batch.
    The compiled kernel, when available, gives the same values bit for bit.
    A count or margin outside 0..n_total raises IndexError.
    """
    x, x_addr = _xlogx(n_total)
    kern = _native.kernel()
    if kern is None:
        if counts.size and counts.min() < 0:
            raise IndexError(f"a count lies outside 0..{n_total}")
        cells = x[counts.reshape(counts.shape[0], -1)].sum(axis=1)
        rows = x[counts.sum(axis=2)].sum(axis=1)
        cols = x[counts.sum(axis=1)].sum(axis=1)
        return 2.0 * (cells - rows - cols + x[n_total])
    size, r, c = counts.shape
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    # the statistics, then the kernel's work space: one allocation, one address
    buf = np.empty(size + r * c + r + c)
    out_addr = buf.ctypes.data
    if kern.seqpval_lrt(counts.ctypes.data, size, r, c, x_addr, n_total,
                        out_addr + size * buf.itemsize, out_addr) != _native.DONE:
        raise IndexError(f"a count or margin lies outside 0..{n_total}")
    return buf[:size]


def _lrt_rounding_bound(shape: tuple, n_total: int) -> float:
    """A bound on |computed T - exact T| for ``_lrt_batch`` on tables of this
    shape and total: (cells + rows + cols + 32) 2^-52 N log N.

    With u = 2^-53: each x(k) is k * log(k) with np.log taken to be within
    2 ulps, so its relative error is at most 5u (plus O(u^2)), as
    ulp(y) <= 2u|y|.  The
    three sums add m >= 1 non-negative terms whose exact total is at most
    N log N (a log a <= a log N), so each is off by at most (m + 5)u N log N;
    x(N) by 5u N log N.  The two subtractions and the addition round
    values of magnitude at most 2 N log N, adding at most 6u N log N.  So
    T / 2 is off by at most (cells + rows + cols + 26)u N log N, and the
    margin of 6 covers the O(u^2) terms.
    """
    rows, cols = shape
    if n_total < 2:
        return 0.0  # every x(k) is 0, exactly
    return (rows * cols + rows + cols + 32) * 2.0**-52 * n_total * math.log(n_total)


def _reach_cut(t_ref: float, model: NullModel) -> float:
    """The least null statistic that counts as T* >= t_ref: t_ref - delta.

    Null statistics are computed by ``_lrt_batch``, and so is ``t_ref`` when
    it is an observed statistic; each is within ``_lrt_rounding_bound`` of
    its exact value.  With delta twice that bound, a draw whose exact
    statistic equals or exceeds the exact t_ref always counts, whatever the
    two roundings.  (Rounding t_ref - delta moves it by at most 2u N log N,
    inside the bound's margin.)
    """
    return t_ref - 2.0 * _lrt_rounding_bound(model.cell_probs.shape, model.total)


def _reaches(stats: np.ndarray, t_ref: float, model: NullModel) -> np.ndarray:
    """The tie rule: whether each null statistic counts as T* >= t_ref."""
    return stats >= _reach_cut(t_ref, model)


def chisq_pvalue(t: float, df: int) -> float:
    """Upper-tail chi-square probability Q(df/2, t/2)."""
    if t < 0.0:
        raise ValueError(f"statistic must be >= 0, got {t}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    from scipy.special import gammaincc

    return float(gammaincc(df / 2.0, t / 2.0))


def chisq_quantile(alpha: float, df: int) -> float:
    """Upper-alpha chi-square critical value 2 P^-1(df/2, 1 - alpha), the t
    with chisq_pvalue(t, df) = alpha; equal to scipy.stats.chi2.ppf(1 - alpha, df)."""
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(df / 2.0, 1.0 - alpha))


# -- null sampling ----------------------------------------------------------


#: Inversion draws a table in O(N) and ``Generator.multinomial`` in
#: O(cells), so tables with N > _INVERSION_MAX_DRAWS_PER_CELL * cells keep
#: the multinomial.  Measured per table with the compiled draw against
#: NumPy 2.4's multinomial (x86-64, 2 vCPUs): inversion costs about 11 ns
#: per draw, and the two cost the same at N of about 15 * cells on the 5x7,
#: 8x10 and 20x20 shapes (5x7 at 10 * cells: 3.8 against 4.9 us; at
#: 20 * cells: 7.9 against 6.3 us) and about 4 * cells on 2x2, whose
#: multinomial is cheapest.
_INVERSION_MAX_DRAWS_PER_CELL = 12
#: guide-table buckets per cell of the compiled inversion draw
_GUIDE_PER_CELL = 16
#: uniforms per block of the numpy inversion loop (8 bytes each, plus the
#: cell index of each)
_UNIFORM_BLOCK = 1 << 16


class _Inversion:
    """Inversion sampler of a model's cells, in row-major order.

    A draw with uniform u takes the cell searchsorted(cdf, u, side="right")
    of cdf = cumsum(q), clamped to ``last``, the last cell of positive
    probability; so a cell of probability 0 is never drawn.  ``guide`` holds,
    for b = 0 .. g, the cell searchsorted(cdf, b / g, side="right"): where the
    compiled draw starts its search for a u in bucket b.
    """

    def __init__(self, cell_probs: np.ndarray):
        q = cell_probs.ravel()
        self.cdf = np.cumsum(q)
        self.last = int(np.flatnonzero(q)[-1])
        g = _GUIDE_PER_CELL * q.size
        self.guide = np.searchsorted(self.cdf, np.arange(g + 1) / g, side="right")
        self.args = (_native.ptr(self.cdf, np.float64), q.size, self.last,
                     _native.ptr(self.guide, np.int64), g)


def sample_null(model: NullModel, rng: np.random.Generator) -> ContingencyTable:
    return ContingencyTable(sample_null_batch(model, rng, 1)[0])


def sample_null_batch(model: NullModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, rows, cols) array of independent null draws.

    Tables with N <= _INVERSION_MAX_DRAWS_PER_CELL * cells are drawn by
    inversion, N uniforms of ``rng.random`` each, in the compiled kernel when
    it is available and in numpy blocks otherwise, with identical tables
    and the same Generator state after.  Larger N draw with
    ``rng.multinomial``.  Either way a table's draw does not depend on the
    batch it is drawn in.
    """
    q = model.cell_probs
    n = model.total
    if n > _INVERSION_MAX_DRAWS_PER_CELL * q.size:
        return rng.multinomial(n, q.ravel(), size=size).reshape((size,) + q.shape)
    inv = model._inversion
    out = np.empty((size,) + q.shape, dtype=np.int64)
    kern = _native.kernel()
    if kern is None:
        _draw_numpy(inv, n, rng, out.reshape(size, q.size))
    else:
        bitgen = rng.bit_generator
        c = bitgen.ctypes
        with bitgen.lock:
            kern.seqpval_null_draw(c.next_double, c.state_address, size, n, *inv.args,
                                   out.ctypes.data)
    return out


def _draw_numpy(inv: _Inversion, n: int, rng: np.random.Generator, out: np.ndarray):
    """The compiled draw's reference loop: fill the (size, cells) array
    ``out`` with inversion draws, ``_UNIFORM_BLOCK // n`` tables at a time."""
    size, k = out.shape
    step = max(1, _UNIFORM_BLOCK // max(1, n))
    for lo in range(0, size, step):
        m = min(step, size - lo)
        cells = np.searchsorted(inv.cdf, rng.random(m * n), side="right")
        np.minimum(cells, inv.last, out=cells)
        cells += np.repeat(np.arange(m) * k, n)
        out[lo : lo + m] = np.bincount(cells, minlength=m * k).reshape(m, k)


class NullStatStream:
    """Bit source 1{T(sample) >= t_ref} over fresh null draws, ties decided
    by the tie rule of ``_reaches``, whose cut is computed once.

    ``take(m)`` draws exactly m tables, and ``drawn`` counts them.  A table's
    draw does not depend on how the draws are batched (see
    ``sample_null_batch``), so the bit sequence is the same whatever chunks
    the run asks for.  A run over the stream consumes one table per step, so
    its ``n`` is its cost.
    """

    def __init__(self, model: NullModel, t_ref: float, rng: np.random.Generator):
        self.model = model
        self.t_ref = t_ref
        self.rng = rng
        self.drawn = 0
        self._cut = _reach_cut(t_ref, model)

    def take(self, m: int) -> np.ndarray:
        tables = sample_null_batch(self.model, self.rng, m)
        self.drawn += m
        stats = _lrt_batch(tables, self.model.total)
        return (stats >= self._cut).astype(np.int8)


# -- engine configuration ---------------------------------------------------


@dataclass
class EngineConfig:
    """Knobs shared by every application run."""

    alpha: float = 0.05
    epsilon: float = 1e-3
    k: int = 1000
    seed: int | None = None
    max_steps: int | None = None

    def table(self, alpha: float | None = None) -> BoundaryTable:
        return get_table(alpha if alpha is not None else self.alpha, self.epsilon, self.k)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class BootstrapReport:
    statistic: float
    chisq_p: float
    result: RunResult
    samples_used: int
    samples_drawn: int  # null draws made, consumed or not
    interim: tuple | None = None

    def to_json_dict(self) -> dict:
        out = {
            "T": self.statistic,
            "chisq_p": self.chisq_p,
            "bootstrap": {
                "p_hat": self.result.p_hat,
                "tau": self.result.n,
                "side": self.result.side,
                "status": self.result.status,
            },
            "samples_used": self.samples_used,
            "samples_drawn": self.samples_drawn,
        }
        if self.interim is not None:
            out["interim"] = {"p_min": self.interim[0], "p_max": self.interim[1]}
        return out


# -- the bootstrap workflows ------------------------------------------------


def bootstrap_pvalue(
    data: ContingencyTable,
    config: EngineConfig | None = None,
) -> BootstrapReport:
    """Sequential parametric-bootstrap p-value for the independence LRT."""
    cfg = config if config is not None else EngineConfig()
    t_obs = lrt_statistic(data)
    model = fit_independence(data)
    stream = NullStatStream(model, t_obs, cfg.rng())
    table = cfg.table()
    res = run(table, stream, max_steps=cfg.max_steps)
    interim = None
    if not res.stopped and res.n >= 1:
        interim = interim_interval(table, res.n)
    return BootstrapReport(
        statistic=t_obs,
        chisq_p=chisq_pvalue(t_obs, data.df),
        result=res,
        samples_used=res.n,
        samples_drawn=stream.drawn,
        interim=interim,
    )


def check_level(
    data: ContingencyTable,
    nominal_alpha: float | None = None,
    threshold_alpha: float | None = None,
    config: EngineConfig | None = None,
) -> BootstrapReport:
    """Estimate the true level of the asymptotic test under the fitted null.

    Streams the indicator that the chi-square test at `nominal_alpha` rejects
    on a null draw, and runs the engine against `threshold_alpha`; either
    left as None is the config's alpha.
    """
    cfg = config if config is not None else EngineConfig()
    nominal_alpha = cfg.alpha if nominal_alpha is None else nominal_alpha
    threshold_alpha = cfg.alpha if threshold_alpha is None else threshold_alpha
    model = fit_independence(data)
    # rejection happens iff T >= upper-alpha chi-square quantile
    t_crit = chisq_quantile(nominal_alpha, data.df)
    stream = NullStatStream(model, t_crit, cfg.rng())
    res = run(cfg.table(threshold_alpha), stream, max_steps=cfg.max_steps)
    return BootstrapReport(
        statistic=t_crit,
        chisq_p=nominal_alpha,
        result=res,
        samples_used=res.n,
        samples_drawn=stream.drawn,
    )


class _ClippedBounds:
    """Boundaries on which a run stops as soon as the bit 1{p_hat <= num/den}
    of the table's run truncated at M samples is known.

    With c = floor(num*M/den), a run that reaches M gives 0 once S_n > c and
    1 once S_n + (M - n) <= c, whatever bits follow.  For n <= M the bounds
    are U'_n = min(U_n, c + 1) and L'_n = max(L_n, c - M + n), so ``run`` on
    them stops at the first step where the table's run stops or the bit is
    fixed, on the upper side exactly when the bit is 0.  At n = M one of the
    two always holds.  The table's own stops keep their bit, since
    U_n > n*alpha and L_n < n*alpha.
    """

    def __init__(self, table: BoundaryTable, M: int, num: int, den: int):
        c = (num * M) // den
        table.extend(M)
        self.M = M
        self._upper = np.minimum(table.upper_array(M), c + 1)
        self._lower = np.maximum(table.lower_array(M), c - M + np.arange(1, M + 1))

    def extend(self, n: int) -> "_ClippedBounds":
        return self

    def upper_array(self, n: int) -> np.ndarray:
        return self._upper[:n]

    def lower_array(self, n: int) -> np.ndarray:
        return self._lower[:n]


def _truncated_indicator(bounds: _ClippedBounds, stream) -> tuple[int, int]:
    """The bit 1{p_hat <= num/den} of the run truncated at M that ``bounds``
    clip, and the number of bits that run consumed."""
    res = run(bounds, stream, max_steps=bounds.M)
    return int(res.side == LOWER), res.n


class _NestedStream:
    """Outer bits that are each the indicator of a truncated inner run.

    Subclasses build the inner bit source of one outer bit in
    ``_inner_stream``.  ``costs`` holds, for every outer bit taken, the
    samples it consumed: its inner run's n plus ``outer_draws``.  An outer
    run that consumed n bits cost ``sum(costs[:n])``.  ``drawn`` counts the
    null draws of every outer bit taken: its inner stream's and its outer
    draws.

    All draws come from ``rng``, bit after bit.  The compiled kernel computes
    a take in one call; without it, and for tables drawn by multinomial, the
    per-bit loop gives the same bits, costs and Generator state.
    """

    outer_draws = 0  # null draws per outer bit besides its inner run's

    def __init__(self, model: NullModel, bounds: _ClippedBounds, rng, t_ref: float = math.nan):
        self.model = model
        self.t_ref = t_ref
        self.bounds = bounds
        self.rng = rng
        self.costs: list[int] = []
        self.drawn = 0
        self._work = None  # the kernel's work space, made on its first call

    def take(self, m: int) -> np.ndarray:
        # at most 8, then 16, then 32 bits a take (as long as the takes are
        # full): every outer bit is an entire truncated inner run, so small
        # takes compute few past the outer stop
        m = min(m, 32, 8 + len(self.costs))
        model, kern = self.model, _native.kernel()
        if kern is None or model.total > _INVERSION_MAX_DRAWS_PER_CELL * model.cell_probs.size:
            out = np.empty(m, dtype=np.int8)
            for i in range(m):
                inner = self._inner_stream()
                out[i], n = _truncated_indicator(self.bounds, inner)
                self.costs.append(n + self.outer_draws)
                self.drawn += inner.drawn + self.outer_draws
            return out
        rows, cols = model.cell_probs.shape
        inv = model._inversion
        if self._work is None:
            # k log k (kept referenced), work space, and the cut's margin
            self._work = (_xlogx(model.total), np.empty(2 * rows * cols + rows + cols),
                          np.empty(inv.args[-1] + 1 + rows * cols + rows + cols, dtype=np.int64),
                          2.0 * _lrt_rounding_bound((rows, cols), model.total))
        (_, x_addr), work, iwork, delta = self._work
        out = np.empty((m, 3), dtype=np.int64)  # (bit, inner n, inner tables drawn)
        bitgen = self.rng.bit_generator
        c = bitgen.ctypes
        with bitgen.lock:
            kern.seqpval_nested(
                c.next_double, c.state_address, m, *inv.args, rows, model.total, x_addr,
                self.outer_draws, self.t_ref, delta, _native.ptr(self.bounds._upper, np.int64),
                _native.ptr(self.bounds._lower, np.int64), self.bounds.M, INITIAL_CHUNK,
                MAX_CHUNK, work.ctypes.data, iwork.ctypes.data, out.ctypes.data)
        self.costs.extend((out[:, 1] + self.outer_draws).tolist())
        self.drawn += int(out[:, 2].sum()) + m * self.outer_draws
        return out[:, 0].astype(np.int8)


class _InnerLevelStream(_NestedStream):
    """Outer bits 1{inner truncated level estimate <= inner_alpha}.

    Each outer bit runs the engine on a rejection stream at t_ref, truncated
    at M inner samples, and compares the resulting estimate to `inner_alpha`.
    """

    def _inner_stream(self) -> NullStatStream:
        return NullStatStream(self.model, self.t_ref, self.rng)


def check_level_bootstrap(
    data: ContingencyTable,
    M: int = 250,
    outer_alpha: float | None = None,
    inner_alpha: float | None = None,
    config: EngineConfig | None = None,
) -> BootstrapReport:
    """Nested level check: outer sequential run over inner truncated runs.

    `outer_alpha` and `inner_alpha` left as None are the config's alpha.
    """
    if M < 1:
        raise ValueError(f"inner truncation M must be >= 1, got {M}")
    cfg = config if config is not None else EngineConfig()
    outer_alpha = cfg.alpha if outer_alpha is None else outer_alpha
    inner_alpha = cfg.alpha if inner_alpha is None else inner_alpha
    model = fit_independence(data)
    t_crit = chisq_quantile(inner_alpha, data.df)
    frac = Fraction(inner_alpha).limit_denominator(10**6)
    bounds = _ClippedBounds(cfg.table(inner_alpha), M, frac.numerator, frac.denominator)
    stream = _InnerLevelStream(model, bounds, cfg.rng(), t_crit)
    res = run(cfg.table(outer_alpha), stream, max_steps=cfg.max_steps)
    return BootstrapReport(
        statistic=t_crit, chisq_p=inner_alpha, result=res,
        samples_used=sum(stream.costs[:res.n]),
        samples_drawn=stream.drawn,
    )


class _DoubleBootstrapStream(_NestedStream):
    """Outer bits of the double bootstrap.

    For each outer null draw A_i: run the inner engine at threshold p1 on the
    stream 1{T(A_ij) >= T(A_i)} over second-level draws A_ij from the model
    refitted to A_i, truncated at M, and emit 1{inner estimate <= p1}.
    """

    outer_draws = 1  # A_i; the kernel refits the inner model when it is 1

    def _inner_stream(self) -> NullStatStream:
        # the same draw as sample_null, without building a ContingencyTable
        a_i = sample_null_batch(self.model, self.rng, 1)
        n = self.model.total
        refit = _independence(a_i[0].sum(axis=1), a_i[0].sum(axis=0), n)
        return NullStatStream(refit, float(_lrt_batch(a_i, n)[0]), self.rng)


def double_bootstrap(
    data: ContingencyTable,
    M: int = 250,
    first_stage: int = 10_000,
    config: EngineConfig | None = None,
) -> BootstrapReport:
    """Double-bootstrap adjusted p-value of the independence LRT.

    Stage one estimates the plain bootstrap p-value p1 from a fixed budget of
    null draws; stage two runs the sequential engine on the adjustment
    indicators, each requiring an inner run truncated at M.  `samples_used`
    counts the samples of every stage: the first-stage budget, and each
    consumed outer bit's draw and inner samples.
    """
    if M < 1:
        raise ValueError(f"inner truncation M must be >= 1, got {M}")
    if first_stage < 1:
        raise ValueError(f"first-stage budget must be >= 1, got {first_stage}")
    cfg = config if config is not None else EngineConfig()
    t_obs = lrt_statistic(data)
    model = fit_independence(data)
    rng = cfg.rng()
    tables = sample_null_batch(model, rng, first_stage)
    hits = int(np.count_nonzero(_reaches(_lrt_batch(tables, model.total), t_obs, model)))
    if not (0 < hits < first_stage):
        raise ValueError(
            f"first-stage estimate p1={hits}/{first_stage} is degenerate; "
            "increase the budget"
        )
    # a private table: the shared cache would keep one per first-stage estimate
    p1_table = BoundaryTable(hits / first_stage, SpendingSequence.default(cfg.epsilon, cfg.k))
    bounds = _ClippedBounds(p1_table, M, hits, first_stage)
    stream = _DoubleBootstrapStream(model, bounds, rng)
    res = run(cfg.table(), stream, max_steps=cfg.max_steps)
    return BootstrapReport(
        statistic=t_obs,
        chisq_p=chisq_pvalue(t_obs, data.df),
        result=res,
        samples_used=first_stage + sum(stream.costs[:res.n]),
        samples_drawn=first_stage + stream.drawn,
    )


# -- sample-size search -----------------------------------------------------


@dataclass(frozen=True)
class SampleSizeResult:
    size: int | None  # minimal size achieving the target, when resolved
    bracket: tuple  # (lo, hi) bounds at exit
    resolved: bool
    evaluations: tuple = field(default=(), repr=False)  # (size, side/status)


def find_sample_size(
    power_evaluator,
    target_power: float,
    lo: int,
    hi: int,
    config: EngineConfig | None = None,
    max_steps: int = 100_000,
) -> SampleSizeResult:
    """Smallest sample size whose power exceeds `target_power`, by bisection.

    `power_evaluator(size)` must return a bit stream of independent test
    rejections at that size; power is assumed non-decreasing in size.  Each
    probe runs the engine at threshold `target_power`, at the config's full
    eps, truncated at `max_steps`; a truncated probe ends the search with an
    unresolved bracket.  Each of the up to ceil(log2(hi - lo)) + 2 probes
    errs with probability at most eps, so by the union bound a resolved size
    is wrong with probability at most (number of probes) * eps.
    """
    if lo > hi:
        raise ValueError(f"empty search range [{lo}, {hi}]")
    if target_power <= 0.0:
        return SampleSizeResult(size=lo, bracket=(lo, lo), resolved=True)
    if target_power >= 1.0:
        raise ValueError(f"target power must be < 1, got {target_power}")
    cfg = config if config is not None else EngineConfig()
    table = cfg.table(target_power)
    evals = []

    def classify(size: int) -> str | None:
        res = run(table, power_evaluator(size), max_steps=max_steps)
        evals.append((size, res.side if res.stopped else res.status))
        return res.side if res.stopped else None

    side_hi = classify(hi)
    if side_hi != "upper":
        return SampleSizeResult(
            size=None, bracket=(lo, hi), resolved=False, evaluations=tuple(evals)
        )
    side_lo = classify(lo)
    if side_lo == "upper":
        return SampleSizeResult(size=lo, bracket=(lo, lo), resolved=True,
                                evaluations=tuple(evals))
    if side_lo is None:
        return SampleSizeResult(size=None, bracket=(lo, hi), resolved=False,
                                evaluations=tuple(evals))
    # invariant: power(lo) below target, power(hi) above
    while hi - lo > 1:
        mid = (lo + hi) // 2
        side = classify(mid)
        if side == "upper":
            hi = mid
        elif side == "lower":
            lo = mid
        else:
            return SampleSizeResult(size=None, bracket=(lo, hi), resolved=False,
                                    evaluations=tuple(evals))
    return SampleSizeResult(size=hi, bracket=(lo, hi), resolved=True,
                            evaluations=tuple(evals))
