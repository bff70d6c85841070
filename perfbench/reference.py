"""Correctness references, written apart from the program under test.

Nothing here imports ``seqpval``: every reference is computed from the
definitions, so a fault in the program cannot hide in its own oracle.

- ``replay``: the sequential decision, one bit at a time, against U/L.
- ``exact_boundaries``: the boundary recursion in exact rationals.
- ``forward_law``: the stopped law and E(min(tau, H)) under any p.
- ``lrt``, ``chi2_pvalue``, ``mc_pvalue``: the contingency-table test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.stats import chi2


def replay(bits, upper, lower, max_steps=None):
    """(status, n, s, side) of the test over `bits`, one bit at a time.

    `upper[n - 1]` and `lower[n - 1]` are U_n and L_n.  A run that touches
    neither boundary within `max_steps` (or within the bits given) is
    truncated at the step it reached.
    """
    limit = len(bits) if max_steps is None else min(len(bits), max_steps)
    s = 0
    for n in range(1, limit + 1):
        s += int(bits[n - 1])
        if s >= upper[n - 1]:
            return ("stopped", n, s, "upper")
        if s <= lower[n - 1]:
            return ("stopped", n, s, "lower")
    return ("truncated", limit, s, None)


def exact_boundaries(alpha: Fraction, epsilon: Fraction, k: int, n_max: int):
    """(U_1..U_n_max, L_1..L_n_max) from the defining recursion, in rationals.

    U_n is the least j such that the alive mass at or above j, plus all mass
    that hit the upper boundary before, is at most eps_n = eps*n/(k+n);
    L_n is the greatest j with the same property on the lower side.  The
    alive mass after step 1 is Bernoulli(alpha) and U_1 = 2, L_1 = -1.
    """
    a = Fraction(alpha)
    upper, lower = [2], [-1]
    alive = [1 - a, a]  # alive[i] = P(S_n = off + i, tau > n)
    off = 0
    hit_u = hit_l = Fraction(0)
    for n in range(2, n_max + 1):
        eps_n = Fraction(epsilon) * n / (k + n)
        new = [Fraction(0)] * (len(alive) + 1)
        for i, m in enumerate(alive):
            new[i] += m * (1 - a)
            new[i + 1] += m * a
        top = off + len(new) - 1
        u, tail = top + 1, Fraction(0)
        while u - 1 >= off and tail + new[u - 1 - off] + hit_u <= eps_n:
            tail += new[u - 1 - off]
            u -= 1
        low, ltail = off - 1, Fraction(0)
        while low + 1 <= top and ltail + new[low + 1 - off] + hit_l <= eps_n:
            ltail += new[low + 1 - off]
            low += 1
        if u <= low:
            raise ValueError(f"degenerate boundaries at step {n}")
        hit_u += tail
        hit_l += ltail
        alive = new[low + 1 - off : u - off]
        off = low + 1
        upper.append(u)
        lower.append(low)
    return upper, lower


def forward_law(upper, lower, p: float, horizon: int):
    """Stopped law of (tau, S_tau, side) under Bernoulli(p), up to `horizon`.

    A plain forward recursion over the alive distribution: mass that reaches
    S_n >= U_n or S_n <= L_n stops at n.  Returns (stops, e_tau, residual):
    `stops` maps (n, j, side) to its probability, `e_tau` is
    E(min(tau, horizon)) = sum over n < horizon of P(tau > n), and
    `residual` is P(tau > horizon).
    """
    alive = {0: 1.0}
    stops = {}
    e_tau = 0.0
    for n in range(1, horizon + 1):
        e_tau += sum(alive.values())  # P(tau > n - 1)
        new = {}
        for j, m in alive.items():
            new[j] = new.get(j, 0.0) + m * (1.0 - p)
            new[j + 1] = new.get(j + 1, 0.0) + m * p
        alive = {}
        for j, m in new.items():
            if j >= upper[n - 1]:
                stops[(n, j, "upper")] = m
            elif j <= lower[n - 1]:
                stops[(n, j, "lower")] = m
            else:
                alive[j] = m
    return stops, e_tau, sum(alive.values())


def wald_bound(p: float, epsilon: float, alpha: float) -> float:
    """Wald's lower bound on E_p(tau) for wrong-side error rates epsilon."""
    num = (1 - epsilon) * math.log((1 - epsilon) / epsilon) + epsilon * math.log(
        epsilon / (1 - epsilon)
    )
    den = p * math.log(p / alpha) + (1 - p) * math.log((1 - p) / (1 - alpha))
    return num / den


# -- contingency tables ------------------------------------------------------


def lrt(counts) -> float:
    """Independence likelihood-ratio statistic 2 sum a log(a / (r c / N))."""
    a = np.asarray(counts, dtype=float)
    expected = np.outer(a.sum(axis=1), a.sum(axis=0)) / a.sum()
    nz = a > 0
    return float(2.0 * np.sum(a[nz] * np.log(a[nz] / expected[nz])))


def chi2_pvalue(t: float, df: int) -> float:
    return float(chi2.sf(t, df))


def _lrt_rows(tables: np.ndarray, total: int) -> np.ndarray:
    a = tables.astype(float)
    expected = a.sum(axis=2, keepdims=True) * a.sum(axis=1, keepdims=True) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(a > 0, a * np.log(a / expected), 0.0)
    return 2.0 * terms.sum(axis=(1, 2))


def mc_pvalue(counts, draws: int, seed, chunk: int = 2000) -> float:
    """Parametric-bootstrap p-value of the LRT from `draws` null tables.

    The null is the independence fit q_ij = r_i c_j / N^2.  Each table is
    drawn cell by cell: the count of a cell is binomial given what the cells
    before it took, so this sampler shares no code with the program's.
    """
    a = np.asarray(counts, dtype=np.int64)
    rows, cols = a.shape
    total = int(a.sum())
    q = np.outer(a.sum(axis=1), a.sum(axis=0)).ravel() / float(total * total)
    t_obs = lrt(a)
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, draws, chunk):
        m = min(chunk, draws - done)
        tables = np.empty((m, q.size), dtype=np.int64)
        left = np.full(m, total, dtype=np.int64)
        rest = 1.0
        for k in range(q.size - 1):
            tables[:, k] = rng.binomial(left, min(1.0, max(0.0, q[k] / rest)) if rest > 0 else 0.0)
            left -= tables[:, k]
            rest -= q[k]
        tables[:, -1] = left
        # the program counts T* >= T as a hit; allow for the rounding of a
        # statistic computed in another order
        stats = _lrt_rows(tables.reshape(m, rows, cols), total)
        hits += int(np.count_nonzero(stats >= t_obs - 1e-9))
    return hits / draws
