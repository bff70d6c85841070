"""Spending sequences: schedules that allocate the total error budget over steps.

A spending sequence ``eps_n`` is a non-decreasing sequence with
``0 <= eps_n < eps`` and ``eps_n -> eps``.  It controls how fast the total
wrong-side probability budget ``eps`` may be consumed by the stopping
boundaries.  The default family is ``eps_n = eps * n / (k + n)``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

#: Largest admissible total budget; the uniform risk bound needs eps <= 1/4.
MAX_EPSILON = 0.25


class SpendingError(ValueError):
    pass


@dataclass(frozen=True)
class SpendingSequence:
    """Budget schedule eps_n, either the default k-family or an explicit table."""

    epsilon: float
    k: int | None = None
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (0.0 < self.epsilon <= MAX_EPSILON):
            raise SpendingError(
                f"epsilon must be in (0, {MAX_EPSILON}] (uniform risk bound "
                f"precondition), got {self.epsilon}"
            )
        if (self.k is None) == (self.table is None):
            raise SpendingError("exactly one of k (default kind) or table (custom kind) required")
        if self.k is not None and self.k < 1:
            raise SpendingError(f"k must be a positive integer, got {self.k}")
        if self.table is not None:
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 1 or tab.size == 0:
                raise SpendingError("custom table must be a non-empty 1-d array")
            if np.any(tab < 0.0) or np.any(tab >= self.epsilon):
                raise SpendingError("custom table values must satisfy 0 <= eps_n < epsilon")
            if np.any(np.diff(tab) < 0.0):
                raise SpendingError("custom table must be non-decreasing")
            tab.setflags(write=False)
            object.__setattr__(self, "table", tab)

    @classmethod
    def default(cls, epsilon: float, k: int = 1000) -> "SpendingSequence":
        return cls(epsilon=epsilon, k=k)

    @classmethod
    def custom(cls, epsilon: float, values) -> "SpendingSequence":
        return cls(epsilon=epsilon, table=np.asarray(values, dtype=float))

    @property
    def kind(self) -> str:
        return "default" if self.k is not None else "custom"

    def value(self, n: int) -> float:
        """eps_n for a single step index n >= 1."""
        if n < 1:
            raise SpendingError(f"step index must be >= 1, got {n}")
        if self.k is not None:
            return self.epsilon * n / (self.k + n)
        if n > self.table.size:
            raise SpendingError(
                f"custom spending table has {self.table.size} entries, step {n} requested"
            )
        return float(self.table[n - 1])

    def values(self, n: int, start: int = 1) -> np.ndarray:
        """Vector of (eps_start, ..., eps_n)."""
        if not 1 <= start <= n:
            raise SpendingError(f"step range must satisfy 1 <= start <= n, got {start}..{n}")
        if self.k is not None:
            idx = np.arange(start, n + 1, dtype=float)
            return self.epsilon * idx / (self.k + idx)
        if n > self.table.size:
            raise SpendingError(
                f"custom spending table has {self.table.size} entries, step {n} requested"
            )
        return self.table[start - 1 : n].copy()

    def increment(self, n: int) -> float:
        """eps_n - eps_{n-1}, with eps_0 = 0."""
        if n == 1:
            return self.value(1)
        return self.value(n) - self.value(n - 1)

    def delta(self, n: int) -> float:
        """Hoeffding half-width sqrt(-n * log(eps_n - eps_{n-1}) / 2).

        Step n may spend at least the increment, so by Hoeffding's inequality
        U_n <= ceil(n alpha + delta_n) and L_n >= n alpha - delta_n - 1 (the
        acceptance tests' criterion 2); +inf when no budget is spent at n.
        """
        if n < 2:
            raise SpendingError(f"delta is defined for n >= 2, got {n}")
        inc = self.increment(n)
        if inc <= 0.0:
            return math.inf
        return math.sqrt(-n * math.log(inc) / 2.0)

    def key(self) -> tuple:
        """Hashable identity used for boundary-table caching and file headers."""
        if self.k is not None:
            return ("default", self.epsilon, self.k)
        digest = hashlib.sha256(self.table.tobytes()).hexdigest()[:16]
        return ("custom", self.epsilon, digest)


@dataclass(frozen=True)
class SpendingReport:
    """Result of an empirical check of the sub-exponential spending condition."""

    horizon: int
    increments: np.ndarray
    flags: tuple
    threshold: float

    @property
    def ok(self) -> bool:
        return not self.flags


def validate_spending(seq: SpendingSequence, horizon: int) -> SpendingReport:
    """Check that -log(eps_n - eps_{n-1}) grows sub-linearly up to `horizon`.

    Flags every n <= horizon whose increment is non-positive, and every
    n > 100 whose increment decays faster than exp(-n/2)
    (small n are skipped: any schedule has -log(inc)/n large there, and only
    the asymptotic rate matters: delta_n/n -> 0 draws U_n/n and L_n/n to alpha).
    Flagged sequences are still usable (the boundary definition never divides
    by the increment), so this returns a report rather than raising.
    """
    if horizon < 2:
        raise SpendingError(f"horizon must be >= 2, got {horizon}")
    vals = seq.values(horizon)
    incs = np.diff(np.concatenate([[0.0], vals]))
    flags = []
    for n in range(2, horizon + 1):
        inc = incs[n - 1]
        if inc <= 0.0:
            flags.append((n, "non-positive increment (delta_n is infinite)"))
        elif n > 100 and -math.log(inc) / n > 0.5:
            flags.append((n, "increment decays faster than exp(-0.5*n)"))
    return SpendingReport(horizon=horizon, increments=incs, flags=tuple(flags), threshold=0.5)
