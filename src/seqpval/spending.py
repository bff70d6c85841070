"""Spending sequences: schedules that allocate the total error budget over steps.

A spending sequence ``eps_n`` is a non-decreasing sequence with
``0 <= eps_n < eps`` and ``eps_n -> eps``.  It controls how fast the total
wrong-side probability budget ``eps`` may be consumed by the stopping
boundaries.  The default family is ``eps_n = eps * n / (k + n)``.
"""

from __future__ import annotations

import hashlib
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

    def key(self) -> tuple:
        """Hashable identity used for boundary-table caching and file headers."""
        if self.k is not None:
            return ("default", self.epsilon, self.k)
        digest = hashlib.sha256(self.table.tobytes()).hexdigest()[:16]
        return ("custom", self.epsilon, digest)
