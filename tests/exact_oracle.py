"""Exact references for the boundary recursion, shared by the tests.

``exact_boundaries`` runs the defining tail-budget recursion in integers.  At
a rational null rate alpha = a/b every mass after n steps is a multiple of
b^-n: the alive cell at S_n = j holds N_j a^j (b - a)^(n - j) / b^n, with N_j
the number of alive paths to j.  So the recursion keeps the numerators
W_j = N_j a^j (b - a)^(n - j), a step is W'_j = W_j (b - a) + W_{j-1} a, and
both hit sums are multiplied by b along with them.  With eps_n = p/q, the
budget test tail + hit <= eps_n reads (tail + hit) q <= p b^n.  Every
comparison is exact, and a step costs one pass of integer products over the
corridor.

``assert_mass_conserved`` checks the float table's alive cells and hit sums
against total mass 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Allowed drift of the float table's total mass from 1, per 1e4 steps.
DRIFT_PER_10K = 1e-10


def default_budget(epsilon, k: int):
    """eps_n = epsilon n / (k + n) as a Fraction, for the rational `epsilon`."""
    e = Fraction(epsilon)
    return lambda n: e * n / (k + n)


@dataclass(frozen=True)
class ExactBoundaries:
    """U_n, L_n (entry 0 is step 1) and the hit sums' numerators over b^n."""

    upper: list
    lower: list
    scaled_hits: list  # (upper, lower) hit sums of step n, times b^n
    b: int

    def hit_upper(self, n: int) -> Fraction:
        return Fraction(self.scaled_hits[n - 1][0], self.b**n)

    def hit_lower(self, n: int) -> Fraction:
        return Fraction(self.scaled_hits[n - 1][1], self.b**n)


def exact_boundaries(alpha: Fraction, budget, n_max: int) -> ExactBoundaries:
    """The recursion through step `n_max` at the rational `alpha`, where
    `budget(n)` is eps_n as a Fraction.  Step 1 is the seed: U_1 = 2, L_1 = -1
    and S_1 ~ Bernoulli(alpha)."""
    a, b = alpha.numerator, alpha.denominator
    c = b - a
    alive, off, scale = [c, a], 0, b  # alive[i] is W_{off + i}; scale is b^n
    hu = hl = 0
    upper, lower, hits = [2], [-1], [(0, 0)]
    for n in range(2, n_max + 1):
        new = [w * c + v * a for w, v in zip(alive + [0], [0] + alive)]
        scale *= b
        hu *= b
        hl *= b
        eps_n = budget(n)
        q, room = eps_n.denominator, eps_n.numerator * scale
        top, tail = len(new), 0  # U_n = off + top
        while top > 0 and (tail + new[top - 1] + hu) * q <= room:
            top -= 1
            tail += new[top]
        bottom, ltail = -1, 0  # L_n = off + bottom
        while bottom + 1 < len(new) and (ltail + new[bottom + 1] + hl) * q <= room:
            bottom += 1
            ltail += new[bottom]
        if top <= bottom:
            raise ValueError(f"degenerate boundaries at step {n}")
        hu += tail
        hl += ltail
        upper.append(off + top)
        lower.append(off + bottom)
        hits.append((hu, hl))
        alive = new[bottom + 1 : top]
        off += bottom + 1
    return ExactBoundaries(upper, lower, hits, b)


def assert_mass_conserved(table):
    """Alive mass plus both hit sums is 1 to within DRIFT_PER_10K per 1e4 steps."""
    with table._lock:  # the alive cells and hit sums of one step
        lat = table._lattice
        err = abs(float(lat.alive.sum()) + float(lat.acc[0]) + float(lat.acc[1]) - 1.0)
        n = lat.n
    tol = DRIFT_PER_10K * max(1.0, n / 1e4)
    assert err <= tol, f"mass conservation violated at n={n}: drift {err:.3e} > {tol:.3e}"
