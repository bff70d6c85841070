"""Stopping boundaries (U_n, L_n) for the open-ended sequential test.

The boundaries are defined recursively under the null rate ``alpha``: at each
step, U_n is the smallest integer whose upper-tail mass (plus everything that
already hit the upper boundary) stays within the spending budget eps_n, and
L_n is the largest integer doing the same on the lower side.  The recursion
keeps only the "alive" distribution of the partial sum restricted to paths
that have not stopped, so memory is proportional to the corridor width.

No per-step renormalization is performed: the budget comparison is against
the raw accumulated hitting mass, and the tests check conservation of total
mass instead (drift budget 1e-10 per 1e4 steps).
"""

from __future__ import annotations

import io
import json
import os
import threading

import numpy as np

from . import _native
from .spending import SpendingSequence

FORMAT_VERSION = 1
_HEADER = "# seqpval-boundaries "
#: the columns of a boundary file
_COLUMNS = ("n", "lower", "upper", "eps_n", "hit_lower_cum", "hit_upper_cum")


class BoundaryError(RuntimeError):
    pass


class DegenerateBoundaryError(BoundaryError):
    """Raised when the recursion would produce U_n <= L_n."""

    def __init__(self, n: int):
        super().__init__(
            f"degenerate boundaries at step {n}: the spending sequence admits "
            f"no corridor (U_n <= L_n)"
        )
        self.n = n


#: BoundaryTable's per-step arrays, indexed by n, and their dtypes
_STEP_ARRAYS = (("_upper", np.int64), ("_lower", np.int64), ("_hit_upper", np.float64),
                ("_hit_lower", np.float64))


class BoundaryTable:
    """Boundary arrays plus the alive-state mass needed to extend them.

    Extension is in place and may be called from several threads: it runs
    under the table's lock and publishes ``n_max`` last, so a reader that
    sees ``n_max >= n`` finds rows 1..n complete in the arrays it reads.
    """

    def __init__(self, alpha: float, spending: SpendingSequence):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.spending = spending
        self._allocate(1024)
        # seed state after step 1: U_1 = 2, L_1 = -1, S_1 ~ Bernoulli(alpha)
        self._upper[1] = 2
        self._lower[1] = -1
        self.n_max = 1
        # the alive cells after n_max, with the hit sums (hu, hl) as acc
        self._lattice = _native.Lattice([1.0 - alpha, alpha], 1, 0, (0.0, 0.0))
        self._lock = threading.Lock()

    # -- accessors ---------------------------------------------------------

    def upper(self, n: int) -> int:
        self._check_range(n)
        return int(self._upper[n])

    def lower(self, n: int) -> int:
        self._check_range(n)
        return int(self._lower[n])

    def hit_upper_cum(self, n: int) -> float:
        self._check_range(n)
        return float(self._hit_upper[n])

    def hit_lower_cum(self, n: int) -> float:
        self._check_range(n)
        return float(self._hit_lower[n])

    def upper_array(self, n: int) -> np.ndarray:
        """U_1..U_n as a read-only view (index 0 holds U_1)."""
        self._check_range(n)
        return self._upper[1 : n + 1]

    def lower_array(self, n: int) -> np.ndarray:
        self._check_range(n)
        return self._lower[1 : n + 1]

    def _check_range(self, n: int):
        if not (1 <= n <= self.n_max):
            raise BoundaryError(f"step {n} outside computed range 1..{self.n_max}")

    # -- extension ---------------------------------------------------------

    def _allocate(self, cap: int):
        """(Re)allocate the per-step arrays at capacity `cap`, keeping their
        rows, and record their addresses for kernel calls."""
        for name, dtype in _STEP_ARRAYS:
            arr = np.zeros(cap, dtype=dtype)
            old = getattr(self, name, None)
            if old is not None:
                arr[: old.size] = old
            setattr(self, name, arr)
        self._addresses = tuple(_native.ptr(getattr(self, name), dtype)
                                for name, dtype in _STEP_ARRAYS)

    def extend(self, n_target: int) -> "BoundaryTable":
        """Extend the boundary arrays through step n_target (no-op if shorter).

        Runs the compiled kernel when it is available and the numpy loop
        otherwise; both give bit-identical tables.
        """
        if n_target <= self.n_max:
            return self
        with self._lock:
            if n_target <= self.n_max:
                return self
            cap = self._upper.size
            if n_target + 1 > cap:
                self._allocate(max(cap * 2, n_target + 1))
            eps = self.spending.values(n_target, start=self.n_max + 1)
            kern = _native.kernel()
            if kern is None:
                self._extend_numpy(n_target, eps)
            else:
                self._extend_kernel(kern, n_target, eps)
            self.n_max = n_target
        return self

    def _extend_numpy(self, n_target: int, eps: np.ndarray):
        """The reference recursion, one numpy step per boundary step; `eps`
        holds the budgets of steps n_max + 1 .. n_target."""
        alpha = self.alpha
        lat = self._lattice
        alive = lat.alive
        off = lat.offset
        hu, hl = lat.acc.tolist()
        upper, lower = self._upper, self._lower
        hit_u, hit_l = self._hit_upper, self._hit_lower
        for n, eps_n in zip(range(self.n_max + 1, n_target + 1), eps):
            w = alive.size
            new = np.empty(w + 1)
            np.multiply(alive, 1.0 - alpha, out=new[:w])
            new[w] = 0.0
            new[1:] += alive * alpha
            top = off + w  # largest j with mass
            # minimal j whose upper tail keeps the budget: descend from top+1
            j = top + 1
            tail = 0.0
            while j - 1 >= off and tail + new[j - 1 - off] + hu <= eps_n:
                tail += new[j - 1 - off]
                j -= 1
            u_n = j
            # maximal j whose lower tail keeps the budget: ascend from off-1
            j = off - 1
            ltail = 0.0
            while j + 1 <= top and ltail + new[j + 1 - off] + hl <= eps_n:
                ltail += new[j + 1 - off]
                j += 1
            l_n = j
            if u_n <= l_n:
                raise DegenerateBoundaryError(n)
            hu += tail
            hl += ltail
            alive = new[l_n + 1 - off : u_n - off]
            off = l_n + 1
            upper[n] = u_n
            lower[n] = l_n
            hit_u[n] = hu
            hit_l[n] = hl
        lat.set(alive, n_target, off, hu, hl)

    def _extend_kernel(self, kern, n_target: int, eps: np.ndarray):
        """The same recursion in the compiled kernel (``_kernel.c``).

        The kernel writes the per-step arrays through the addresses
        ``_allocate`` recorded, which stay valid because they are only
        reallocated under the lock this runs under, and steps the lattice's
        cells in place.  A call that fails publishes nothing: the cells and
        hit sums are put back as they were.
        """
        lat = self._lattice
        before = (lat.alive.copy(), lat.n, lat.offset, *lat.acc)
        rc = lat.call(kern.seqpval_boundary, self.alpha, _native.ptr(eps, np.float64),
                      self.n_max + 1, int(n_target), *self._addresses)
        if rc == _native.DEGENERATE:
            step = lat.n + 1
            lat.set(*before)
            raise DegenerateBoundaryError(step)

    # -- persistence -------------------------------------------------------

    def save(self, destination) -> None:
        """Write the per-step CSV to `destination`, a path or a text file object."""
        n_max = self.n_max  # rows 1..n_max never change once published
        kind, epsilon, kref = self.spending.key()
        meta = {
            "format": FORMAT_VERSION,
            "alpha": self.alpha,
            "epsilon": epsilon,
            "spending_kind": kind,
            "spending_ref": kref,
            "n_max": n_max,
        }
        eps = self.spending.values(n_max)
        close = isinstance(destination, (str, os.PathLike))
        fh = open(destination, "w") if close else destination
        try:
            fh.write(_HEADER + json.dumps(meta) + "\n")
            fh.write(",".join(_COLUMNS) + "\n")
            for n in range(1, n_max + 1):
                fh.write(
                    f"{n},{self._lower[n]},{self._upper[n]},{float(eps[n - 1])!r},"
                    f"{float(self._hit_lower[n])!r},{float(self._hit_upper[n])!r}\n"
                )
        finally:
            if close:
                fh.close()

    @classmethod
    def load(cls, source, spending: SpendingSequence | None = None) -> "BoundaryTable":
        """Rebuild the table that `save` wrote, by the recursion, and check it.

        A spending sequence passed explicitly must match the header's kind
        and epsilon, and is taken (the eps_n column decides its values);
        otherwise custom spending is the file's eps_n column, to its n_max.
        A malformed file, or one any of whose columns differs from the
        rebuilt table, raises BoundaryError.
        """
        import warnings

        close = isinstance(source, (str, os.PathLike))
        fh = open(source) if close else source
        try:
            header = fh.readline()
            if not header.startswith(_HEADER):
                raise BoundaryError("not a seqpval boundary file (missing header record)")
            meta = json.loads(header[len(_HEADER) :])
            if meta.get("format") != FORMAT_VERSION:
                raise BoundaryError(f"unsupported boundary file format {meta.get('format')}")
            n_max = int(meta["n_max"])
            fh.readline()  # column names
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body fails the shape check
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            if rows.shape != (n_max, len(_COLUMNS)):
                raise BoundaryError("boundary file truncated or malformed")
            key = (meta["spending_kind"], meta["epsilon"], meta["spending_ref"])
            if spending is not None:
                if spending.key()[:2] != key[:2]:
                    raise BoundaryError(f"spending mismatch: file has {key[:2]}, "
                                        f"caller expected {spending.key()[:2]}")
                seq = spending
            elif key[0] == "default":
                seq = SpendingSequence.default(key[1], int(key[2]))
            else:
                seq = SpendingSequence.custom(key[1], rows[:, 3])
            table = cls(meta["alpha"], seq).extend(n_max)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise BoundaryError(f"malformed boundary file: {type(exc).__name__}: {exc}") from exc
        finally:
            if close:
                fh.close()
        steps = slice(1, n_max + 1)
        rebuilt = (np.arange(1, n_max + 1), table._lower[steps], table._upper[steps],
                   seq.values(n_max), table._hit_lower[steps], table._hit_upper[steps])
        for name, column, own in zip(_COLUMNS, rows.T, rebuilt):
            if not np.array_equal(column, own):
                raise BoundaryError(f"boundary file's {name} column is not the recursion's")
        return table

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.save(buf)
        return buf.getvalue()
