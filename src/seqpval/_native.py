"""Loader of the compiled kernel (``_kernel.c``).

The first call of ``kernel()`` compiles the C source with ``$CC`` (or ``cc``)
into the per-user cache directory, ``$XDG_CACHE_HOME/seqpval`` or
``~/.cache/seqpval``, and loads the object with ctypes; later calls and later
processes reuse it.  The object's name is a hash of the source, the flags and
the machine type, and it is written to a temporary file first and then
renamed, so concurrent builders never see a partial object.

Any failure (no compiler, a compile error, an unwritable cache, a cache
directory that another user owns or others may write) makes ``kernel()``
return None, and callers run their numpy loops, which give bit-identical
results.  Importing this module compiles and loads nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import stat
import subprocess
import tempfile
import threading

import numpy as np

# contraction into fused multiply-adds would change the rounding of the
# lattice update; -ffast-math would change that and the summation order
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# return codes of the kernel functions (see _kernel.c)
DONE, ROOM, DEGENERATE, FLOOR, EMPTY, FLUSH, RANGE = range(7)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_UNSET = object()
_lib = _UNSET  # the loaded kernel, None when it is unavailable
_lock = threading.Lock()

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_SIGNATURES = {
    "seqpval_boundary": (_P, _I, _P, _P, _D, _P, _I, _I, _P, _P, _P, _P),
    "seqpval_sweep": (_P, _I, _P, _P, _D, _I, _P, _P, _D, _P, _P, _P, _P, _I, _P),
    "seqpval_null_draw": (_P, _P, _I, _I, _P, _I, _I, _P, _I, _P),
    "seqpval_lrt": (_P, _I, _I, _I, _P, _I, _P, _P),
    "seqpval_nested": (_P, _P, _I, _P, _I, _I, _P, _I, _I, _I, _P, _I, _D, _D, _P, _P, _I, _I,
                       _I, _P, _P, _P),
}


def kernel():
    """The loaded kernel library, or None if it cannot be built or loaded."""
    global _lib
    if _lib is _UNSET:
        with _lock:
            if _lib is _UNSET:
                _lib = _load()
    return _lib


def ptr(arr: np.ndarray, dtype) -> int:
    """Address of a C-contiguous array of the given dtype, for a kernel call."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(f"kernel argument must be a contiguous {np.dtype(dtype)} array")
    return arr.ctypes.data


class Lattice:
    """The alive cells of a lattice recursion, in the kernels' own layout.

    ``buf[start : start + w]`` holds the masses of S = off .. off + w - 1
    after step n, with ``st = (n, start, w, off)`` (see ``_kernel.c``), and
    ``acc`` the recursion's running sums: (hu, hl) for a boundary table, the
    summed alive totals for a sweep.  A kernel function steps the cells in
    place through ``call``; the numpy loops read ``alive``, ``n`` and
    ``offset`` and write their result back with ``set``.
    """

    def __init__(self, alive, n: int, offset: int, acc):
        self.st = np.zeros(4, dtype=np.int64)
        self.acc = np.array(acc, dtype=np.float64)
        # st and acc are never reallocated, so their addresses hold for good
        self._st_address = ptr(self.st, np.int64)
        self._acc_address = ptr(self.acc, np.float64)
        self._buf = np.empty(0)
        self.set(alive, n, offset)

    @property
    def n(self) -> int:
        """The last completed step."""
        return int(self.st[0])

    @property
    def offset(self) -> int:
        """The value of S that the first alive cell holds."""
        return int(self.st[3])

    @property
    def alive(self) -> np.ndarray:
        """A view of the alive cells, valid until the lattice next changes."""
        start, w = int(self.st[1]), int(self.st[2])
        return self._buf[start : start + w]

    def set(self, alive, n: int, offset: int, *acc):
        """Make `alive` the cells after step n, from S = offset on, and, when
        given, `acc` the running sums."""
        w = len(alive)
        if self._buf.size <= w:  # no room for the next step's w + 1 cells
            self._buf = np.empty(2 * w + 64)
            self._buf_address = ptr(self._buf, np.float64)
        self._buf[:w] = alive
        self.st[:] = (n, 0, w, offset)
        if acc:
            self.acc[:] = acc

    def copy(self) -> "Lattice":
        return Lattice(self.alive, self.n, self.offset, self.acc)

    def call(self, fn, *args) -> int:
        """Run the kernel function fn(buf, cap, st, acc, *args) on the cells,
        growing the buffer each time it returns ROOM; returns its other
        return code.  The cells, st and acc are where the call left them."""
        while True:
            rc = fn(self._buf_address, self._buf.size, self._st_address, self._acc_address, *args)
            if rc != ROOM:
                return rc
            # the buffer cannot hold w + 1 cells, so this moves them to a larger one
            self.set(self.alive, self.n, self.offset)


def _cache_dir() -> str | None:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "seqpval")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.lstat(path)
    # a directory others can write could hold an object we did not build
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        return None
    return path


def _build(target: str, directory: str) -> bool:
    compiler = shlex.split(os.environ.get("CC") or "cc")
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run([*compiler, *FLAGS, "-o", tmp, _SOURCE],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=120)
        if done.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        directory = _cache_dir()
        if directory is None:
            return None
        key = hashlib.sha256(b"\0".join(
            [source, " ".join(FLAGS).encode(), platform.machine().encode()])).hexdigest()
        target = os.path.join(directory, f"kernel-{key[:32]}.so")
        if not os.path.exists(target) and not _build(target, directory):
            return None
        lib = ctypes.CDLL(target)
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int
        return lib
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
