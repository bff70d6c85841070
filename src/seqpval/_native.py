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
    "seqpval_boundary": (_P, _I, _P, _P, _D, _P, _I, _P, _P, _P, _P),
    "seqpval_sweep": (_P, _I, _P, _P, _D, _I, _P, _P, _D, _P, _P, _P, _P, _I, _P),
    "seqpval_null_draw": (_P, _P, _I, _I, _P, _I, _I, _P, _I, _P),
    "seqpval_lrt": (_P, _I, _I, _I, _P, _I, _P, _P),
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


def work_buffer(alive: np.ndarray, n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """A kernel work buffer holding `alive`, and its state (n, start, w, off)."""
    w = alive.size
    buf = np.empty(2 * w + 64)
    buf[:w] = alive
    return buf, np.array([n, 0, w, offset], dtype=np.int64)


def regrow(buf: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Double a work buffer, moving its alive cells to the front (after ROOM)."""
    start, w = int(st[1]), int(st[2])
    out = np.empty(2 * buf.size)
    out[:w] = buf[start : start + w]
    st[1] = 0
    return out


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
