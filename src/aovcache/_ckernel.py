"""Build and load the compiled Whittle event loop (``_loop.c``).

The shared library is built once with the system C compiler and cached
under ``$XDG_CACHE_HOME/aovcache/`` (default ``~/.cache/aovcache/``),
named by a hash of the source, the compiler flags and the platform.
``-ffp-contract=off`` stops the compiler from fusing a multiply and an
add into one FMA, which rounds differently from the Python loop; no
``-march=native`` or ``-ffast-math`` for the same reason.

``whittle_loop`` is loaded when this module is imported, so a missing
library is built by the first import rather than inside a timed run.  It
is None when there is no compiler or no writable cache directory, and
``simulator.run`` then uses its Python loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_loop.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_f64_out = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_i64_out = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_u8_out = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_int, _dbl = ctypes.c_int64, ctypes.c_double
# the parameters of whittle_loop in _loop.c, in order
_ARGTYPES = [
    _f64, _i64, _int, _int,          # dts, ids, bi, blen
    _int, _dbl,                      # stop_events, stop_time
    _f64, _i64, _f64,                # per-content doubles and ints, breakpoints
    _f64, _int,                      # w_of_tau rows, stride
    _i64_out, _f64_out, _u8_out,     # queue, fetch_time, waited
    _i64_out, _i64_out, _int,        # slot_of, slots, m
    _f64_out, _i64_out,              # running totals
]


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "aovcache"


def _build() -> Path:
    """Path of the cached library, compiling it first if it is missing."""
    src = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [src, " ".join(FLAGS).encode(), sysconfig.get_platform().encode()])).hexdigest()
    lib = cache_dir() / f"_loop-{key[:16]}.so"
    if lib.exists():
        return lib
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        # compile the hashed bytes from stdin; os.replace makes a build
        # racing another process's safe
        subprocess.run(["cc", *FLAGS, "-x", "c", "-", "-o", tmp], input=src,
                       capture_output=True, check=True, timeout=120)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def load():
    """The kernel's entry point with its argument types declared, or None
    when it cannot be built or loaded."""
    try:
        fn = ctypes.CDLL(str(_build())).whittle_loop
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64
    return fn


whittle_loop = load()
