"""Build and load the compiled library: the event loop (``_loop.c``) and
two special functions (``_special.c``).

The event loop runs every policy in both ageing modes.  It seeds and
steps the run's three random streams itself: numpy's PCG64 seeded from
``SeedSequence(seed).spawn(3)``, restated in C, so that no run makes a
``numpy.random`` object and no command imports ``numpy.random``.  A run
hands it the seed's 32-bit words (``seed_words``).  It draws
inter-arrival times in blocks with numpy's own
``random_standard_exponential_fill`` and, in realized mode, version ages
one at a time with ``random_poisson``, on the streams' ``bitgen_t``, so
the library links the static ``libnpyrandom.a`` that numpy ships and
compiles against the ``numpy/random/bitgen.h`` header from
``numpy.get_include()``.  ``stream_draws`` exposes the streams, so that
tests and ``aovcache verify`` can compare them with numpy's.
The special functions, ``wright_omega`` and ``lambert_w0``, restate
scipy.special's real-argument algorithms bit for bit, so that the
solvers need not import scipy.special (a quarter of a second of every
command's start-up); ``wright_omega`` and ``lambert_w0`` below call them.

The shared library is built once with the system C compiler and cached
under ``$XDG_CACHE_HOME/aovcache/`` (default ``~/.cache/aovcache/``),
named by a hash of the sources, the compiler flags, the platform, the
numpy version and the bytes of ``libnpyrandom.a``, so a numpy upgrade
never loads a kernel built against another ``bitgen_t``.  A new build
keeps the ``KEEP_LIBRARIES`` newest libraries in that directory, its
own included, and removes the older ones.
``-ffp-contract=off`` stops the compiler from fusing a multiply and an
add into one FMA, which rounds differently from the reference loop and
from scipy; no ``-march=native`` or ``-ffast-math`` for the same reason.
``-O3`` keeps the Whittle loop as fast as it was in a kernel of its own:
at ``-O2`` the eight (policy, mode) loops in one function ran its index
scan up to 10 % slower.  Without ``-ffast-math`` it reorders no float
operation.

The library is loaded when this module is imported, so a missing one is
built by the first import rather than inside a timed run.  ``event_loop``
and ``special`` are None when there is no compiler, no writable cache
directory, or no ``libnpyrandom.a`` or numpy include directory;
``simulator.run`` then uses its reference loop, which imports
``numpy.random``, and ``wright_omega`` and ``lambert_w0`` import
scipy.special on first use.  Outside that case
scipy is needed only by ``aovcache verify``, whose oracle and checks use
it.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import sysconfig
from pathlib import Path

import numpy as np

SOURCES = tuple(Path(__file__).with_name(n) for n in ("_loop.c", "_special.c"))
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
NUMPY_INCLUDE = Path(np.get_include())
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
KEEP_LIBRARIES = 4  # cached libraries a new build leaves, its own included

_ptr, _int, _dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# the parameters of event_loop in _loop.c, in order; arrays go in as
# addresses (numpy's ndpointer types check them on every call, ~5 us per
# array, ~2 % of a 30k-event run)
_ARGTYPES = [
    _int, _int,                      # policy code, realized
    _int, _dbl,                      # stop_events, stop_time
    _ptr, _ptr, _int,                # cum_p, guide table, its length K
    _ptr, _ptr, _ptr,                # per-content doubles and ints, breakpoints
    _ptr, _ptr, _int, _dbl,          # w_of_tau rows, their prefix minima, stride, beta
    _ptr, _ptr, _ptr, _ptr, _ptr,    # int64: queue, aov, slot_of, slots, N_CNT counts,
    _ptr, _ptr, _int,                # 3 * STREAM_WORDS of streams, the seed's words, their count
    _ptr, _ptr, _ptr,                # float64: fetch_time, aov_time, N_ACC running totals
    _ptr,                            # scratch, 2 * BLOCK + SCRATCH_WORDS * m doubles
    _ptr, _int,                      # waited, m
]


def address(a: np.ndarray, dtype) -> int:
    """The address of ``a``'s data, for a pointer parameter of the kernel
    that reads or writes it as a C-contiguous ``dtype`` array."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise TypeError(f"the kernel needs a C-contiguous {np.dtype(dtype)} array, "
                        f"got {a.dtype}")
    return a.ctypes.data


def seed_words(seed) -> list[int]:
    """The 32-bit words of the integer ``seed``, least significant first:
    the entropy ``numpy.random.SeedSequence(seed)`` draws on, and the
    kernel's seed.  Raises SeedSequence's ValueError for a negative seed
    and TypeError for one that is not an integer."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "aovcache"


def _build() -> Path:
    """Path of the cached library, compiling it first if it is missing.
    Raises OSError when numpy's random library or header is missing or the
    compiler fails."""
    # one translation unit; the #line directive keeps compiler messages
    # pointing into the right file
    src = b"".join(b'#line 1 "%s"\n' % p.name.encode() + p.read_bytes()
                   for p in SOURCES)
    archive = NPYRANDOM.read_bytes()
    if not (NUMPY_INCLUDE / "numpy" / "random" / "bitgen.h").is_file():
        raise FileNotFoundError(f"no numpy/random/bitgen.h under {NUMPY_INCLUDE}")
    key = hashlib.sha256(b"\0".join(
        [src, " ".join(FLAGS).encode(), sysconfig.get_platform().encode(),
         np.__version__.encode(), hashlib.sha256(archive).digest()])).hexdigest()
    lib = cache_dir() / f"_loop-{key[:16]}.so"
    if lib.exists():
        return lib
    # imported only for a build: they cost every command's start-up
    import subprocess
    import tempfile

    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        # compile the hashed bytes from stdin; "-x none" makes cc read the
        # archive as a library again; os.replace makes a build racing
        # another process's safe
        subprocess.run(["cc", *FLAGS, "-I", str(NUMPY_INCLUDE), "-x", "c", "-",
                        "-x", "none", str(NPYRANDOM), "-lm", "-o", tmp],
                       input=src, capture_output=True, check=True, timeout=120)
        os.replace(tmp, lib)
    except subprocess.SubprocessError as e:  # cc failed or timed out
        raise OSError(f"building {lib.name} failed: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # the newest few stay, so checkouts or environments that share the
    # cache do not evict each other's library; a process that has an old
    # library loaded keeps its mapping
    for old in _by_age(lib.parent)[KEEP_LIBRARIES:]:
        if old != lib:
            try:
                old.unlink()
            except OSError:
                pass
    return lib


def _by_age(directory: Path) -> list[Path]:
    """The cached libraries in ``directory``, newest (by mtime) first."""
    libs = []
    for path in directory.glob("_loop-*.so"):
        try:
            libs.append((path.stat().st_mtime_ns, path))
        except OSError:  # removed by another process meanwhile
            pass
    return [path for _, path in sorted(libs, reverse=True)]


def _open():
    """The library, or None when it cannot be built or loaded."""
    try:
        return ctypes.CDLL(str(_build()))
    except (OSError, RuntimeError):
        return None


def _event_loop(lib):
    fn = lib.event_loop
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64
    lib.stream_draws.argtypes = [_ptr, _int, _ptr, _int, _ptr]  # seed, kinds, out
    lib.stream_draws.restype = None
    return fn


def _declare_special(lib):
    for fn in (lib.wright_omega, lib.lambert_w0):
        fn.argtypes = [_ptr, _ptr, _int]  # input, output, length
        fn.restype = None
    return lib


_lib = _open()
event_loop = None if _lib is None else _event_loop(_lib)
# the event loop's layout (_loop.c): its scratch holds 2 * BLOCK doubles of
# draws, then SCRATCH_WORDS doubles per cache slot; its running totals
# are N_ACC doubles and N_CNT counts, and each of its streams STREAM_WORDS
# words
BLOCK, SCRATCH_WORDS, N_ACC, N_CNT, STREAM_WORDS = (None,) * 5 if _lib is None else (
    ctypes.c_int64.in_dll(_lib, name).value
    for name in ("block_draws", "scratch_words", "n_acc", "n_cnt", "stream_words"))
# the library as the provider of wright_omega and lambert_w0; None sends
# both to scipy.special
special = None if _lib is None else _declare_special(_lib)


# the kinds of draw of stream_draws: next_uint64, next_uint32, next_double
DRAW_UINT64, DRAW_UINT32, DRAW_DOUBLE = 0, 1, 2


def stream_draws(seed: int, kinds) -> np.ndarray:
    """Draws from the event loop's three streams as a run seeds them from
    ``seed``: row i holds stream i's, one per entry of ``kinds`` (a 64-bit
    word, a 32-bit word or a double's bits, as the entry is
    ``DRAW_UINT64``, ``DRAW_UINT32`` or ``DRAW_DOUBLE``), each made through
    the stream's ``bitgen_t`` as numpy's samplers make theirs.  Needs the
    library."""
    words = np.array(seed_words(seed), np.int64)
    kinds = np.array(kinds, np.int64)
    out = np.empty((3, kinds.size), np.uint64)
    _lib.stream_draws(address(words, np.int64), words.size, address(kinds, np.int64),
                      kinds.size, address(out, np.uint64))
    return out


def _fill(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of the C-contiguous ``x``, into a new array of its shape.
    The addresses come from ``ctypes.c_char.from_buffer``, a third of the
    cost of ``.ctypes.data``; it takes only writable buffers, so a
    read-only ``x`` goes in as a copy."""
    out = np.empty_like(x)
    if x.size:
        if not x.flags.writeable:
            x = x.copy()
        fn(_address(x), _address(out), x.size)
    return out


def _address(a: np.ndarray) -> int:
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def wright_omega(x) -> np.ndarray:
    """Wright omega, the w with ``w + log(w) = x``, of each element of
    ``x``, in its shape; bit for bit ``scipy.special.wrightomega``."""
    x = np.asarray(x, dtype=float, order="C")
    if special is None:
        from scipy.special import wrightomega
        return wrightomega(x)
    return _fill(special.wright_omega, x)


def lambert_w0(z) -> np.ndarray:
    """Principal-branch Lambert W of each element of ``z``, in its shape;
    bit for bit ``scipy.special.lambertw(z).real`` for z in [-1/e, 0],
    the range ``thresholds.solve_gap`` uses.  The library returns NaN
    outside it."""
    z = np.asarray(z, dtype=float, order="C")
    if special is None:
        from scipy.special import lambertw
        return lambertw(z).real
    return _fill(special.lambert_w0, z)
