"""The compiled per-sample loops behind every optimizer.

`_kernel.c` holds `dot`, the margin of every per-sample gradient;
`epoch`, the loop of `optim._epoch` (SGD, SVRG and vrlite) for any
number of runs over one sample order, which C steps in SIMD lanes of the
width `lane_width()`, with a one-run loop for a single run; and
`saga_epoch`, the loop of `optim.saga_epoch`. The library picks the lane
width and both loops when it loads: the AVX2 builds where the CPU has
AVX2, the baseline ones elsewhere. On first import the source
is compiled with gcc into this package's `__pycache__/`, under a name
keyed by a CRC-32 of the source, the flags and the compiler (its resolved
path, size and modification time, which change with its version). The
file is written by atomic rename and ends in a CRC-32 seal over that key
and its bytes; a cached file whose seal does not match (truncated, or
built for another key) is rebuilt, never loaded, and a build removes
the libraries of other keys. The checks guard
against accidents, not tampering: whoever can write the cache can write
the package too. A warm import starts no process. The library is loaded
with `ctypes`, whose calls release the interpreter lock.

When no gcc is on PATH or the build fails, `lib` is None, one
RuntimeWarning says so, and the callers run their Python loops instead.
Those take their margins from the Python `dot` below, which sums in the
same order as the C loop, so both paths give the same bits.

Every pointer handed to C comes from `matrix`, `rows` or `indices`,
which check length, shape, dtype, alignment, contiguity and index range
first. The C `epoch` writes only into one buffer that `epoch` below
allocates per call, so what it writes overlaps none of its inputs, as
its loops assume.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import warnings
import zlib

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_kernel.c")
CACHE_DIR = os.path.join(_HERE, "__pycache__")
# No contraction into fused multiply-adds: each product and sum rounds on
# its own, as it does in Python and NumPy.
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_ACCUM_CODES = {None: 0, "post": 1, "reuse": 2}

_SEAL_BYTES = 4
_P, _I64, _F64, _INT = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int
_SIGNATURES = {
    "dot": (_F64, [_P, _P, _I64]),
    "epoch": (None, [_P, _P, _P, _I64, _I64, _I64, _P, _P, _P, _INT, _F64, _P,
                     _INT, _P, _P, _P]),
    "lane_width": (_INT, []),
    "saga_epoch": (None, [_P, _P, _I64, _P, _I64, _I64, _P, _P, _P, _INT, _F64,
                          _F64]),
}


def _key(cc: str) -> str:
    st = os.stat(cc)
    compiler = f"{os.path.realpath(cc)} {st.st_size} {st.st_mtime_ns}"
    with open(SOURCE, "rb") as f:
        crc = zlib.crc32(f.read())
    for part in (" ".join(FLAGS), compiler):
        crc = zlib.crc32(part.encode(), crc)
    return f"{crc:08x}"


def _seal(key: str, body: bytes) -> bytes:
    return zlib.crc32(body, zlib.crc32(key.encode())).to_bytes(_SEAL_BYTES, "little")


def _verified(path: str, key: str) -> bool:
    """True when path exists and its trailing seal matches key and body."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return False
    body, seal = data[:-_SEAL_BYTES], data[-_SEAL_BYTES:]
    return len(data) > _SEAL_BYTES and seal == _seal(key, body)


def _build(cc: str, key: str, path: str):
    """Compile into a private temporary file, seal it, and rename it into
    place, so a concurrent importer never sees a partial file. Then drop
    the libraries of other keys."""
    import subprocess  # here, so that a warm import does not pay for it

    os.makedirs(CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".tmp", dir=CACHE_DIR)
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE, "-lm"],
                              capture_output=True, text=True)
        if done.returncode:
            raise OSError(f"{cc} failed: {done.stderr.strip()}")
        with open(tmp, "rb") as f:
            body = f.read()
        with open(tmp, "ab") as f:
            f.write(_seal(key, body))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    _remove_stale(path)


def _remove_stale(keep: str):
    """Best effort: delete cached libraries built for other keys (an older
    source, other flags or another compiler), which would otherwise pile
    up. A concurrent build's `.tmp` file is never touched, and a library
    another process has loaded stays mapped after its name is gone."""
    for name in os.listdir(CACHE_DIR):
        path = os.path.join(CACHE_DIR, name)
        if name.startswith("_kernel-") and name.endswith(".so") and path != keep:
            try:
                os.unlink(path)
            except OSError:
                pass


def _load() -> ctypes.CDLL:
    cc = shutil.which("gcc")
    if cc is None:
        raise OSError("gcc is not on PATH")
    key = _key(cc)
    path = os.path.join(CACHE_DIR, f"_kernel-{key}.so")
    if not _verified(path, key):
        _build(cc, key, path)
    return _bind(ctypes.CDLL(path))


def _bind(dll: ctypes.CDLL) -> ctypes.CDLL:
    """Set the C signatures on dll."""
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(dll, name)
        fn.restype, fn.argtypes = restype, argtypes
    return dll


try:
    lib = _load()
except OSError as exc:
    lib = None
    warnings.warn(f"vrlite: no compiled kernel ({exc}); the pure-Python loops "
                  "run instead, with the same results, more slowly", RuntimeWarning)


def matrix(a, shape: tuple, what: str, writable: bool = False) -> np.ndarray:
    """a as an aligned C-contiguous float64 array of the given shape. It
    is a itself when a already is one; otherwise a copy, which the caller
    writes back if C updated it."""
    a = np.asarray(a)
    if a.shape != shape:
        raise ValueError(f"dimension mismatch: {what} has shape {a.shape}, "
                         f"expected {shape}")
    flags = a.flags
    if (a.dtype != np.float64 or not (flags.c_contiguous and flags.aligned)
            or (writable and not flags.writeable)):
        a = np.array(a, dtype=np.float64, order="C")
    return a


def rows(ds) -> tuple[np.ndarray, np.ndarray]:
    """A dataset's (n, d) features and (n,) labels, checked as above."""
    F = np.asarray(ds.features)
    if F.ndim != 2:
        raise ValueError(f"features have shape {F.shape}, expected (n, d)")
    return matrix(F, F.shape, "features"), matrix(ds.labels, F.shape[:1], "labels")


def indices(order, n: int) -> np.ndarray:
    """order as a C-contiguous int64 array of row indices in [0, n)."""
    order = np.asarray(order)
    if order.ndim != 1 or order.dtype.kind not in "iu":
        raise IndexError(f"sample order must be a 1-d integer array, got "
                         f"dtype {order.dtype} and shape {order.shape}")
    idx = np.require(order, np.int64, ("C", "A"))
    # Seen as unsigned, a negative index is >= 2**63, so one reduction
    # checks both ends of the range.
    if idx.size and idx.view(np.uint64).max() >= n:
        raise IndexError(f"sample index out of range for n={n}: "
                         f"[{order.min()}, {order.max()}]")
    return idx


def dot(a, x) -> float:
    """Left-to-right sum of a[j] * x[j] from 0.0: the margin of every
    per-sample gradient, in C when compiled and in Python floats
    otherwise, with the same bits either way."""
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"dot takes 1-d vectors, got shape {a.shape}")
    a = matrix(a, a.shape, "a")
    x = matrix(x, a.shape, "x")
    if lib is None:
        s = 0.0
        for u, v in zip(a.tolist(), x.tolist()):
            s += u * v
        return s
    return lib.dot(a.ctypes.data, x.ctypes.data, a.shape[0])


def epoch(F, L, order, x, anchor, accum_grad, logistic: bool, lam2: float,
          eta):
    """The C loop of optim._epoch on checked arguments, for K runs that
    take the same order: x is (K, d), eta K stepsizes or one for all, and
    anchor None or (x_ref, g_mean), both (K, d). Returns (x, acc_x,
    acc_g), each a new (K, d) array: the last iterates and the sums of
    the iterates and of the accumulated gradients over the steps."""
    K, d = x.shape
    # One buffer, one pointer: x, acc_x, acc_g, K stepsizes, then the
    # scratch that the C `epoch` lays its lanes out in.
    buf = np.zeros(3 * K * d + K + (5 * d + 1) * lib.lane_width())
    runs = buf[:3 * K * d].reshape(3, K, d)
    runs[0] = x
    buf[3 * K * d:][:K] = eta
    x_ref, g_mean = (None, None) if anchor is None else (
        anchor[0].ctypes.data, anchor[1].ctypes.data)
    p, step = buf.ctypes.data, runs[0].nbytes
    lib.epoch(F.ctypes.data, L.ctypes.data, order.ctypes.data, order.shape[0],
              d, K, p, x_ref, g_mean, int(logistic), lam2, p + 3 * step,
              _ACCUM_CODES[accum_grad], p + step, p + 2 * step,
              p + 3 * step + K * buf.itemsize)
    return tuple(runs)


def saga_epoch(F, L, order, x, table, mean, logistic: bool, lam2: float,
               eta: float) -> np.ndarray:
    """The C loop of optim.saga_epoch on checked arguments. table and
    mean are updated in place; returns the last iterate in a new array."""
    n, d = F.shape
    x = x.copy()
    lib.saga_epoch(F.ctypes.data, L.ctypes.data, n, order.ctypes.data,
                   order.shape[0], d, x.ctypes.data, table.ctypes.data,
                   mean.ctypes.data, int(logistic), lam2, eta)
    return x
