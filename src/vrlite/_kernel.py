"""The compiled per-sample loops behind every optimizer.

`_kernel.c` holds `dot`, the margin of every per-sample gradient; the
loop of `optim._epoch` (SGD, SVRG and vrlite) in three lane widths:
`epoch` steps one run at a time, `epoch_lanes2` and `epoch_lanes4` step
two or four runs at once over one sample order; and `saga_epoch`, the
loop of `optim.saga_epoch`. On first import the source
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

Every pointer handed to C comes from `vector`, `matrix`, `rows` or
`indices`, which check length, shape, dtype, alignment, contiguity and
index range first.
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
_EPOCH_SIGNATURE = (None, [_P, _P, _P, _I64, _I64, _I64, _P, _P, _P, _INT, _F64,
                           _P, _INT, _P, _P])
_EPOCH_PATHS = {1: "epoch", 2: "epoch_lanes2", 4: "epoch_lanes4"}
_SIGNATURES = {
    "dot": (_F64, [_P, _P, _I64]),
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
    """Set the C signatures on dll, and give it `paths` (width -> epoch
    function, for every lane path the library holds and this CPU runs)
    and `width`, the widest of them."""
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(dll, name)
        fn.restype, fn.argtypes = restype, argtypes
    dll.paths, cpu_width = {}, dll.lane_width()
    for width, name in _EPOCH_PATHS.items():
        fn = getattr(dll, name, None)
        if fn is not None and width <= cpu_width:
            fn.restype, fn.argtypes = _EPOCH_SIGNATURE
            dll.paths[width] = fn
    dll.width = max(dll.paths)
    return dll


try:
    lib = _load()
except OSError as exc:
    lib = None
    warnings.warn(f"vrlite: no compiled kernel ({exc}); the pure-Python loops "
                  "run instead, with the same results, more slowly", RuntimeWarning)


def vector(v, d: int, what: str, writable: bool = False) -> np.ndarray:
    """v as an aligned C-contiguous float64 array of shape (d,). It is v
    itself when v already is one; otherwise a copy, which the caller
    writes back if C updated it."""
    return matrix(v, (d,), what, writable)


def matrix(a, shape: tuple, what: str, writable: bool = False) -> np.ndarray:
    """a as an aligned C-contiguous float64 array of the given shape, as
    in `vector`."""
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
    return matrix(F, F.shape, "features"), vector(ds.labels, F.shape[0], "labels")


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
    a = vector(a, a.shape[0], "a")
    x = vector(x, a.shape[0], "x")
    if lib is None:
        s = 0.0
        for u, v in zip(a.tolist(), x.tolist()):
            s += u * v
        return s
    return lib.dot(a.ctypes.data, x.ctypes.data, a.shape[0])


def epoch(F, L, order, x, anchor, accum_grad, logistic: bool, lam2: float,
          eta, width: int | None = None):
    """The C loop of optim._epoch on checked arguments, for K runs that
    take the same order: x is (K, d), eta K stepsizes or one for all,
    and anchor None or (x_ref, g_mean), both (K, d). Returns (x, acc_x, acc_g), each a new
    (K, d) array: the last iterates and the sums of the iterates and of
    the accumulated gradients over the steps.

    By default one run goes through the one-run loop and K >= 2 runs
    through the widest lane path of this CPU, except that a last block
    that would hold one live lane runs the one-run loop instead. width
    forces a path of `lib.paths` for every block."""
    K, d = x.shape
    if width is None:
        width = 1 if K == 1 else lib.width
        if K % width == 1:
            # A block with one live lane costs more than the one-run loop.
            eta = np.broadcast_to(eta, (K,))
            parts = [epoch(F, L, order, x[s], None if anchor is None else
                           [v[s] for v in anchor], accum_grad, logistic, lam2,
                           eta[s]) for s in (slice(-1), slice(-1, None))]
            return tuple(np.concatenate(p) for p in zip(*parts))
    blocks = -(-K // width)
    if width == 1:  # (K, d) is already the layout of one run per block
        x = x.copy()

        def runs(v):
            return v
    else:
        def lanes(v):
            """(K, d) -> (blocks, d, width), the last block padded with 0."""
            out = np.zeros((blocks * width, d))
            out[:K] = v
            return out.reshape(blocks, width, d).transpose(0, 2, 1).copy()

        def runs(v):
            return v.transpose(0, 2, 1).reshape(-1, d)[:K]

        x = lanes(x)
        if anchor is not None:
            anchor = [lanes(v) for v in anchor]
    x_ref, g_mean = (None, None) if anchor is None else (
        anchor[0].ctypes.data, anchor[1].ctypes.data)
    # One buffer, one pointer: acc_x, acc_g, then a stepsize per lane.
    buf = np.zeros(2 * x.size + blocks * width)
    buf[2 * x.size:][:K] = eta
    p = buf.ctypes.data
    lib.paths[width](F.ctypes.data, L.ctypes.data, order.ctypes.data,
                     order.shape[0], d, blocks, x.ctypes.data, x_ref, g_mean,
                     int(logistic), lam2, p + 2 * x.nbytes,
                     _ACCUM_CODES[accum_grad], p, p + x.nbytes)
    acc_x, acc_g = buf[:2 * x.size].reshape((2,) + x.shape)
    return runs(x), runs(acc_x), runs(acc_g)


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
