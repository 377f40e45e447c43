"""The loops that run in C, each beside the NumPy code that gives the same bits.

The C set (``_kernels.c``) holds three loops, bound as a ``KernelSet``:

- ``train_epoch`` runs one whole epoch of ``learner.train`` per call: row
  gather, forward GEMM, bias and rectifier, head, loss, backward, finite
  check and Adam. The NumPy set runs the same epoch as a Python loop of
  NumPy steps (``_numpy_epoch``). It is the reference, and the C epoch
  leaves to it what numpy sends elsewhere than dgemm or dgemv: a one-row
  batch, or a head under 2 units wide or deep.
- ``render`` bins the (pose, landmark) pairs of ``world.render_observation``
  after NumPy has taken the bearings: the view test, the bin split,
  ``1 / (1 + hypot)`` with libm's ``hypot`` (which ``np.hypot`` calls), and
  the sums in ``np.bincount``'s order.
- ``forward`` runs the rows of ``metrics.angle_mse`` through the head one at
  a time, with the dgemv, dgemv and ddot calls that numpy's matmul makes for
  one row; it declines the shapes for which numpy makes other calls.

Every product goes to the BLAS routine that numpy's matmul picks for it,
with the same arguments, in the OpenBLAS that numpy itself loaded (``BLAS``,
looked up once per process). Both sets do the same IEEE double operations in
the same order, and every one of them, divide and sqrt included, is
correctly rounded, so with FMA contraction off (and no ``-ffast-math``) they
give the same bits. ``NUMPY`` has no ``render`` or ``forward``: its callers
run their own NumPy code, which stays as the reference.

``load`` builds the C set once per user and compiler: the library is cached as
``<XDG_CACHE_HOME or ~/.cache>/skytrack/<sha256>.so`` (only an absolute
``XDG_CACHE_HOME`` is used, as the XDG spec asks), keyed by the source,
flags, optimization level, machine and the compiler's resolved path, size and
mtime; ``rm -r ~/.cache/skytrack`` clears it, and a damaged file is rebuilt.
Only a miss builds, in a private ``skytrack-kernels-*`` directory in the
system temp directory, and stores the library through ``artifacts.writing``,
so the cache holds only whole ``<sha256>.so`` files; a build killed by
SIGKILL leaves its directory in the system temp directory, not in the cache.
A cache directory that another user owns, that others can write, or that is
relative (``~`` without an absolute home) is never used: the library is then
stored in the build directory and loaded from there.
``gen`` and the per-step API never start the compiler. If the compiler is
missing, the build fails or passes ``BUILD_TIMEOUT``, or numpy's OpenBLAS
lacks a ``BLAS`` symbol, ``load`` silently returns ``NUMPY``.

``blas_threads`` asks that same OpenBLAS how many threads it runs.
``one_blas_thread`` runs a block at one of them: ``learner.train``, and
every child the ablation forks.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .artifacts import writing

SOURCE = Path(__file__).with_name("_kernels.c")
COMPILER = "cc"
# -fno-math-errno drops only the errno write of sqrt on a negative argument,
# which lets the compiler use the SIMD square root; the result is unchanged.
FLAGS = ("-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
# numpy's CBLAS with 64-bit integers, and its thread count's getter and
# setter, as its wheels' scipy-openblas exports them.
BLAS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")
NUM_THREADS = "scipy_openblas_get_num_threads64_"
SET_NUM_THREADS = "scipy_openblas_set_num_threads64_"
BUILD_TIMEOUT = 120  # seconds; a longer build is killed and NUMPY used
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's, fixed


def split(theta: np.ndarray, hidden: int, width: int) -> list[np.ndarray]:
    """w1 (hidden, width), b1, w2 and b2 (one element) as views of one flat
    vector, in that order."""
    w1, b1, w2, b2 = np.split(theta, np.cumsum([hidden * width, hidden, hidden]))
    return [w1.reshape(hidden, width), b1, w2, b2]


def head_gradient(z, y, w1, b1, w2, b2, grads) -> float:
    """The head's mean squared error on the projected rows ``z`` (at least
    one) against ``y``, and its gradient, written into ``grads``: arrays
    shaped like ``w1``, ``b1``, ``w2`` and ``b2`` (one element)."""
    a = z @ w1.T
    a += b1
    h = np.maximum(a, 0.0)
    err = h @ w2 + b2 - y
    loss = float(np.mean(err**2))
    g = (2.0 / z.shape[0]) * err
    gw1, gb1, gw2, gb2 = grads
    np.matmul(h.T, g, out=gw2)
    gb2[0] = g.sum()
    # a becomes da; the mask multiplies (not assigns), so a masked -0.0 stays -0.0.
    mask = a > 0.0
    np.outer(g, w2, out=a)
    np.multiply(a, mask, out=a)
    np.sum(a, axis=0, out=gb1)
    np.matmul(a.T, z, out=gw1)
    return loss


def adam_update(p: np.ndarray, g: np.ndarray, state, lr: float) -> None:
    """One Adam step of ``p`` with the moments and step count of ``state``;
    a non-finite ``g`` raises before anything moves."""
    if not np.isfinite(g).all():
        raise RuntimeError("diverged: non-finite gradient")
    state.t += 1
    m, v, t = state.m, state.v, state.t
    m *= BETA1
    m += g * (1.0 - BETA1)
    v *= BETA2
    v += np.square(g) * (1.0 - BETA2)
    p -= (m / (1.0 - BETA1**t)) * lr / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)


def _numpy_epoch(z, y, order, theta, state, hidden, batch_size, lr, sse=0.0) -> float:
    """The Adam steps of one epoch over the rows ``order`` (int64) of the
    projected features ``z`` and targets ``y`` (float64), in batches of
    ``batch_size``, on the flat parameters ``theta`` (see ``split``) and the
    moments and step count of ``state`` (a ``learner.AdamState``). Returns
    ``sse`` plus the sum of each batch's loss times its rows. A non-finite
    gradient raises ``RuntimeError("diverged ...")`` before its step
    changes anything. ``load`` returns this function or its C twin."""
    w1, b1, w2, b2 = split(theta, hidden, z.shape[1])
    grad = np.empty_like(theta)
    grads = split(grad, hidden, z.shape[1])
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        loss = head_gradient(z[idx], y[idx], w1, b1, w2, b2, grads)
        adam_update(theta, grad, state, lr)
        sse += loss * idx.shape[0]
    return sse


@dataclass(frozen=True)
class KernelSet:
    """The loops of one set. ``train_epoch`` runs one epoch of
    ``learner.train`` (see ``_numpy_epoch``). ``render`` and ``forward`` are
    the C renderer's per-pair loop and the C held-out forward (see ``_bind``),
    None in ``NUMPY``: their callers then run their own NumPy code, which
    gives the same bits."""

    train_epoch: Callable[..., float]
    render: Callable[..., None] | None = None
    forward: Callable[..., np.ndarray | None] | None = None


NUMPY = KernelSet(_numpy_epoch)


def _pointers(*arrays: tuple[np.ndarray, int], read: int = 0) -> list[int]:
    """Addresses of the ``(array, size)`` arguments of one C call, after
    checking what the loops assume of them: C-contiguous float64 arrays of
    ``size`` elements, no two of which overlap, writeable but for the first
    ``read``, which C only reads. A wrong pointer would corrupt memory
    without a sign."""
    spans = []
    for i, (x, size) in enumerate(arrays):
        if not (
            isinstance(x, np.ndarray)
            and x.dtype == np.float64
            and x.flags.c_contiguous
            and (x.flags.writeable or i < read)
            and x.size == size
        ):
            kind = f"{x.dtype} {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__
            access = "" if i < read else "writeable "
            raise ValueError(f"expected a {access}C-contiguous float64 array of {size} elements, got {kind}")
        # A ctypes view of a writeable buffer gives its address in a third of
        # the time of x.ctypes.data, which a one-pose render would feel.
        start = ctypes.addressof(ctypes.c_char.from_buffer(x)) if x.flags.writeable and size else x.ctypes.data
        spans.append((start, start + x.nbytes))
    for i, (lo, hi) in enumerate(spans):
        for lo2, hi2 in spans[i + 1 :]:
            if lo < hi2 and lo2 < hi:
                raise ValueError("kernel arguments overlap")
    return [start for start, _ in spans]


def _openblas(name: str, restype, *argtypes):
    """The function ``name`` of numpy's OpenBLAS, looked up through numpy's
    core extension, whose symbol lookups search the libraries it links; None
    if numpy has no ``numpy._core`` or its BLAS no such symbol."""
    try:
        from numpy._core import _multiarray_umath

        function = getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (AttributeError, ImportError):
        return None
    function.restype, function.argtypes = restype, list(argtypes)
    return function


def blas_threads() -> int:
    """The threads that numpy's OpenBLAS runs, asked of it; 1, the count
    that ``skytrack`` pins by default, if it has no ``NUM_THREADS``."""
    get = _openblas(NUM_THREADS, ctypes.c_int)
    return get() if get else 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, the function) with numpy's OpenBLAS
    at one thread, then restore its count; without ``SET_NUM_THREADS``,
    at the count it has. Some kernel sets (Haswell's, Prescott's) split a
    GEMM across threads in another summation order, so its bits depend on
    the thread count: a dataset's projection, or a batch of 26 rows."""
    set_threads = _openblas(SET_NUM_THREADS, None, ctypes.c_int) or (lambda threads: None)
    threads = blas_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _bind(lib_file: Path, blas: list) -> KernelSet | None:
    """The C loops of ``lib_file`` over the OpenBLAS functions ``blas``
    (dgemm, dgemv and ddot, as in ``BLAS``); None if it does not load."""
    dgemm, dgemv, ddot = blas
    ptr, size, f64 = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    try:
        lib = ctypes.CDLL(str(lib_file))
        epoch, render_loop, forward_loop = lib.train_epoch, lib.render, lib.forward
    except (OSError, AttributeError):
        return None
    epoch.restype, epoch.argtypes = size, [ptr] * 3 + [size] * 4 + [ptr] * 3 + [size] + [f64] * 4 + [ptr] * 3
    render_loop.restype, render_loop.argtypes = ctypes.c_int, [ptr, size, size, ptr, size, size, f64, f64, ptr]
    forward_loop.restype = ctypes.c_int
    forward_loop.argtypes = [ptr, size, size, ptr, ptr, ptr, size, ptr, size, ptr, ptr, f64, ptr, ptr, ptr]

    def train_epoch(z, y, order, theta, state, hidden, batch_size, lr):
        if not isinstance(z, np.ndarray) or z.ndim != 2:
            raise ValueError("expected a 2-d array")
        rows, width = z.shape
        n = len(order)
        if not (order.dtype == np.int64 and order.ndim == 1 and order.flags.c_contiguous):
            raise ValueError("expected C-contiguous int64 row indices")
        if n and not (0 <= order.min() and order.max() < rows):
            raise ValueError(f"row indices outside 0..{rows - 1}")
        # The C loop takes the batches of 2 or more rows of a head at least 2
        # wide and deep, whose products numpy sends to dgemm or dgemv; the
        # NumPy step takes the rest: a 1-row last batch, or the whole epoch.
        done = 0 if min(batch_size, hidden, width) < 2 else n - (n % batch_size == 1)
        params = hidden * width + 2 * hidden + 1
        pointers = _pointers((z, rows * width), (y, rows), (theta, params), (state.m, params), (state.v, params))
        sse = ctypes.c_double(0.0)
        steps = epoch(
            *pointers[:2], order.ctypes.data, done, width, hidden, batch_size, *pointers[2:], state.t,
            lr, BETA1, BETA2, EPS, dgemm, dgemv, ctypes.byref(sse),
        )
        if steps < 0:
            raise MemoryError("train_epoch: out of memory")
        state.t += steps
        if steps < -(-done // batch_size):
            raise RuntimeError("diverged: non-finite gradient")
        return _numpy_epoch(z, y, order[done:], theta, state, hidden, batch_size, lr, sse.value)

    def render(planes, signatures, bins, half, bin_width, out):
        """Bin into ``out`` (P, bins * S) the landmarks seen from P poses:
        ``planes`` (3, P, N) holds each pose's dx, dy and bearing to the N
        landmarks, whose ``signatures`` are (N, S); see ``world.render_observation``."""
        _, poses, n = planes.shape
        s = signatures.shape[1]
        if bins < 1:  # C clips each landmark's bin into 0..bins-1
            raise ValueError(f"bins {bins} must be >= 1")
        args = _pointers((planes, 3 * poses * n), (signatures, n * s), (out, poses * bins * s), read=2)
        if render_loop(args[0], poses, n, args[1], s, bins, half, bin_width, args[2]):
            raise MemoryError("render: out of memory")

    def forward(features, mean, std, projection, w1, b1, w2, b2):
        """Each row of ``features`` through the head, as ``learner.predict_raw``
        gives it for that row alone, normalized by ``mean`` and ``std``; None
        where numpy would not send both products to dgemv and the last to
        ddot with these arguments: an input, projection or head under 2 wide,
        or a product's weight that is not a C-contiguous float64 array."""
        (f, d), h = projection.shape, w1.shape[0]
        weights = (projection, w1, w2)
        if min(d, f, h) < 2 or not all(a.dtype == np.float64 and a.flags.c_contiguous for a in weights):
            return None
        if features.ndim != 2 or features.shape[1] != d:
            raise ValueError(f"dimension mismatch: got {features.shape[-1]}, expected {d}")
        # Elementwise operands: a contiguous float64 copy changes no bit.
        features, mean, std, b1 = (np.ascontiguousarray(a, np.float64) for a in (features, mean, std, b1))
        rows = len(features)
        out = np.empty(rows)
        x, mu, sd, p, a1, c1, a2, y = _pointers(
            (features, rows * d), (mean, d), (std, d), (projection, f * d), (w1, h * f), (b1, h), (w2, h),
            (out, rows), read=7,
        )
        if forward_loop(x, rows, d, mu, sd, p, f, a1, h, c1, a2, b2, dgemv, ddot, y):
            raise MemoryError("forward: out of memory")
        return out

    return KernelSet(train_epoch, render, forward)


def _cache_dir() -> Path | None:
    """``<XDG_CACHE_HOME or ~/.cache>/skytrack``, made if missing; None if it
    cannot be made, if another user owns it or can write to it, or if it is
    not absolute. A relative XDG_CACHE_HOME is ignored, as the XDG spec says."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    directory = Path(xdg if os.path.isabs(xdg) else os.path.expanduser("~/.cache"), "skytrack")
    if not directory.is_absolute():  # a relative HOME, or none to expand ~ to
        return None
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.stat()
    except OSError:
        return None
    trusted = st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(directory, os.W_OK | os.X_OK)
    return directory if trusted else None


def _run_compiler(command: list[str]) -> bool:
    """Run ``command`` in its own session; True if it succeeds. If it passes
    ``BUILD_TIMEOUT``, or an exception interrupts the wait, its whole process
    group is killed, so the compiler's children die too."""
    import subprocess  # here, not at the top: `gen` imports this module and never builds

    null, process = subprocess.DEVNULL, None
    try:
        process = subprocess.Popen(command, stdout=null, stderr=null, start_new_session=True)
        return process.wait(timeout=BUILD_TIMEOUT) == 0
    except (OSError, subprocess.TimeoutExpired):
        return False
    finally:
        if process is not None and process.returncode is None:  # unreaped, so its group exists
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def compile_kernels(compiler: str, opt: str = "-O2") -> KernelSet | None:
    """The C set of ``_kernels.c`` built by ``compiler`` at ``opt``, taken
    from the cache if it holds it intact; None if it cannot be had (see the
    module docstring)."""
    import hashlib
    import platform

    blas = [_openblas(name, None) for name in BLAS]
    found = shutil.which(compiler)
    if None in blas or found is None:
        return None
    try:
        resolved = os.path.realpath(found)
        st = os.stat(resolved)
        source = SOURCE.read_bytes()
    except OSError:
        return None
    stamp = repr((FLAGS, opt, platform.machine(), resolved, st.st_size, st.st_mtime_ns)).encode()
    cache = _cache_dir()
    name = hashlib.sha256(stamp + b"\0" + source).hexdigest() + ".so"
    try:
        lib = Path(cache, name).read_bytes() if cache else b""
    except OSError:  # not built yet
        lib = b""
    # A build appends the library's sha256, which the loader ignores: a
    # damaged library can crash the loading process, so it is rebuilt.
    if hashlib.sha256(lib[:-32]).digest() == lib[-32:]:
        return _bind(Path(cache, name), blas)
    with tempfile.TemporaryDirectory(prefix="skytrack-kernels-") as build_dir:
        built = Path(build_dir, "_kernels.so")
        if not _run_compiler([found, opt, *FLAGS, "-o", str(built), str(SOURCE), "-lm"]):
            return None
        lib = built.read_bytes()
        lib_file = Path(cache or build_dir, name)
        with writing(lib_file, "wb") as fh:  # whole, so no process loads a part
            fh.write(lib + hashlib.sha256(lib).digest())
        return _bind(lib_file, blas)


@functools.cache
def load() -> KernelSet:
    """The C set, from the cache or built on the first call in a process;
    ``NUMPY`` if it cannot be had. A forked child inherits it."""
    return compile_kernels(COMPILER) or NUMPY
