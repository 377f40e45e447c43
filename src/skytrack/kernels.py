"""The two loops of the training step that C runs faster than NumPy (the
rectifier's backward and Adam), compiled from ``_kernels.c`` with the system
C compiler the first time ``load`` is called, with NumPy twins as the
fallback and the reference. The rest of the step is NumPy code in
``learner``.

Both sets do the same IEEE double operations in the same order, and every
one of them, divide and sqrt included, is correctly rounded, so with FMA
contraction off (and no ``-ffast-math``) they give the same bits. Only where
two different NaNs meet in one add or multiply may the two sets return
different NaNs. The build writes into a private
temporary directory that is removed once the library is loaded; nothing is
cached on disk. If the compiler is missing or the build fails, ``load``
returns the NumPy twins without a word.
"""

from __future__ import annotations

import ctypes
import functools
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
COMPILER = "cc"
# -fno-math-errno drops only the errno write of sqrt on a negative argument,
# which lets the compiler use the SIMD square root; the result is unchanged.
FLAGS = ("-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


class Kernels(NamedTuple):
    """One set of kernels; every array argument is float64.

    - ``relu_backward(a, g, w2, gb1)``: ``a = outer(g, w2) * (a > 0)`` and
      ``gb1 = a.sum(axis=0)``.
    - ``adam(p, g, m, v, lr, beta1, beta2, eps, b1c, b2c)``: the in-place
      update of ``learner.adam_step`` for one parameter array.
    """

    name: str
    relu_backward: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]
    adam: Callable[..., None]


def _relu_backward(a: np.ndarray, g: np.ndarray, w2: np.ndarray, gb1: np.ndarray) -> None:
    # The mask multiplies (not assigns), so a masked -0.0 stays -0.0.
    mask = a > 0.0
    np.outer(g, w2, out=a)
    np.multiply(a, mask, out=a)
    np.sum(a, axis=0, out=gb1)


def _adam(p, g, m, v, lr, beta1, beta2, eps, b1c, b2c) -> None:
    m *= beta1
    m += g * (1.0 - beta1)
    v *= beta2
    v += np.square(g) * (1.0 - beta2)
    p -= (m / b1c) * lr / (np.sqrt(v / b2c) + eps)


NUMPY = Kernels("numpy", _relu_backward, _adam)


def _pointers(*arrays: tuple[np.ndarray, int]) -> list[int]:
    """Addresses of the ``(array, size)`` arguments of one C call, after
    checking what the loops assume of them: writeable C-contiguous float64
    arrays of ``size`` elements, no two of which overlap. A wrong pointer
    would corrupt memory without a sign."""
    spans = []
    for x, size in arrays:
        if not (
            isinstance(x, np.ndarray)
            and x.dtype == np.float64
            and x.flags.c_contiguous
            and x.flags.writeable
            and x.size == size
        ):
            kind = f"{x.dtype} {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__
            raise ValueError(f"expected a writeable C-contiguous float64 array of {size} elements, got {kind}")
        # A quarter of the time of x.ctypes.data, which matters at four arrays per call.
        start = ctypes.addressof(ctypes.c_char.from_buffer(x)) if size else 0
        spans.append((start, start + x.nbytes))
    for i, (lo, hi) in enumerate(spans):
        for lo2, hi2 in spans[i + 1 :]:
            if lo < hi2 and lo2 < hi:
                raise ValueError("kernel arguments overlap")
    return [start for start, _ in spans]


def _matrix_shape(a: np.ndarray) -> tuple[int, int]:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError("expected a 2-d array")
    return a.shape


def _bind(lib: ctypes.CDLL) -> Kernels:
    ptr, size, f64 = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    for name, argtypes in (
        ("relu_backward", [ptr, ptr, ptr, ptr, size, size]),
        ("adam", [ptr, ptr, ptr, ptr, size] + [f64] * 6),
    ):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = None, argtypes

    def relu_backward(a, g, w2, gb1):
        n, width = _matrix_shape(a)
        lib.relu_backward(*_pointers((a, n * width), (g, n), (w2, width), (gb1, width)), n, width)

    def adam(p, g, m, v, lr, beta1, beta2, eps, b1c, b2c):
        n = getattr(p, "size", -1)
        lib.adam(*_pointers((p, n), (g, n), (m, n), (v, n)), n, lr, beta1, beta2, eps, b1c, b2c)

    return Kernels("c", relu_backward, adam)


def compile_kernels(compiler: str, opt: str = "-O2") -> Kernels | None:
    """Build ``_kernels.c`` with ``compiler`` at optimization level ``opt``
    and load it; None if the compiler is missing or the build fails."""
    import subprocess  # here, not at the top: `gen` imports this module and never builds

    with tempfile.TemporaryDirectory(prefix="skytrack-kernels-") as tmp:
        lib_file = Path(tmp) / "_kernels.so"
        try:
            subprocess.run(
                [compiler, opt, *FLAGS, "-o", str(lib_file), str(SOURCE), "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            lib = ctypes.CDLL(str(lib_file))
        except (OSError, subprocess.SubprocessError):
            return None
    return _bind(lib)


@functools.cache
def load() -> Kernels:
    """The C kernels, built once per process on the first call; the NumPy
    twins if they cannot be built. A forked child inherits the loaded set."""
    return compile_kernels(COMPILER) or NUMPY
