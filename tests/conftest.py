"""Suite-wide set-up.

``skytrack`` is imported here, before any test module can load numpy, so
that its one-thread BLAS default reaches numpy's OpenBLAS in the test
process just as it does in the CLI. Test modules that import numpy first
would otherwise leave OpenBLAS at one thread per CPU.
"""

import atexit
import glob
import os
import shutil
import tempfile

import pytest

import skytrack  # noqa: F401  (before numpy; see above)
import numpy as np
from skytrack import kernels
from skytrack.augmentation import Samples

# The C kernels' build cache lives in a temporary directory of this test
# run, so the suite neither reads nor writes the user's own cache. This runs
# before any test module is collected, and test_kernels.py calls
# kernels.load() then.
os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(prefix="skytrack-test-cache-")
atexit.register(shutil.rmtree, os.environ["XDG_CACHE_HOME"], ignore_errors=True)


def children(pid: int | str = "self") -> list[int]:
    """Child processes of ``pid`` not yet reaped, zombies included: a zombie
    is a child nobody waited for."""
    found = []
    for file in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(file) as fh:
            found.extend(int(c) for c in fh.read().split())
    return found


@pytest.fixture(autouse=True)
def no_leftover_children():
    """Fail any test that leaves a child process of the test process."""
    yield
    left = children()
    if left:
        pytest.fail(f"test left child processes behind: {left}")


@pytest.fixture
def kernel_set(request, monkeypatch):
    """Runs the test on the kernel set named by the parameter, "c" or
    "numpy" (the training epoch, renderer and held-out forward alike);
    skips "c" where no C compiler could build it."""
    chosen = kernels.load() if request.param == "c" else kernels.NUMPY
    if request.param == "c" and chosen is kernels.NUMPY:
        pytest.skip("no C compiler: the NumPy set is in use")
    monkeypatch.setattr(kernels, "load", lambda: chosen)
    return chosen


def make_samples(features, targets) -> Samples:
    """Samples of the given rows, as float64."""
    return Samples(np.asarray(features, dtype=float).reshape(len(targets), -1), np.asarray(targets, dtype=float))
