"""Suite-wide set-up.

``skytrack`` is imported here, before any test module can load numpy, so
that its one-thread BLAS default reaches numpy's OpenBLAS in the test
process just as it does in the CLI. Test modules that import numpy first
would otherwise leave OpenBLAS at one thread per CPU.
"""

import glob

import pytest

import skytrack  # noqa: F401  (before numpy; see above)


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
