"""Golden digests of the deterministic artifacts, and their invariance to
the BLAS thread count, under the host's OpenBLAS kernel set and under forced
Haswell kernels.

The digests pin the bytes of the small end-to-end scenario from
``test_cli.small_config``, once at its own tiny widths and once at the
default training widths (projection 128, hidden 512), whose GEMMs are large
enough for OpenBLAS to split across threads. They were recorded with
numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH) running its
SkylakeX kernels on x86-64; another numpy, BLAS build or kernel set may
legitimately produce other bytes (forced with ``OPENBLAS_CORETYPE``, the
Haswell and Sandybridge kernels change some of them). A change that alters
a digest must say why in CHANGES.md. Both training epochs of
``skytrack.kernels``, C and NumPy, must give these digests.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skytrack import cli
from test_cli import SRC, small_config

WIDE = {"projection_dim": 128, "hidden_units": 512}

GOLDEN = {
    "small": {
        "path_00_model.json": "6442caf76608c75f192378c3c0f98605d610eeaa2c62e114c4ae6d10ba7457ff",
        "path_00_metrics.json": "7604d6eebf023e5dbf49a1a72396f252a8e3ab8e71ffcce082b54a7fef2054ce",
        "path_00_trajectory.csv": "d3f7476638d09333bc557658b68f74e3c581d10f570bd3c3b95742d8bf0cd718",
        "ablation.csv": "0d770d3c49e206a4db5c78dfadfe12985a7f5ce78e5f77b70ca3561a361771dd",
        "path_00_norm.json": "3abc529ff8dd643770b42594ff9a36e3aab7a70e7bce7068b1119a76268c9edb",
        "manifest.json": "a3f2a59a23ed5e150e9d8e48d8531e22e4c468268bc09909a203c4d063266029",
        "path_00_dataset.npz": "709ffcb4c8d4b1d704eabd626816c0bbe044180284677d53580b9d75f159ccc0",
        "path_00_overlay.svg": "9a429ca5514d16bb1f1e1941d601d3cf748bf98ad89421038d59d97d07500eb3",
        "ablation.svg": "00a0aba2d00ea3d1cb4e1dd66ce811c7f6166320858fd72eb42c3a05da075597",
        "world.json": "e82858eca9b24c1ceed50f9d92e4451c0692bbceb8a7ae512b3fd3d795cb7fc8",
        "path_00.csv": "f0788686287a34c8ff5b228847a77633924a22c7ceb9d8f4e51b9fa26be8ddc3",
    },
    "wide": {
        "path_00_model.json": "71552417dc1328d92be2c48cba51d42b43801f8e3a88b2d40e9e40567e10ec1e",
        "path_00_metrics.json": "6172a067aa1607ac01d50448c16d812adbe65271adc446bf05aa600dee8006dc",
        "path_00_trajectory.csv": "b88c285b0d551ca40d0de686ae9d6134a4876df28deaa78bfc5cc8bd1ee99877",
        "ablation.csv": "6f45d0babd60c7eb7845462ecd59c5411e361d2da88190e1848a61f21af3ca4e",
        "path_00_norm.json": "3abc529ff8dd643770b42594ff9a36e3aab7a70e7bce7068b1119a76268c9edb",
        "manifest.json": "50edbe34949ad77545f870871a289ae4cb2866e6812c51ee534749edb8b6f388",
        "path_00_dataset.npz": "709ffcb4c8d4b1d704eabd626816c0bbe044180284677d53580b9d75f159ccc0",
        "path_00_overlay.svg": "a64e43cd158cab00cabc1b58e0806bfa72a074126d550bf69c88269303564c8d",
        "ablation.svg": "63e2b637b0148658866c693502933fe044b56c95e02153dad022cd9d51b6e555",
        "world.json": "e82858eca9b24c1ceed50f9d92e4451c0692bbceb8a7ae512b3fd3d795cb7fc8",
        "path_00.csv": "f0788686287a34c8ff5b228847a77633924a22c7ceb9d8f4e51b9fa26be8ddc3",
    },
}

# The variables that skytrack/__init__.py pins, in its order.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0))  # OpenBLAS runs no more threads than these

CORE_PROBE = """
import ctypes
from numpy._core import _multiarray_umath
try:
    corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
except AttributeError:
    print("unknown")
else:
    corename.restype = ctypes.c_char_p
    print(corename().decode())
"""


def sha256(file: Path) -> str:
    return hashlib.sha256(file.read_bytes()).hexdigest()


def openblas_core(env_overrides: dict[str, str] | None = None) -> str:
    """The kernel set numpy's OpenBLAS chooses for this CPU, or is forced to
    by ``OPENBLAS_CORETYPE`` in ``env_overrides``."""
    return run_cli(env_overrides or {}, "-c", CORE_PROBE).stdout.strip()


def has_avx2() -> bool:
    try:
        return re.search(r"^flags\s*:.*\bavx2\b", Path("/proc/cpuinfo").read_text(), re.MULTILINE) is not None
    except OSError:
        return False


@pytest.mark.parametrize(
    "scenario, kernel_set",
    [("small", "c"), ("wide", "c"), ("small", "numpy"), ("wide", "numpy")],
    ids=["small", "wide", "small-numpy", "wide-numpy"],
    indirect=["kernel_set"],
)
def test_golden_digests(tmp_path, scenario, kernel_set):
    """The same digests from the C epoch and from the NumPy epoch."""
    cfg = str(small_config(tmp_path, **(WIDE if scenario == "wide" else {})))
    for command in ("gen", "ablation", "pipeline"):
        assert cli.main([command, "--config", cfg]) == 0
    run = tmp_path / "run"
    digests = {name: sha256(run / name) for name in GOLDEN[scenario]}
    assert digests == GOLDEN[scenario], f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


def run_cli(env_overrides: dict[str, str], *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, check=True
    )


@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["default", "Haswell"])
def test_bytes_independent_of_blas_threads(tmp_path, coretype):
    """Under the host's own kernel set, and under the Haswell kernels, whose
    threaded GEMM sums in another order than their one-thread GEMM."""
    forced = {"OPENBLAS_CORETYPE": coretype} if coretype else {}
    if coretype and not has_avx2():
        pytest.skip(f"the CPU lacks AVX2, which the {coretype} kernels need")
    if coretype and (core := openblas_core(forced)) != coretype:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} reads back as {core}")
    cfg = str(small_config(tmp_path, **WIDE))
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads_{threads}"
        # The ablation's worker count follows the BLAS thread count; its rows must not.
        for command in ("gen", "pipeline", "ablation"):
            run_cli(
                {**forced, "OPENBLAS_NUM_THREADS": threads},
                "-m", "skytrack.cli", command, "--config", cfg, "--out-dir", str(run),
            )
        outputs.append([(run / n).read_bytes() for n in ("path_00_model.json", "path_00_metrics.json", "ablation.csv")])
    assert outputs[0] == outputs[1]


PROBE = """
import os, sys
import skytrack
import numpy as np
a = np.ones((512, 512))
a @ a  # large enough that a threaded BLAS would start its workers
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1
print(*(os.environ.get(v, "-") for v in sys.argv[1:]), tasks)
"""


def test_import_pins_one_blas_thread_unless_set():
    out = run_cli({}, "-c", PROBE, *THREAD_VARS).stdout.split()
    assert out[:4] == ["1", "1", "1", "1"]
    assert out[4] in ("1", "-1")  # one thread: nothing was started
    out = run_cli({"OPENBLAS_NUM_THREADS": "2"}, "-c", PROBE, *THREAD_VARS).stdout.split()
    assert out[:4] == ["2", "-", "-", "-"]
    # Any one of the variables is the user's choice; the default stays away.
    out = run_cli({"OMP_NUM_THREADS": "2"}, "-c", PROBE, *THREAD_VARS).stdout.split()
    assert out[:4] == ["-", "-", "2", "-"]
    assert out[4] in ("2", "-1")  # OpenBLAS started its second thread
    out = run_cli({"GOTO_NUM_THREADS": "2"}, "-c", PROBE, *THREAD_VARS).stdout.split()
    assert out[:4] == ["-", "2", "-", "-"]


@pytest.mark.parametrize(
    "env, imports, expected",
    [
        ({}, "skytrack", "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "skytrack", str(min(2, CPUS))),
        # Any one variable set keeps skytrack's default away.
        ({"OMP_NUM_THREADS": "2"}, "skytrack", str(min(2, CPUS))),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, "skytrack", str(min(2, CPUS))),
        # numpy imported first has read the variables before skytrack's default.
        ({"OMP_NUM_THREADS": "2"}, "numpy, skytrack", str(min(2, CPUS))),
        ({}, "numpy, skytrack", str(CPUS)),
        ({"GOTO_NUM_THREADS": "1"}, "numpy, skytrack", "1"),
        ({"OPENBLAS_NUM_THREADS": "8"}, "skytrack", str(min(8, CPUS))),
        ({"GOTO_NUM_THREADS": "2"}, "skytrack", str(min(2, CPUS))),
    ],
)
def test_blas_threads_is_what_openblas_read(env, imports, expected):
    probe = f"import {imports}; from skytrack import kernels; print(kernels.blas_threads())"
    assert run_cli(env, "-c", probe).stdout.split() == [expected]


@pytest.mark.parametrize(
    "break_lookup",
    ['kernels.NUM_THREADS = "skytrack_no_such_symbol"', 'sys.modules["numpy._core"] = None'],
    ids=["no-symbol", "no-numpy-core"],
)
def test_thread_count_is_one_when_openblas_cannot_be_asked(break_lookup):
    # OpenBLAS itself runs min(2, CPUS) threads here; only the fallback answers 1.
    probe = f"import sys; from skytrack import kernels; {break_lookup}; print(kernels.blas_threads())"
    assert run_cli({"OPENBLAS_NUM_THREADS": "2"}, "-c", probe).stdout.split() == ["1"]


ONE_THREAD_PROBE = """
import sys
from skytrack import kernels
kernels.SET_NUM_THREADS = sys.argv[1] or kernels.SET_NUM_THREADS
try:
    with kernels.one_blas_thread():
        inside = kernels.blas_threads()
        raise KeyError  # the count comes back on the way out of a failure too
except KeyError:
    print(inside, kernels.blas_threads())
"""


@pytest.mark.parametrize("symbol, inside", [("", "1"), ("skytrack_no_such_symbol", str(min(2, CPUS)))], ids=["set", "no-symbol"])
def test_one_blas_thread_restores_the_count(symbol, inside):
    out = run_cli({"OPENBLAS_NUM_THREADS": "2"}, "-c", ONE_THREAD_PROBE, symbol).stdout.split()
    assert out == [inside, str(min(2, CPUS))]
