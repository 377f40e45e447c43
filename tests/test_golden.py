"""Golden digests of the deterministic artifacts, and their invariance to
the BLAS thread count.

The digests pin the bytes of the small end-to-end scenario from
``test_cli.small_config``, once at its own tiny widths and once at the
default training widths (projection 128, hidden 512), whose GEMMs are large
enough for OpenBLAS to split across threads. They were recorded with
numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell
kernels) on x86-64; another numpy or BLAS build may legitimately produce
other bytes. A change that alters a digest must say why in CHANGES.md.
"""

import hashlib
import os
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
    },
    "wide": {
        "path_00_model.json": "71552417dc1328d92be2c48cba51d42b43801f8e3a88b2d40e9e40567e10ec1e",
        "path_00_metrics.json": "6172a067aa1607ac01d50448c16d812adbe65271adc446bf05aa600dee8006dc",
        "path_00_trajectory.csv": "b88c285b0d551ca40d0de686ae9d6134a4876df28deaa78bfc5cc8bd1ee99877",
        "ablation.csv": "6f45d0babd60c7eb7845462ecd59c5411e361d2da88190e1848a61f21af3ca4e",
        "path_00_norm.json": "3abc529ff8dd643770b42594ff9a36e3aab7a70e7bce7068b1119a76268c9edb",
        "manifest.json": "50edbe34949ad77545f870871a289ae4cb2866e6812c51ee534749edb8b6f388",
    },
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(file: Path) -> str:
    return hashlib.sha256(file.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_golden_digests(tmp_path, scenario):
    cfg = str(small_config(tmp_path, **(WIDE if scenario == "wide" else {})))
    for command in ("gen", "ablation", "pipeline"):
        assert cli.main([command, "--config", cfg]) == 0
    run = tmp_path / "run"
    digests = {name: sha256(run / name) for name in GOLDEN[scenario]}
    assert digests == GOLDEN[scenario], f"numpy {np.__version__}"


def run_cli(env_overrides: dict[str, str], *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, check=True
    )


def test_bytes_independent_of_blas_threads(tmp_path):
    cfg = str(small_config(tmp_path, **WIDE))
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads_{threads}"
        # The ablation's worker count follows the BLAS thread count; its rows must not.
        for command in ("gen", "pipeline", "ablation"):
            run_cli(
                {"OPENBLAS_NUM_THREADS": threads},
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
print(*(os.environ[v] for v in sys.argv[1:]), tasks)
"""


def test_import_pins_one_blas_thread_unless_set():
    out = run_cli({}, "-c", PROBE, *THREAD_VARS).stdout.split()
    assert out[:3] == ["1", "1", "1"]
    assert out[3] in ("1", "-1")  # one thread: nothing was started
    out = run_cli({"OPENBLAS_NUM_THREADS": "2"}, "-c", PROBE, *THREAD_VARS).stdout.split()
    assert out[:3] == ["2", "1", "1"]


@pytest.mark.parametrize(
    "env, imports, expected",
    [
        ({}, "skytrack", "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "skytrack", "2"),
        # OpenBLAS reads OPENBLAS_NUM_THREADS first, and skytrack's default sets it.
        ({"OMP_NUM_THREADS": "2"}, "skytrack", "1"),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, "skytrack", "2"),
        # numpy imported first has read the variables before skytrack's default.
        ({"OMP_NUM_THREADS": "2"}, "numpy, skytrack", "2"),
        ({}, "numpy, skytrack", str(len(os.sched_getaffinity(0)))),
    ],
)
def test_blas_threads_is_what_openblas_read(env, imports, expected):
    probe = f"import {imports}; print(skytrack.BLAS_THREADS)"
    assert run_cli(env, "-c", probe).stdout.split() == [expected]
