"""The benchmark's traced mode runs against this ``skytrack``.

``perfbench/tracer.py`` rebinds public names of the ``skytrack`` modules
(``learner.save_model``, ``augmentation.render_observation`` and so on) and
reads ``learner.train``'s ``projection_dim`` and ``hidden`` arguments by
name, so a change under ``src/`` can break ``perfbench/run.py --trace 1``
without any other test noticing.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skytrack import cli
from skytrack.config import load_config
from test_cli import SRC, small_config

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    """Each (module, attribute) that the tracer rebinds exists in ``skytrack``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _ in tracer.WRAPPED:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(f"skytrack.{module}"))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == [], f"perfbench/tracer.py rebinds names that skytrack lacks: {missing}"


@pytest.mark.parametrize("command", ["pipeline", "ablation"])
def test_traced_command_runs(tmp_path, command):
    cfg = str(small_config(tmp_path))
    assert cli.main(["gen", "--config", cfg]) == 0
    summary = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    args = ["--run-id", "t", "--summary", str(summary), "--spans", str(tmp_path / "spans.csv"), command, "--config", cfg]
    proc = subprocess.run([sys.executable, str(TRACER), *args], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(summary.read_text())["metrics"]
    if command == "pipeline":  # the ablation trains in forked workers, which the tracer does not follow
        assert metrics["learner.train_s"] > 0
        # The tracer counts rows as len() of what sweep_optimal and sweep_jittered return.
        (record,) = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert metrics["augmentation.samples"] == record["n_samples"]
        # The tracer counts the dataset's bytes only when cli calls save_dataset through its own name.
        run = tmp_path / "run"
        size = (run / "path_00_dataset.npz").stat().st_size + (run / "path_00_norm.json").stat().st_size
        assert metrics["cli.dataset_mb"] == size / 1e6
        # The renderer is traced at its two call sites: one call per sweep, and one per rollout tick.
        assert metrics["world.sweep_render_calls"] == load_config(cfg).n_augmented
        ticks = len((run / "path_00_trajectory.csv").read_text().splitlines()) - 2  # the header and the start pose
        assert metrics["world.rollout_render_calls"] == ticks
