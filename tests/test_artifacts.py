"""Every artifact is written whole or not at all: a write that fails part-way
leaves the file it would have replaced as it was, and no temp file. And the
record a reader returns checks itself, so one built in code is checked too."""

import builtins
import errno
import io
import math
import os
from dataclasses import replace
from pathlib import Path as FilePath
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_samples
from skytrack import augmentation as aug
from skytrack import cli, geometry, learner, metrics, simulator, world
from skytrack.config import RunConfig
from skytrack.geometry import Path

# A fast, downscaled scenario.
CONFIG = RunConfig(
    n_waypoints=9, path_length=20.0, sac_budget=1.0, n_landmarks=30, n_augmented=2, epochs=2,
    hidden_units=16, projection_dim=8, ablation_levels=(1, 2), n_test_sweeps=1, capture_radius=0.4,
)


@pytest.fixture(scope="module")
def scenario():
    """A world, a route, and the dataset, model, flight and report of that route."""
    route = Path([(0.0, 0.0), (6.0, 0.0)], "p")
    landmarks = world.generate_world(CONFIG, world.routes_bounding_box([route], 10.0))
    dataset = aug.build_dataset(route, CONFIG, landmarks)
    model, _ = learner.train(dataset, CONFIG, projection_dim=CONFIG.projection_dim, hidden=CONFIG.hidden_units)
    log = simulator.rollout(simulator.OraclePolicy(), landmarks, route, CONFIG)
    report = metrics.evaluate(route, log)
    return SimpleNamespace(world=landmarks, route=route, dataset=dataset, model=model, log=log, report=report)


def run_command(command, out_dir: FilePath) -> None:
    config = replace(CONFIG, out_dir=str(out_dir))
    if not (out_dir / "world.json").exists():
        cli.cmd_gen(config)
    command(config)


# (file that fails, how to write it into a directory from the scenario), one per writer.
WRITERS = {
    "config.resolved.txt": lambda s, d: cli.write_resolved_config(CONFIG, d / "config.resolved.txt"),
    "path.csv": lambda s, d: geometry.save_path(s.route, d / "path.csv"),
    "d.npz": lambda s, d: aug.save_dataset(s.dataset, d / "d.npz", d / "d.json", s.route.id, CONFIG.n_augmented),
    "d.json": lambda s, d: aug.save_dataset(s.dataset, d / "d.npz", d / "d.json", s.route.id, CONFIG.n_augmented),
    "overlay.svg": lambda s, d: cli.emit_overlay_svg(s.route, s.log, d / "overlay.svg"),
    "line.svg": lambda s, d: cli.emit_line_svg([1, 2], [0.5, 0.25], "t", d / "line.svg"),
    "manifest.json": lambda s, d: run_command(cli.cmd_pipeline, d),
    "manifest.csv": lambda s, d: run_command(cli.cmd_pipeline, d),
    "ablation.csv": lambda s, d: run_command(cli.cmd_ablation, d),
    "world.json": lambda s, d: world.save_world(s.world, d / "world.json"),
    "model.json": lambda s, d: learner.save_model(s.model, d / "model.json"),
    "trajectory.csv": lambda s, d: simulator.save_trajectory(s.log, d / "trajectory.csv"),
    "metrics.json": lambda s, d: metrics.save_report(s.report, d / "metrics.json"),
}


class HalfWritten:
    """A file whose first write writes half its data and then fails, as a
    full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device (injected)")


@pytest.mark.parametrize("name", list(WRITERS))
def test_interrupted_write_leaves_the_previous_file(tmp_path, monkeypatch, scenario, name):
    write, target = WRITERS[name], tmp_path / name
    write(scenario, tmp_path)  # every file the writer makes is there, so a leftover shows
    assert target.exists()
    target.write_bytes(b"previous bytes\n")
    before = sorted(os.listdir(tmp_path))

    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        named = isinstance(file, str | os.PathLike) and os.path.basename(file).startswith(name)
        return HalfWritten(fh) if named and set(mode) & set("wax+") else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)  # pathlib's write_text opens through io.open
    with pytest.raises(OSError, match="injected"):
        write(scenario, tmp_path)
    monkeypatch.undo()
    assert target.read_bytes() == b"previous bytes\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_written_file_has_the_mode_open_gives(tmp_path, scenario):
    umask = os.umask(0)
    os.umask(umask)
    learner.save_model(scenario.model, tmp_path / "model.json")
    assert (tmp_path / "model.json").stat().st_mode & 0o777 == 0o666 & ~umask


MODEL = learner.init_model(0, 6, projection_dim=4, hidden=5)
DATASET = aug.dataset_from_samples(make_samples(np.arange(12.0).reshape(4, 3), np.zeros(4)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: replace(MODEL, w1=np.zeros((5, 3))), r"w1 has shape \(5, 3\), expected \(5, 4\)"),
        (lambda: replace(MODEL, w2=np.array([0.0, math.nan, 0.0, 0.0, 0.0])), "non-finite weight"),
        (lambda: replace(MODEL, feature_std=np.zeros(6)), "feature_std below 1e-08"),
        (lambda: replace(DATASET, feature_std=np.full(3, 1e-9)), "feature_std below 1e-08"),
        (lambda: replace(DATASET, samples=DATASET.samples[:0]), "empty dataset"),
        (lambda: aug.Samples(np.zeros((3, 2)), np.zeros(2)), r"features \(3, 2\) and targets \(2,\) are not"),
        (lambda: aug.Samples(np.zeros(3), np.zeros(3)), r"features \(3,\) and targets \(3,\) are not"),
        (
            lambda: simulator.TrajectoryLog(np.array([[0.0, 0.0, 4.0]]), np.empty(0), np.zeros(1, dtype=np.int64), ""),
            r"step 0: yaw 4.0 outside \(-pi, pi\]",
        ),
        (
            lambda: simulator.TrajectoryLog(np.zeros((2, 3)), np.zeros(1), np.array([1, 0]), ""),
            "step 1: target_index 0 is negative or below the step before",
        ),
    ],
    ids=["model-w1-shape", "model-nan-weight", "model-zero-std", "dataset-std-below-floor", "dataset-no-rows",
         "samples-3-rows-2-targets", "samples-1d-features", "trajectory-yaw-4", "trajectory-falling-target"],
)
def test_a_record_built_directly_is_checked_as_a_loaded_one(build, message):
    """A library caller that builds a model, a dataset or a trajectory gets the
    checks that its loader makes."""
    with pytest.raises(ValueError, match=message):
        build()
