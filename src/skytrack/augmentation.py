"""Training sweeps and dataset construction.

Each path is walked once at fixed step size, always stepping along the exact
bearing to the current target waypoint. Every sweep emits one labeled sample
per step of that walk, so all sweeps have the walk's length. Sweep 0 renders
the walk as it is; jittered sweeps perturb each pose (position and yaw)
before rendering and labeling, so off-path poses carry corrective labels and
the model learns to recover from drift.

Every sweep's RNG stream is derived from (seed, path id, sweep index) via a
numpy SeedSequence feeding PCG64, so datasets are reproducible sweep by sweep.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .config import RunConfig
from .geometry import Path, advance_target, bearing, default_max_steps, target_yaw_delta, wrap_angle
from .world import LandmarkWorld, render_observation

# Held-out evaluation sweeps draw from indices >= this base, so their RNG
# streams can never collide with training sweeps (which use small indices).
TEST_SWEEP_BASE = 1_000_000

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class Samples:
    """Labeled rows as parallel arrays, one entry per row."""

    features: np.ndarray  # (N, D) rendered observations
    targets: np.ndarray  # (N,) yaw-correction labels
    path_id: np.ndarray  # (N,) str
    sweep_index: np.ndarray  # (N,) int64
    step_index: np.ndarray  # (N,) int64

    def __len__(self) -> int:
        return int(self.targets.shape[0])

    def __getitem__(self, rows: slice) -> "Samples":
        return Samples(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __setitem__(self, rows: slice, other: "Samples") -> None:
        for f in fields(self):
            getattr(self, f.name)[rows] = getattr(other, f.name)

    def empty_like(self, n: int) -> "Samples":
        """``n`` uninitialized rows of this sample set's dtypes and widths."""
        arrays = (getattr(self, f.name) for f in fields(self))
        return Samples(*(np.empty((n, *a.shape[1:]), a.dtype) for a in arrays))


@dataclass
class Dataset:
    samples: Samples
    feature_mean: np.ndarray
    feature_std: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.feature_mean.shape[0])


@dataclass(frozen=True)
class Walk:
    """A path walked at fixed step size, one row per step: the pose (x, y,
    yaw) that every sweep perturbs and renders, and the waypoint it steers to."""

    path: Path
    poses: np.ndarray  # (n, 3)
    target: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return int(self.target.shape[0])


def sweep_rng(seed: int, path_id: str, sweep_index: int) -> np.random.Generator:
    """PCG64 stream keyed on (seed, crc32(path id), sweep index)."""
    tag = zlib.crc32(path_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, tag, sweep_index]))


def walk_path(path: Path, config: RunConfig) -> Walk:
    """Step along the exact bearing to the current target waypoint until the
    last one is captured. Jitter moves only the poses a sweep renders and
    labels, never the walk, so every sweep of a path shares this one."""
    wps = path.waypoints.tolist()
    target = advance_target(wps[0], wps, 0, config.capture_radius)
    x, y = wps[0]
    yaw = bearing(wps[0], wps[target]) if target < len(wps) else 0.0
    max_steps = default_max_steps(path, config.step)
    poses: list[tuple[float, float, float]] = []
    targets: list[int] = []
    while target < len(wps):
        if len(poses) == max_steps:
            raise RuntimeError(
                f"path {path.id!r}: waypoint {target} unreachable within {max_steps} steps"
            )
        poses.append((x, y, yaw))
        targets.append(target)
        yaw = bearing((x, y), wps[target])
        x, y = x + config.step * math.cos(yaw), y + config.step * math.sin(yaw)
        target = advance_target((x, y), wps, target, config.capture_radius)
    return Walk(path, np.array(poses, dtype=float).reshape(-1, 3), np.array(targets, dtype=np.int64))


def _render_sweep(
    walk: Walk, config: RunConfig, world: LandmarkWorld, sweep_index: int, poses: np.ndarray
) -> Samples:
    """Render and label ``poses``, one per step of ``walk``."""
    wps = walk.path.waypoints.tolist()
    # One scalar label per row: np.arctan2 differs from math.atan2 in the last bit on some rows.
    targets = [target_yaw_delta(pose, wps[t]) for pose, t in zip(poses.tolist(), walk.target.tolist())]
    n = len(walk)
    return Samples(
        features=render_observation(world, poses, config),
        targets=np.array(targets, dtype=float),
        path_id=np.full(n, walk.path.id),
        sweep_index=np.full(n, sweep_index, dtype=np.int64),
        step_index=np.arange(n, dtype=np.int64),
    )


def sweep_optimal(
    path: Path, config: RunConfig, world: LandmarkWorld
) -> tuple[Walk, Samples]:
    """Walk the path and render sweep 0, the unperturbed demonstration along
    the optimal shortest directions."""
    walk = walk_path(path, config)
    return walk, _render_sweep(walk, config, world, 0, walk.poses)


def sweep_jittered(
    walk: Walk, config: RunConfig, world: LandmarkWorld, sweep_index: int
) -> Samples:
    """The walk with every pose perturbed; labels are recomputed at the
    perturbed pose so the sweep teaches corrective steering."""
    rng = sweep_rng(config.seed, walk.path.id, sweep_index)
    pj, yj = config.pos_jitter, config.yaw_jitter
    # One draw, filled row by row (dx, dy, dyaw): the doubles of three scalar draws per step.
    poses = walk.poses + rng.uniform([-pj, -pj, -yj], [pj, pj, yj], size=(len(walk), 3))
    poses[:, 2] = [wrap_angle(yaw) for yaw in poses[:, 2].tolist()]
    return _render_sweep(walk, config, world, sweep_index, poses)


def fill_sweeps(
    walk: Walk, config: RunConfig, world: LandmarkWorld, samples: Samples, n_train: int, slots: range
) -> None:
    """Render into ``samples``, len(walk) rows per slot, the sweep of each
    slot in ``slots``: slot i < ``n_train`` holds jittered training sweep i,
    and the slots after those hold the held-out test sweeps TEST_SWEEP_BASE,
    TEST_SWEEP_BASE + 1, ... Slot 0, sweep 0, comes with the walk
    (``sweep_optimal``)."""
    n = len(walk)
    for slot in slots:
        index = slot if slot < n_train else TEST_SWEEP_BASE + slot - n_train
        samples[slot * n : (slot + 1) * n] = sweep_jittered(walk, config, world, index)


def training_samples(
    path: Path, config: RunConfig, world: LandmarkWorld, n_sweeps: int
) -> tuple[Walk, Samples]:
    """Sweep 0 (unperturbed) then jittered sweeps 1..n_sweeps-1, each as long
    as the walk, so the first k * len(walk) rows are the first k sweeps."""
    walk, first = sweep_optimal(path, config, world)
    # Filled sweep by sweep: holding every sweep to concatenate them at the
    # end leaves freed blocks that the heap may keep, so the RSS of a later
    # fork would depend on the seed.
    samples = first.empty_like(n_sweeps * len(walk))
    samples[: len(walk)] = first
    fill_sweeps(walk, config, world, samples, n_sweeps, range(1, n_sweeps))
    return walk, samples


def build_dataset(
    path: Path, config: RunConfig, world: LandmarkWorld
) -> Dataset:
    """The n_augmented training sweeps, with normalization statistics fitted
    over all of their samples."""
    return dataset_from_samples(training_samples(path, config, world, config.n_augmented)[1])


def dataset_from_samples(samples: Samples) -> Dataset:
    if not len(samples):
        raise ValueError("empty sample list")
    mean = samples.features.mean(axis=0)
    std = np.maximum(samples.features.std(axis=0), STD_FLOOR)
    return Dataset(samples, mean, std)


def normalize_features(
    mean: np.ndarray, std: np.ndarray, features: np.ndarray
) -> np.ndarray:
    if features.shape[-1] != mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: got {features.shape[-1]}, expected {mean.shape[0]}"
        )
    return (features - mean) / std
