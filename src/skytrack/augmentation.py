"""Training sweeps and dataset construction.

A sweep walks a path at fixed step size, always stepping along the exact
bearing to the current target waypoint, and emits one labeled sample per
step. Jittered sweeps perturb each emitted pose (position and yaw) before
rendering and labeling, so off-path poses carry corrective labels and the
model learns to recover from drift.

Every sweep's RNG stream is derived from (seed, path id, sweep index) via a
numpy SeedSequence feeding PCG64, so datasets are reproducible sweep by sweep.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Path,
    Point2,
    Pose,
    advance_target,
    bearing,
    default_max_steps,
    target_yaw_delta,
)
from .world import LandmarkWorld, Observation, render_observation

# Held-out evaluation sweeps draw from indices >= this base, so their RNG
# streams can never collide with training sweeps (which use small indices).
TEST_SWEEP_BASE = 1_000_000

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class AugmentationConfig:
    n_augmented: int = 16
    pos_jitter: float = 1.0
    yaw_jitter: float = 0.1
    step: float = 0.2
    capture_radius: float = 2.0
    seed: int = 0
    bins: int = 32
    fov: float = math.pi / 2.0

    def __post_init__(self) -> None:
        if self.pos_jitter < 0 or self.yaw_jitter < 0:
            raise ValueError("jitters must be >= 0")
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.capture_radius < self.step:
            raise ValueError("capture_radius must be >= step")


@dataclass(frozen=True)
class Sample:
    observation: Observation
    target: float
    meta: tuple[str, int, int]  # (path id, sweep index, step index)


@dataclass
class Dataset:
    samples: list[Sample]
    feature_mean: np.ndarray
    feature_std: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.feature_mean.shape[0])

    def features(self) -> np.ndarray:
        return np.array([s.observation.features for s in self.samples])

    def targets(self) -> np.ndarray:
        return np.array([s.target for s in self.samples])


def sweep_rng(seed: int, path_id: str, sweep_index: int) -> np.random.Generator:
    """PCG64 stream keyed on (seed, crc32(path id), sweep index)."""
    tag = zlib.crc32(path_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, tag, sweep_index]))


def _walk(
    path: Path,
    config: AugmentationConfig,
    world: LandmarkWorld,
    rng: np.random.Generator | None,
    sweep_index: int,
) -> tuple[list[Pose], list[Sample]]:
    wps = path.waypoints
    target = advance_target(wps[0], wps, 0, config.capture_radius)
    if target >= len(wps):
        return [], []
    pose = Pose(wps[0], bearing(wps[0], wps[target]))
    max_steps = default_max_steps(path, config.step)

    poses: list[Pose] = []
    samples: list[Sample] = []
    for step_index in range(max_steps):
        if rng is None:
            sample_pose = pose
        else:
            # Fixed draw order per sample: dx, dy, dyaw.
            dx = rng.uniform(-config.pos_jitter, config.pos_jitter)
            dy = rng.uniform(-config.pos_jitter, config.pos_jitter)
            dyaw = rng.uniform(-config.yaw_jitter, config.yaw_jitter)
            sample_pose = Pose(
                Point2(pose.position.x + dx, pose.position.y + dy),
                pose.yaw + dyaw,
            )
        label = target_yaw_delta(sample_pose, wps[target])
        obs = render_observation(world, sample_pose, config.bins, config.fov)
        poses.append(pose)
        samples.append(Sample(obs, label, (path.id, sweep_index, step_index)))

        heading = bearing(pose.position, wps[target])
        pos = Point2(
            pose.position.x + config.step * math.cos(heading),
            pose.position.y + config.step * math.sin(heading),
        )
        pose = Pose(pos, heading)
        target = advance_target(pos, wps, target, config.capture_radius)
        if target >= len(wps):
            poses.append(pose)
            return poses, samples
    raise RuntimeError(
        f"path {path.id!r}: waypoint {target} unreachable within {max_steps} steps"
    )


def sweep_optimal(
    path: Path, config: AugmentationConfig, world: LandmarkWorld
) -> tuple[list[Pose], list[Sample]]:
    """Unperturbed demonstration sweep along the optimal shortest directions."""
    return _walk(path, config, world, rng=None, sweep_index=0)


def sweep_jittered(
    path: Path, config: AugmentationConfig, world: LandmarkWorld, sweep_index: int
) -> list[Sample]:
    """Optimal walk with per-sample pose perturbation; labels recomputed at the
    perturbed pose so the sweep teaches corrective steering."""
    rng = sweep_rng(config.seed, path.id, sweep_index)
    _, samples = _walk(path, config, world, rng=rng, sweep_index=sweep_index)
    return samples


def sweep_samples(
    path: Path, config: AugmentationConfig, world: LandmarkWorld, sweep_index: int
) -> list[Sample]:
    """The samples of training sweep ``sweep_index``: sweep 0 is the
    unperturbed one, every later sweep is jittered."""
    if sweep_index == 0:
        return sweep_optimal(path, config, world)[1]
    return sweep_jittered(path, config, world, sweep_index)


def build_dataset(
    path: Path, config: AugmentationConfig, world: LandmarkWorld
) -> Dataset:
    """Concatenate sweep 0 (unperturbed) plus n_augmented - 1 jittered sweeps
    and fit the normalization statistics over all samples."""
    if config.n_augmented < 1:
        raise ValueError("n_augmented must be >= 1")
    samples: list[Sample] = []
    for sweep_index in range(config.n_augmented):
        samples.extend(sweep_samples(path, config, world, sweep_index))
    return dataset_from_samples(samples)


def dataset_from_samples(samples: list[Sample]) -> Dataset:
    if not samples:
        raise ValueError("empty sample list")
    features = np.array([s.observation.features for s in samples])
    mean = features.mean(axis=0)
    std = np.maximum(features.std(axis=0), STD_FLOOR)
    return Dataset(samples, mean, std)


def normalize_features(
    mean: np.ndarray, std: np.ndarray, features: np.ndarray
) -> np.ndarray:
    if features.shape[-1] != mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: got {features.shape[-1]}, expected {mean.shape[0]}"
        )
    return (features - mean) / std
