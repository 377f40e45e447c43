"""Training sweeps and dataset construction.

Each path is walked once at fixed step size, always stepping along the exact
bearing to the current target waypoint. Every sweep emits one labeled sample
per step of that walk, so all sweeps have the walk's length. Sweep 0 renders
the walk as it is; jittered sweeps perturb each pose (position and yaw)
before rendering and labeling, so off-path poses carry corrective labels and
the model learns to recover from drift.

Every sweep's RNG stream is derived from (seed, path id, sweep index) via a
numpy SeedSequence feeding PCG64, so datasets are reproducible sweep by sweep.
A dataset file holds the sweeps' rows in this layout, with a sidecar of the
statistics and the sweeps' RNG stream tags (``save_dataset``).
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from .artifacts import json_floats, json_int, reading, write_npz, write_text
from .config import RunConfig
from .geometry import Path, advance_target, bearing, default_max_steps, target_yaw_delta, wrap_angle
from .world import LandmarkWorld, render_observation

# Held-out evaluation sweeps draw from indices >= this base, so their RNG
# streams can never collide with training sweeps (which use small indices).
TEST_SWEEP_BASE = 1_000_000

STD_FLOOR = 1e-8

# Rows per block of the streamed statistics and projection (``row_blocks``).
# A block of 1,280 rows or more keeps the projection off OpenBLAS's SkylakeX
# small-matrix kernel, which sums in another order than one full product: at
# 512 rows it changed the bits for 2 projected features, at 64 rows for 3-12.
_BLOCK_ROWS = 1280


@dataclass(frozen=True)
class Samples:
    """Labeled rows: ``targets[r]`` labels ``features[r]``."""

    features: np.ndarray  # (N, D) rendered observations
    targets: np.ndarray  # (N,) yaw-correction labels

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.targets.shape != self.features.shape[:1]:
            raise ValueError(f"features {self.features.shape} and targets {self.targets.shape} are not (N, D) and (N,)")

    def __len__(self) -> int:
        return int(self.targets.shape[0])

    def __getitem__(self, rows: slice) -> "Samples":
        return Samples(self.features[rows], self.targets[rows])

    def __setitem__(self, rows: slice, other: "Samples") -> None:
        self.features[rows], self.targets[rows] = other.features, other.targets


def check_statistics(mean: np.ndarray, std: np.ndarray, dim: int) -> None:
    """Raise ValueError unless ``mean`` and ``std`` hold ``dim`` finite values, every std >= ``STD_FLOOR``."""
    for key, a in (("feature_mean", mean), ("feature_std", std)):
        if a.shape != (dim,):
            raise ValueError(f"{key} has shape {a.shape}, expected ({dim},)")
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ValueError("non-finite statistic")
    if not (std >= STD_FLOOR).all():
        raise ValueError(f"feature_std below {STD_FLOOR}")


@dataclass
class Dataset:
    samples: Samples
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.samples):
            raise ValueError("empty dataset")
        check_statistics(self.feature_mean, self.feature_std, self.samples.features.shape[1])

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


def sweep_rng(seed: int, route_id: str, sweep: int) -> np.random.Generator:
    """PCG64 stream keyed on (seed, crc32(route id), sweep index)."""
    tag = zlib.crc32(route_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, tag, sweep]))


def walk_path(path: Path, config: RunConfig) -> Walk:
    """Step along the exact bearing to the current target waypoint until the
    last one is captured. Jitter moves only the poses a sweep renders and
    labels, never the walk, so every sweep of a path shares this one."""
    wps = path.waypoints.tolist()
    target = advance_target(wps[0], wps, 0, config.capture_radius)
    if target == len(wps):
        raise ValueError(f"path {path.id!r}: its start captures its last waypoint, so the walk has no step")
    x, y = wps[0]
    yaw = bearing(wps[0], wps[target])
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
    return Walk(path, np.array(poses, dtype=float), np.array(targets, dtype=np.int64))


def _render_sweep(walk: Walk, config: RunConfig, world: LandmarkWorld, poses: np.ndarray) -> Samples:
    """Render and label ``poses``, one per step of ``walk``."""
    wps = walk.path.waypoints.tolist()
    # One scalar label per row: np.arctan2 differs from math.atan2 in the last bit on some rows.
    targets = [target_yaw_delta(pose, wps[t]) for pose, t in zip(poses.tolist(), walk.target.tolist())]
    return Samples(render_observation(world, poses, config), np.array(targets, dtype=float))


def sweep_optimal(
    path: Path, config: RunConfig, world: LandmarkWorld
) -> tuple[Walk, Samples]:
    """Walk the path and render sweep 0, the unperturbed demonstration along
    the optimal shortest directions."""
    walk = walk_path(path, config)
    return walk, _render_sweep(walk, config, world, walk.poses)


def sweep_jittered(walk: Walk, config: RunConfig, world: LandmarkWorld, sweep: int) -> Samples:
    """The walk with every pose perturbed; labels are recomputed at the
    perturbed pose so the sweep teaches corrective steering."""
    rng = sweep_rng(config.seed, walk.path.id, sweep)
    pj, yj = config.pos_jitter, config.yaw_jitter
    # One draw, filled row by row (dx, dy, dyaw): the doubles of three scalar draws per step.
    poses = walk.poses + rng.uniform([-pj, -pj, -yj], [pj, pj, yj], size=(len(walk), 3))
    poses[:, 2] = [wrap_angle(yaw) for yaw in poses[:, 2].tolist()]
    return _render_sweep(walk, config, world, poses)


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


def build_dataset(
    path: Path, config: RunConfig, world: LandmarkWorld
) -> Dataset:
    """The n_augmented training sweeps, sweep 0 (unperturbed) then jittered
    sweeps 1.., each as long as the walk, with normalization statistics
    fitted over all of their samples."""
    walk, first = sweep_optimal(path, config, world)
    # Filled sweep by sweep: holding every sweep to concatenate them at the
    # end leaves freed blocks that the heap may keep, so the RSS of a later
    # fork would depend on the seed.
    n = config.n_augmented * len(walk)
    samples = Samples(np.empty((n, first.features.shape[1])), np.empty(n))
    samples[: len(walk)] = first
    fill_sweeps(walk, config, world, samples, config.n_augmented, range(1, config.n_augmented))
    del first  # its rows are in samples; freed before the statistics' buffer is made
    return dataset_from_samples(samples)


def row_blocks(n: int) -> list[slice]:
    """``range(n)`` as consecutive slices of ``_BLOCK_ROWS`` rows, the last
    one taking the tail: each holds 1,280 to 2,559 rows, and fewer than 2,560
    rows are one block."""
    edges = [*range(0, _BLOCK_ROWS * max(1, n // _BLOCK_ROWS), _BLOCK_ROWS), n]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def dataset_from_samples(samples: Samples) -> Dataset:
    """The samples with their per-feature mean and standard deviation (floored
    at ``STD_FLOOR``), bit for bit ``features.mean(axis=0)`` and
    ``features.std(axis=0)``. The squared deviations are summed block by block
    (``row_blocks``) in one reused buffer of one block plus a row, which
    carries the running sum, so no (N, D) temporary is made: numpy adds the
    rows of a C-contiguous (N, D >= 2) array one after another, and so does
    the running sum. A single column numpy sums pairwise, which blocks cannot
    follow; its temporary is 8 bytes per row."""
    f = samples.features
    mean = f.mean(axis=0)
    if f.shape[1] == 1 or not f.flags.c_contiguous:
        std = f.std(axis=0)
    else:
        blocks = row_blocks(len(f))
        buffer = np.zeros((len(f) - blocks[-1].start + 1, f.shape[1]))  # the last block is the largest
        for rows in blocks:
            d = buffer[1 : rows.stop - rows.start + 1]
            np.subtract(f[rows], mean, out=d)
            np.multiply(d, d, out=d)
            buffer[0] = buffer[: len(d) + 1].sum(axis=0)
        std = np.sqrt(buffer[0] / len(f))
    return Dataset(samples, mean, np.maximum(std, STD_FLOOR))


def normalize_features(
    mean: np.ndarray, std: np.ndarray, features: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``(features - mean) / std``, written into ``out`` when it is given."""
    if features.shape[-1] != mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: got {features.shape[-1]}, expected {mean.shape[0]}"
        )
    x = np.subtract(features, mean, out=out)
    return np.divide(x, std, out=x)


# The arrays of a dataset file, in file order, both float64.
DATASET_ARRAYS = ("features", "targets")


def save_dataset(
    dataset: Dataset, data_file: FilePath | str, sidecar_file: FilePath | str, route_id: str, n_sweeps: int
) -> None:
    """The samples of ``n_sweeps`` equal sweeps of route ``route_id`` as
    exact float64 arrays in one uncompressed ``.npz`` (``features`` (N, D)
    and ``targets`` (N,)) plus a JSON sidecar with the normalization
    statistics and the per-sweep RNG stream tags: row r is of sweep
    r // (N / n_sweeps)."""
    samples = dataset.samples
    write_npz(data_file, {key: getattr(samples, key) for key in DATASET_ARRAYS})
    sidecar = {
        "dim": dataset.dim,
        "n_samples": len(samples),
        "feature_mean": dataset.feature_mean.tolist(),
        "feature_std": dataset.feature_std.tolist(),
        "rng_streams": {str(k): f"crc32({route_id})/{k}" for k in range(n_sweeps)},
    }
    write_text(sidecar_file, json.dumps(sidecar, sort_keys=True))


def load_dataset(data_file: FilePath | str, sidecar_file: FilePath | str) -> Dataset:
    """Read what save_dataset wrote. A file that is unreadable, whose arrays
    are not the file's two, float64, finite and of the sidecar's row count
    and width, whose sidecar statistics are not JSON numbers (null, a boolean
    or a string), or that makes a dataset ``Dataset`` refuses raises one
    ValueError naming it."""
    with reading(data_file, f"bad dataset (sidecar {sidecar_file}): "):
        sidecar = json.loads(FilePath(sidecar_file).read_text())
        with np.load(data_file, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        rows, dim = json_int(sidecar, "n_samples"), json_int(sidecar, "dim")
        for key, shape in zip(DATASET_ARRAYS, [(rows, dim), (rows,)]):
            if key not in arrays:
                raise ValueError(f"missing array {key!r}")
            a = arrays[key]
            if a.dtype != np.float64:
                raise ValueError(f"{key} has dtype {a.dtype}, not float64")
            if a.shape != shape:
                raise ValueError(f"{key} has shape {a.shape}, not {shape}")
            if not np.isfinite(a).all():
                raise ValueError("non-finite values")
        samples = Samples(*(arrays[key] for key in DATASET_ARRAYS))
        return Dataset(samples, json_floats(sidecar["feature_mean"]), json_floats(sidecar["feature_std"]))
