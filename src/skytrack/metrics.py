"""Trajectory scoring.

Three path-following metrics plus the held-out angle MSE:
- mean waypoint minimum distance: closest approach to each waypoint, averaged
  over waypoints.
- mean cross-track distance: for each trajectory sample, distance to the
  segment joining its two closest waypoints (ties broken toward the lower
  index; distance clamped to the endpoints), averaged over the trajectory.
- sum of angle change of the reference path, a difficulty proxy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path as FilePath

import numpy as np

from . import kernels
from .artifacts import write_text
from .augmentation import Samples
from .geometry import Path, point_segment_distance, sum_angle_change
from .learner import RegressorModel
from .simulator import TrajectoryLog


def mean_waypoint_min_distance(path: Path, positions: np.ndarray) -> float:
    """Average over waypoints of the minimum distance to any trajectory
    point; positions is (T, 2)."""
    if not len(positions):
        raise ValueError("empty trajectory")
    w = path.waypoints
    d = np.linalg.norm(w[:, None, :] - positions[None, :, :], axis=2)
    return float(d.min(axis=1).mean())


def mean_cross_track_distance(path: Path, positions: np.ndarray) -> float:
    """Average point-to-segment distance to the segment between each of the
    (T, 2) positions' two closest waypoints."""
    if not len(positions):
        raise ValueError("empty trajectory")
    w = path.waypoints
    d = np.hypot(w[None, :, 0] - positions[:, 0:1], w[None, :, 1] - positions[:, 1:2])
    nearest = np.argsort(d, axis=1, kind="stable")[:, :2].tolist()
    wps = w.tolist()
    total = 0.0
    # Scalar distances summed in order: math.hypot and np.hypot may differ in the last bit.
    for p, (i, j) in zip(positions.tolist(), nearest):
        total += point_segment_distance(p, wps[i], wps[j])
    return total / len(positions)


def angle_mse(model: RegressorModel, test_set: Samples) -> float:
    """Mean squared error of the raw (unwrapped) predictions on labeled
    samples. ``kernels.load().forward`` predicts each row alone, as
    ``learner.predict`` does; the squared errors are summed here, in row order."""
    if not len(test_set):
        raise ValueError("empty test set")
    weights = (model.projection, model.w1, model.b1, model.w2, model.b2)
    predictions = kernels.load().forward(test_set.features, model.feature_mean, model.feature_std, *weights)
    sse = 0.0
    for prediction, target in zip(predictions.tolist(), test_set.targets.tolist()):
        sse += (prediction - target) ** 2
    return sse / len(test_set)


@dataclass
class MetricsReport:
    path_id: str
    mwmd: float
    mctd: float
    sac: float
    termination: str
    angle_mse: float | None = None


def evaluate(path: Path, trajectory: TrajectoryLog) -> MetricsReport:
    """Bundle the three trajectory metrics; ``angle_mse`` is left None for
    a caller that holds a labeled test set to fill in."""
    return MetricsReport(
        path_id=path.id,
        mwmd=mean_waypoint_min_distance(path, trajectory.poses[:, :2]),
        mctd=mean_cross_track_distance(path, trajectory.poses[:, :2]),
        sac=sum_angle_change(path),
        termination=trajectory.termination,
    )


def save_report(report: MetricsReport, file: FilePath | str) -> None:
    write_text(file, json.dumps(asdict(report), sort_keys=True, indent=1))
