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
from .augmentation import Samples, normalize_features
from .geometry import Path, point_segment_distance, sum_angle_change
from .learner import RegressorModel, predict_raw
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
    """Mean squared error of the raw (unwrapped) predictions on labeled samples.

    Each row is predicted alone, as ``predict_raw`` predicts one row:
    OpenBLAS routes a one-row product to another kernel than a batch, and a
    batched forward changes the last bits. The C forward of
    ``kernels.load().forward`` runs every row in one call, with the BLAS
    calls numpy makes for one row; where it cannot (see there), or without
    it, a NumPy loop calls ``predict_raw`` row by row. Both give the same
    bits, and the squared errors are summed here, in row order."""
    if not len(test_set):
        raise ValueError("empty test set")
    mean, std, forward = model.feature_mean, model.feature_std, kernels.load().forward
    weights = (model.projection, model.w1, model.b1, model.w2, model.b2)
    raw = None if forward is None else forward(test_set.features, mean, std, *weights)
    if raw is None:
        rows = (normalize_features(mean, std, features).reshape(1, -1) for features in test_set.features)
        predictions = [float(predict_raw(model, x)[0]) for x in rows]
    else:
        predictions = raw.tolist()
    sse = 0.0
    for prediction, target in zip(predictions, test_set.targets.tolist()):
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


def evaluate(
    path: Path,
    trajectory: TrajectoryLog,
    test_set: Samples | None = None,
    model: RegressorModel | None = None,
) -> MetricsReport:
    """Bundle the three trajectory metrics, plus angle MSE when a labeled
    test set and model are supplied."""
    mse = angle_mse(model, test_set) if test_set is not None and model is not None else None
    return MetricsReport(
        path_id=path.id,
        mwmd=mean_waypoint_min_distance(path, trajectory.poses[:, :2]),
        mctd=mean_cross_track_distance(path, trajectory.poses[:, :2]),
        sac=sum_angle_change(path),
        termination=trajectory.termination,
        angle_mse=mse,
    )


def save_report(report: MetricsReport, file: FilePath | str) -> None:
    write_text(file, json.dumps(asdict(report), sort_keys=True, indent=1))
