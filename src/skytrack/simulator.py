"""Closed-loop rollout engine.

Each tick: render an observation, ask the policy for a yaw delta, rotate,
then translate one fixed step along the new heading. The target waypoint
advances whenever the drone enters its capture radius.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import NamedTuple

import numpy as np

from . import learner
from .geometry import (
    Path,
    Point2,
    Pose,
    advance_target,
    bearing,
    default_max_steps,
    target_yaw_delta,
    wrap_angle,
)
from .world import LandmarkWorld, render_observation

COMPLETED = "completed"
MAX_STEPS = "max_steps"
DIVERGED = "diverged"


class PrivilegedState(NamedTuple):
    """Ground-truth state handed only to privileged policies."""

    pose: Pose
    target_waypoint: Point2


class OraclePolicy:
    """Privileged policy: always commands the exact rotation toward the target."""

    def command(self, observation: np.ndarray, privileged: PrivilegedState) -> float:
        return target_yaw_delta(privileged.pose, privileged.target_waypoint)


class ModelPolicy:
    """Wraps a trained regressor; sees only the observation, never the state.

    The commanded rotation is the predicted yaw delta scaled by a damping
    gain. Applying the full prediction every tick feeds the regressor's
    noise straight into the heading and destabilizes the loop; a gain below
    one low-passes the correction while leaving the steady-state unchanged.
    """

    def __init__(self, model, gain: float = 0.2):
        if not (0.0 < gain <= 1.0):
            raise ValueError("gain must lie in (0, 1]")
        self.model = model
        self.gain = gain

    def command(self, observation: np.ndarray, privileged: PrivilegedState) -> float:
        return self.gain * learner.predict(self.model, observation)


@dataclass
class TrajectoryLog:
    """Timestamped record of one rollout."""

    poses: list[Pose]
    commands: list[float]
    target_indices: list[int]
    path_id: str
    termination: str

    @property
    def positions(self) -> list[Point2]:
        return [p.position for p in self.poses]


def rollout(
    policy, world: LandmarkWorld, path: Path, config, max_steps: int | None = None
) -> TrajectoryLog:
    """Run one closed-loop episode from the head of the path.

    config provides step, capture_radius, bins, and fov (see AugmentationConfig).
    Terminates on final-waypoint capture, step budget exhaustion, a non-finite
    command, or leaving the world bounds by more than a 10% margin.
    """
    wps = path.waypoints
    step = config.step
    if max_steps is None:
        max_steps = default_max_steps(path, step)
    guard = world.bounds.inflated(0.1 * world.bounds.width, 0.1 * world.bounds.height)

    target = advance_target(wps[0], wps, 0, config.capture_radius)
    if target >= len(wps):
        return TrajectoryLog([Pose(wps[0], 0.0)], [], [target], path.id, COMPLETED)
    pose = Pose(wps[0], bearing(wps[0], wps[target]))

    poses = [pose]
    commands: list[float] = []
    target_indices = [target]
    termination = MAX_STEPS
    for _ in range(max_steps):
        xy_yaw = np.array([[pose.position.x, pose.position.y, pose.yaw]])
        obs = render_observation(world, xy_yaw, config.bins, config.fov)[0]
        delta = policy.command(obs, PrivilegedState(pose, wps[target]))
        if not math.isfinite(delta):
            termination = DIVERGED
            break
        yaw = wrap_angle(pose.yaw + delta)
        pos = Point2(
            pose.position.x + step * math.cos(yaw),
            pose.position.y + step * math.sin(yaw),
        )
        pose = Pose(pos, yaw)
        poses.append(pose)
        commands.append(delta)
        target = advance_target(pos, wps, target, config.capture_radius)
        target_indices.append(target)
        if target >= len(wps):
            termination = COMPLETED
            break
        if not guard.contains(pos.x, pos.y):
            termination = DIVERGED
            break
    return TrajectoryLog(poses, commands, target_indices, path.id, termination)


TRAJECTORY_COLUMNS = ["step", "x", "y", "yaw", "command", "target_index"]


def save_trajectory(log: TrajectoryLog, file: FilePath | str) -> None:
    """Write one row per pose; the command column is the delta that produced it."""
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for i, pose in enumerate(log.poses):
            cmd = "" if i == 0 else repr(log.commands[i - 1])
            writer.writerow(
                [i, repr(pose.position.x), repr(pose.position.y), repr(pose.yaw), cmd, log.target_indices[i]]
            )


def load_trajectory(file: FilePath | str, path_id: str = "", termination: str = "") -> TrajectoryLog:
    """Read what save_trajectory wrote. A wrong header, a row with the wrong
    column count or an unparsable value raises one ValueError naming the
    file."""
    poses: list[Pose] = []
    commands: list[float] = []
    target_indices: list[int] = []
    try:
        with open(file, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{file}: {exc}") from exc
    header = rows[0] if rows else None
    if header != TRAJECTORY_COLUMNS:
        raise ValueError(f"{file}: unexpected trajectory header: {header}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(TRAJECTORY_COLUMNS):
            raise ValueError(f"{file}: row {line} has {len(row)} columns, expected {len(TRAJECTORY_COLUMNS)}")
        try:
            poses.append(Pose(Point2(float(row[1]), float(row[2])), float(row[3])))
            if row[4] != "":
                commands.append(float(row[4]))
            target_indices.append(int(row[5]))
        except ValueError as exc:
            raise ValueError(f"{file}: row {line}: {exc}") from exc
    return TrajectoryLog(poses, commands, target_indices, path_id, termination)
