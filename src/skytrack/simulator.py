"""Closed-loop rollout engine.

Each tick: render an observation, ask the policy for a yaw delta, rotate,
then translate one fixed step along the new heading. The target waypoint
advances whenever the drone enters its capture radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from . import learner
from .artifacts import read_csv, reading, write_csv
from .config import RunConfig
from .geometry import Path, advance_target, bearing, default_max_steps, target_yaw_delta, wrap_angle
from .world import LandmarkWorld, render_observation

COMPLETED = "completed"
MAX_STEPS = "max_steps"
DIVERGED = "diverged"


class OraclePolicy:
    """Privileged policy: always commands the exact rotation from ``pose``,
    (x, y, yaw), toward the target waypoint (x, y)."""

    def command(self, observation: np.ndarray, pose, target) -> float:
        return target_yaw_delta(pose, target)


class ModelPolicy:
    """Wraps a trained regressor; sees only the observation, never the pose
    or the target.

    The commanded rotation is the predicted yaw delta scaled by the damping
    gain ``config.command_gain``. The full prediction every tick feeds the
    regressor's noise straight into the heading and destabilizes the loop; a
    gain below one low-passes the correction, leaving the steady-state unchanged.
    """

    def __init__(self, model, config: RunConfig):
        self.model = model
        self.gain = config.command_gain

    def command(self, observation: np.ndarray, pose, target) -> float:
        return self.gain * learner.predict(self.model, observation)


@dataclass
class TrajectoryLog:
    """Record of one rollout, one row per step. ``__post_init__`` refuses a log without
    poses, or with a step that breaks a rule, naming that step and its bad value."""

    poses: np.ndarray  # (n, 3) x, y, yaw
    commands: np.ndarray  # (n - 1,) the yaw delta that produced each pose after the first
    targets: np.ndarray  # (n,) int64 index of the target waypoint
    termination: str

    def __post_init__(self) -> None:
        if not len(self.poses):
            raise ValueError("no poses")
        targets = self.targets.tolist()
        rows = zip(self.poses.tolist(), [0.0, *self.commands.tolist()], targets, strict=True)  # no command at step 0
        for step, ((x, y, yaw), command, target) in enumerate(rows):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"step {step}: non-finite position ({x!r}, {y!r})")
            if not math.isfinite(command):
                raise ValueError(f"step {step}: non-finite command {command!r}")
            if not -math.pi < yaw <= math.pi:
                raise ValueError(f"step {step}: yaw {yaw!r} outside (-pi, pi]")
            if target < (targets[step - 1] if step else 0):
                raise ValueError(f"step {step}: target_index {target} is negative or below the step before")


def rollout(
    policy, world: LandmarkWorld, path: Path, config: RunConfig, max_steps: int | None = None
) -> TrajectoryLog:
    """Run one closed-loop episode from the head of the path.

    Terminates on final-waypoint capture, step budget exhaustion, a non-finite
    command, or leaving the world bounds by more than a 10% margin.
    """
    wps = path.waypoints.tolist()
    step = config.step
    if max_steps is None:
        max_steps = default_max_steps(path, step)
    guard = world.bounds.inflated(0.1 * world.bounds.width, 0.1 * world.bounds.height)

    target = advance_target(wps[0], wps, 0, config.capture_radius)
    x, y = wps[0]
    yaw = bearing(wps[0], wps[target]) if target < len(wps) else 0.0
    poses = np.empty((max_steps + 1, 3))
    commands = np.empty(max_steps)
    targets = np.empty(max_steps + 1, dtype=np.int64)
    poses[0], targets[0] = (x, y, yaw), target
    n, termination = 1, MAX_STEPS if target < len(wps) else COMPLETED
    while termination == MAX_STEPS and n <= max_steps:
        obs = render_observation(world, poses[n - 1 : n], config)[0]
        delta = policy.command(obs, (x, y, yaw), wps[target])
        if not math.isfinite(delta):
            termination = DIVERGED
            break
        yaw = wrap_angle(yaw + delta)
        x, y = x + step * math.cos(yaw), y + step * math.sin(yaw)
        target = advance_target((x, y), wps, target, config.capture_radius)
        poses[n], commands[n - 1], targets[n] = (x, y, yaw), delta, target
        n += 1
        if target >= len(wps):
            termination = COMPLETED
            break
        if not guard.contains(x, y):
            termination = DIVERGED
            break
    return TrajectoryLog(poses[:n], commands[: n - 1], targets[:n], termination)


TRAJECTORY_COLUMNS = ["step", "x", "y", "yaw", "command", "target_index"]


def save_trajectory(log: TrajectoryLog, file: FilePath | str) -> None:
    """Write one row per pose; the command column is the delta that produced it."""
    commands = [""] + [repr(c) for c in log.commands.tolist()]
    rows = enumerate(zip(log.poses.tolist(), commands, log.targets.tolist()))
    write_csv(file, TRAJECTORY_COLUMNS, ([i, repr(x), repr(y), repr(yaw), cmd, t] for i, ((x, y, yaw), cmd, t) in rows))


def load_trajectory(file: FilePath | str, termination: str = "") -> TrajectoryLog:
    """Read what save_trajectory wrote: the header, then rows whose ``step`` counts
    from 0, with a command on every row but the first. Anything else, or a log
    that ``TrajectoryLog`` refuses, raises one ValueError naming the file."""
    poses: list[tuple[float, float, float]] = []
    commands: list[float] = []
    targets: list[int] = []
    with reading(file):
        for step, row in enumerate(read_csv(file, TRAJECTORY_COLUMNS)):
            if len(row) != len(TRAJECTORY_COLUMNS):
                raise ValueError(f"row {step + 2} has {len(row)} columns, expected {len(TRAJECTORY_COLUMNS)}")
            try:
                if int(row[0]) != step:
                    raise ValueError(f"step {row[0]}, expected {step}")
                if (row[4] == "") != (step == 0):
                    raise ValueError("the command must be empty on the first row and only there")
                poses.append((float(row[1]), float(row[2]), float(row[3])))
                if step:
                    commands.append(float(row[4]))
                targets.append(int(row[5]))
            except ValueError as exc:
                raise ValueError(f"row {step + 2}: {exc}") from exc
        return TrajectoryLog(np.array(poses), np.array(commands), np.array(targets, dtype=np.int64), termination)
