"""Planar geometry: wrapped angles, bearings, waypoint paths, and path statistics.

Convention: angles are radians in the half-open interval (-pi, pi],
counterclockwise positive, 0 along the +x axis. All distances are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_angle(raw: float) -> float:
    """Normalize an angle to (-pi, pi]. Idempotent; raises on non-finite input."""
    if not math.isfinite(raw):
        raise ValueError("non-finite angle")
    wrapped = math.remainder(raw, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Point2:
    """A position in world coordinates (meters)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


def distance(a: Point2, b: Point2) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def bearing(origin: Point2, target: Point2) -> float:
    """Direction from origin to target, wrapped. Raises on coincident points."""
    if origin.x == target.x and origin.y == target.y:
        raise ValueError("degenerate bearing")
    return wrap_angle(math.atan2(target.y - origin.y, target.x - origin.x))


@dataclass(frozen=True)
class Pose:
    """Position plus heading yaw. Yaw is wrapped on construction."""

    position: Point2
    yaw: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


@dataclass(frozen=True)
class Path:
    """An ordered waypoint sequence. At least two waypoints, no zero-length segments."""

    waypoints: tuple[Point2, ...]
    id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if len(self.waypoints) < 2:
            raise ValueError("path requires length >= 2")
        for i in range(len(self.waypoints) - 1):
            a, b = self.waypoints[i], self.waypoints[i + 1]
            if a.x == b.x and a.y == b.y:
                raise ValueError(f"zero-length segment at waypoint {i}")


def target_yaw_delta(pose: Pose, next_waypoint: Point2) -> float:
    """Wrapped rotation that points the heading exactly at the next waypoint.

    This is the regression label: adding the result to pose.yaw yields the
    bearing from pose.position to next_waypoint.
    """
    return wrap_angle(bearing(pose.position, next_waypoint) - pose.yaw)


def path_length(path: Path) -> float:
    """Total length: sum of Euclidean distances between successive waypoints."""
    wps = path.waypoints
    return sum(distance(wps[i], wps[i + 1]) for i in range(len(wps) - 1))


def sum_angle_change(path: Path) -> float:
    """Accumulated absolute wrapped change in segment heading along the path.

    Paths with fewer than three waypoints have no heading change and score 0.
    Absolute values are used so turns in opposite directions do not cancel.
    """
    wps = path.waypoints
    if len(wps) < 3:
        return 0.0
    headings = [bearing(wps[i], wps[i + 1]) for i in range(len(wps) - 1)]
    return sum(
        abs(wrap_angle(headings[i + 1] - headings[i]))
        for i in range(len(headings) - 1)
    )


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Distance from p to the segment [a, b], clamped to the endpoints."""
    ax, ay = b.x - a.x, b.y - a.y
    seg_sq = ax * ax + ay * ay
    if seg_sq == 0.0:
        return distance(p, a)
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / seg_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (a.x + t * ax), p.y - (a.y + t * ay))


def advance_target(
    position: Point2, waypoints: tuple[Point2, ...], current_index: int, capture_radius: float
) -> int:
    """Advance the target index past every consecutively captured waypoint.

    Capture is inclusive at the radius. The index never decrements and may
    reach len(waypoints), meaning the final waypoint has been captured.
    """
    i = current_index
    while i < len(waypoints) and distance(position, waypoints[i]) <= capture_radius:
        i += 1
    return i


def default_max_steps(path: Path, step: float) -> int:
    """Step budget of one walk along a path: three times its length."""
    return math.ceil(3.0 * path_length(path) / step)
