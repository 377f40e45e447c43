"""Planar geometry: wrapped angles, bearings, waypoint paths and their
statistics, the seeded route a config makes, and the route file format.

Convention: angles are radians in the half-open interval (-pi, pi],
counterclockwise positive, 0 along the +x axis. All distances are meters.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from .artifacts import read_csv, reading, write_csv
from .config import RunConfig

TWO_PI = 2.0 * math.pi


def wrap_angle(raw: float) -> float:
    """Normalize an angle to (-pi, pi]. Idempotent; raises on non-finite input."""
    if not math.isfinite(raw):
        raise ValueError("non-finite angle")
    wrapped = math.remainder(raw, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def distance(a, b) -> float:
    """Euclidean distance between the (x, y) points ``a`` and ``b``."""
    return math.hypot(b[0] - a[0], b[1] - a[1])


def bearing(origin, target) -> float:
    """Direction from the point ``origin`` to ``target``, wrapped; each is
    read as its first two entries, x and y. Raises on coincident points."""
    if origin[0] == target[0] and origin[1] == target[1]:
        raise ValueError("degenerate bearing")
    return wrap_angle(math.atan2(target[1] - origin[1], target[0] - origin[0]))


@dataclass(frozen=True, eq=False)
class Path:
    """An ordered waypoint sequence, held as a read-only (W, 2) float64 array
    of finite rows. At least two waypoints, no zero-length segments."""

    waypoints: np.ndarray
    id: str

    def __post_init__(self) -> None:
        w = np.array(self.waypoints, dtype=float)
        if len(w) < 2:
            raise ValueError("path requires length >= 2")
        if w.ndim != 2 or w.shape[1] != 2:
            raise ValueError(f"waypoints must be (W, 2), not {w.shape}")
        bad = np.flatnonzero(~np.isfinite(w).all(axis=1))
        if len(bad):
            raise ValueError(f"non-finite waypoint {bad[0]}")
        same = np.flatnonzero((w[1:] == w[:-1]).all(axis=1))
        if len(same):
            raise ValueError(f"zero-length segment at waypoint {same[0]}")
        w.setflags(write=False)
        object.__setattr__(self, "waypoints", w)


def target_yaw_delta(pose, next_waypoint) -> float:
    """Wrapped rotation that points the heading exactly at the next waypoint.

    This is the regression label: adding the result to the yaw of ``pose``,
    (x, y, yaw), yields the bearing from its position to ``next_waypoint``.
    """
    return wrap_angle(bearing(pose, next_waypoint) - pose[2])


def path_length(path: Path) -> float:
    """Total length: sum of Euclidean distances between successive waypoints."""
    wps = path.waypoints.tolist()
    return sum(distance(a, b) for a, b in zip(wps, wps[1:]))


def sum_angle_change(path: Path) -> float:
    """Accumulated absolute wrapped change in segment heading along the path.

    Paths with fewer than three waypoints have no heading change and score 0.
    Absolute values are used so turns in opposite directions do not cancel.
    """
    wps = path.waypoints.tolist()
    headings = [bearing(a, b) for a, b in zip(wps, wps[1:])]
    return sum((abs(wrap_angle(b - a)) for a, b in zip(headings, headings[1:])), 0.0)


def point_segment_distance(p, a, b) -> float:
    """Distance from the (x, y) point p to the segment [a, b], clamped to the endpoints."""
    ax, ay = b[0] - a[0], b[1] - a[1]
    seg_sq = ax * ax + ay * ay
    if seg_sq == 0.0:
        return distance(p, a)
    t = ((p[0] - a[0]) * ax + (p[1] - a[1]) * ay) / seg_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - (a[0] + t * ax), p[1] - (a[1] + t * ay))


def advance_target(position, waypoints, current_index: int, capture_radius: float) -> int:
    """Advance the target index past every consecutively captured waypoint
    of the (x, y) rows ``waypoints``.

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


def generate_route(config: RunConfig, path_id: str) -> Path:
    """Seeded random walk with a turn budget, all read from ``config``.

    Interior turns all have magnitude sac_budget / (n_waypoints - 2) with
    random signs, so the realized sum of angle change equals the budget
    exactly (``RunConfig`` keeps each turn below pi).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, zlib.crc32(path_id.encode("utf-8"))])
    )
    n_segments = config.n_waypoints - 1
    turn = 0.0 if config.n_waypoints < 3 else config.sac_budget / (config.n_waypoints - 2)
    seg = config.path_length / n_segments
    heading = float(rng.uniform(-math.pi, math.pi))
    x, y = 0.0, 0.0
    points = [(x, y)]
    for i in range(n_segments):
        if i > 0:
            heading = wrap_angle(heading + turn * (1.0 if rng.random() < 0.5 else -1.0))
        x += seg * math.cos(heading)
        y += seg * math.sin(heading)
        points.append((x, y))
    return Path(points, path_id)


def save_path(route: Path, file: FilePath | str) -> None:
    write_csv(file, ["x", "y"], ([repr(x), repr(y)] for x, y in route.waypoints.tolist()))


def load_path(file: FilePath | str) -> Path:
    """Read what save_path wrote, as the path named by the file's stem. A
    file that does not hold at least two finite waypoints, no two equal in
    a row, raises one ValueError naming it."""
    points: list[tuple[float, float]] = []
    with reading(file):
        for lineno, row in enumerate(read_csv(file, ["x", "y"]), start=2):
            try:
                x, y = map(float, row)
            except ValueError as exc:  # a count other than 2 too
                raise ValueError(f"malformed row at line {lineno}: {exc}") from exc
            points.append((x, y))
        return Path(points, FilePath(file).stem)
