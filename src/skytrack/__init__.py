"""skytrack: waypoint path following with a learned steering regressor.

Generate landmark worlds and waypoint routes, build jitter-augmented training
datasets labeled with yaw-deviation angles, train a frozen-projection + two
layer regression head with Adam on MSE, roll the policy out in a closed-loop
fixed-step simulator, and score trajectories with waypoint-distance and
cross-track metrics.
"""

import os
import sys


def _blas_threads(environ) -> int:
    """Threads OpenBLAS runs under these variables: the first positive
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, else one per usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    if hasattr(os, "sched_getaffinity"):  # Linux; importing must work elsewhere too
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# numpy's OpenBLAS reads the variables once, when numpy loads; if it loaded
# before this module, the default below comes too late to count.
_seen_by_blas = dict(os.environ) if "numpy" in sys.modules else None
# BLAS threads only burn CPU on training's small GEMMs: default to one before
# numpy loads, unless the user chose a count through any of these variables.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if os.environ.keys().isdisjoint(_THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
# BLAS threads per process, which sizes the ablation's worker count.
BLAS_THREADS = _blas_threads(os.environ if _seen_by_blas is None else _seen_by_blas)

from .geometry import (
    Path,
    Point2,
    Pose,
    path_length,
    sum_angle_change,
    target_yaw_delta,
    wrap_angle,
)
from .world import LandmarkWorld, Rect, generate_world, render_observation

__all__ = [
    "Path",
    "Point2",
    "Pose",
    "path_length",
    "sum_angle_change",
    "target_yaw_delta",
    "wrap_angle",
    "LandmarkWorld",
    "Rect",
    "generate_world",
    "render_observation",
]
