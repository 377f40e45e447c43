"""skytrack: waypoint path following with a learned steering regressor.

Generate landmark worlds and waypoint routes, build jitter-augmented training
datasets labeled with yaw-deviation angles, train a frozen-projection + two
layer regression head with Adam on MSE, roll the policy out in a closed-loop
fixed-step simulator, and score trajectories with waypoint-distance and
cross-track metrics.
"""

import os

# BLAS threads only burn CPU on training's small GEMMs: default to one, unless
# the user chose a count through any of these variables. numpy's OpenBLAS
# reads them once, when numpy loads, so this must run before numpy does.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if os.environ.keys().isdisjoint(_THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
