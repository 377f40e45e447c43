"""Synthetic observable environment: a landmark map and a deterministic renderer.

The renderer stands in for an onboard camera. Each landmark carries a fixed
unit-norm signature vector; an observation accumulates signature * intensity
into bearing bins spanning the field of view, with intensity = 1 / (1 + range).
The resulting feature vector is pose-discriminative along a route corridor
without any image rasterization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from . import kernels
from .artifacts import json_floats, json_int, reading, write_text
from .config import RunConfig
from .geometry import Path


def routes_bounding_box(paths: list[Path], margin: float) -> tuple[float, float, float, float]:
    w = np.concatenate([route.waypoints for route in paths])
    (xmin, ymin), (xmax, ymax) = w.min(axis=0).tolist(), w.max(axis=0).tolist()
    return xmin - margin, ymin - margin, xmax + margin, ymax + margin


@dataclass(frozen=True)
class LandmarkWorld:
    """Immutable landmark map: finite, non-empty bounds, at least one landmark,
    finite positions (N, 2) and unit-norm signatures (N, S), S >= 1; anything
    else raises ValueError."""

    positions: np.ndarray
    signatures: np.ndarray
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax, in world.json's order
    seed: int

    def __post_init__(self) -> None:
        xmin, ymin, xmax, ymax = bounds = tuple(map(float, self.bounds))
        object.__setattr__(self, "bounds", bounds)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("non-finite bounds")
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("empty bounds")
        positions, signatures = self.positions, self.signatures
        n = len(positions)
        if n < 1:
            raise ValueError("no landmarks")
        if positions.shape != (n, 2) or signatures.ndim != 2 or signatures.shape[0] != n or signatures.shape[1] < 1:
            raise ValueError(f"positions {positions.shape} and signatures {signatures.shape} do not fit")
        if not np.isfinite(positions).all():
            raise ValueError("non-finite position")
        if not np.all(np.abs(np.linalg.norm(signatures, axis=1) - 1.0) <= 1e-9):
            raise ValueError("signatures are not unit-norm")

    @property
    def signature_dim(self) -> int:
        return int(self.signatures.shape[1])


def generate_world(config: RunConfig, bounds: tuple[float, float, float, float]) -> LandmarkWorld:
    """Seeded world synthesis from ``config.seed``: ``config.n_landmarks`` uniform
    positions in ``bounds``, unit-sphere signatures of ``config.signature_dim``."""
    xmin, ymin, xmax, ymax = bounds
    rng = np.random.default_rng(config.seed)
    positions = np.column_stack(
        [
            rng.uniform(xmin, xmax, size=config.n_landmarks),
            rng.uniform(ymin, ymax, size=config.n_landmarks),
        ]
    )
    # Non-negative orthant of the unit sphere: channels read as intensities.
    signatures = np.abs(rng.normal(size=(config.n_landmarks, config.signature_dim)))
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
    return LandmarkWorld(positions, signatures, bounds, config.seed)


# Poses rendered per block: bounds the (poses x landmarks) temporaries.
_RENDER_BLOCK = 64


def render_observation(world: LandmarkWorld, poses: np.ndarray, config: RunConfig) -> np.ndarray:
    """Render the bearing-binned signature vectors seen from a batch of poses.

    ``poses`` is (P, 3): x, y and yaw per row. Returns (P, bins * S): one
    feature vector per pose, B = ``config.bins`` bearing bins x S signature
    channels, over a field of view (fov) of ``config.fov_deg`` degrees.

    A landmark at relative bearing beta contributes signature / (1 + range),
    split linearly between the two bins whose centers bracket beta, when
    |beta| <= fov / 2, else nothing. The linear split makes the features
    continuous in pose, which the downstream regressor needs to generalize;
    kernel mass falling outside the outermost bin centers stays in the edge
    bin, and anything beyond the FOV contributes exactly 0.

    Poses are rendered in blocks of 64. NumPy computes each block's dx, dy
    and bearings (both ``np.arctan2`` calls, ``np.sin`` and ``np.cos``:
    numpy's trig is not libm's), and ``kernels.load().render`` bins them: a
    bin sums, from 0.0, its lower-bin terms in landmark order, then its
    upper-bin terms in landmark order. Each row's bits do not depend on the
    other rows, so they do not depend on the blocking either: every other
    step is elementwise.
    """
    bins, fov = config.bins, math.radians(config.fov_deg)
    render = kernels.load().render
    signatures = np.ascontiguousarray(world.signatures)  # C reads it row by row
    out = np.empty((poses.shape[0], bins * world.signature_dim))
    for start in range(0, poses.shape[0], _RENDER_BLOCK):
        block = poses[start : start + _RENDER_BLOCK]
        planes = np.empty((3, len(block), len(signatures)))
        dx, dy, beta = planes
        np.subtract(world.positions[:, 0], block[:, 0:1], out=dx)
        np.subtract(world.positions[:, 1], block[:, 1:2], out=dy)
        np.subtract(np.arctan2(dy, dx, out=beta), block[:, 2:3], out=beta)
        np.arctan2(np.sin(beta), np.cos(beta), out=beta)
        render(planes, signatures, bins, fov / 2.0, fov / bins, out[start : start + len(block)])
    return out


def save_world(world: LandmarkWorld, file: FilePath | str) -> None:
    doc = {
        "seed": world.seed,
        "bounds": list(world.bounds),
        "landmarks": [
            {"position": world.positions[i].tolist(), "signature": world.signatures[i].tolist()}
            for i in range(world.positions.shape[0])
        ],
    }
    write_text(file, json.dumps(doc, sort_keys=True, indent=1))


def load_world(file: FilePath | str) -> LandmarkWorld:
    """Read what save_world wrote. A file that does not hold four bounds, an
    integer seed and a world that ``LandmarkWorld`` accepts, all
    as JSON numbers, raises one ValueError naming the file."""
    with reading(file):
        doc = json.loads(FilePath(file).read_text())
        landmarks = doc["landmarks"]
        positions = json_floats([lm["position"] for lm in landmarks])
        signatures = json_floats([lm["signature"] for lm in landmarks])
        box = json_floats(doc["bounds"])
        if box.shape != (4,):
            raise ValueError(f"bounds have shape {box.shape}, expected (4,)")
        return LandmarkWorld(positions, signatures, tuple(box.tolist()), json_int(doc, "seed"))
