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


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in world coordinates."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.xmax, self.ymax))):
            raise ValueError("non-finite bounds")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("empty bounds")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def inflated(self, margin_x: float, margin_y: float) -> "Rect":
        return Rect(
            self.xmin - margin_x,
            self.ymin - margin_y,
            self.xmax + margin_x,
            self.ymax + margin_y,
        )

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


def routes_bounding_box(paths: list[Path], margin: float) -> Rect:
    w = np.concatenate([route.waypoints for route in paths])
    (xmin, ymin), (xmax, ymax) = w.min(axis=0).tolist(), w.max(axis=0).tolist()
    return Rect(xmin - margin, ymin - margin, xmax + margin, ymax + margin)


@dataclass(frozen=True)
class LandmarkWorld:
    """Immutable landmark map: at least one landmark, finite positions (N, 2)
    and unit-norm signatures (N, S), S >= 1; anything else raises ValueError."""

    positions: np.ndarray
    signatures: np.ndarray
    bounds: Rect
    seed: int

    def __post_init__(self) -> None:
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


def generate_world(config: RunConfig, bounds: Rect) -> LandmarkWorld:
    """Seeded world synthesis from ``config.seed``: ``config.n_landmarks`` uniform
    positions in ``bounds``, unit-sphere signatures of ``config.signature_dim``."""
    rng = np.random.default_rng(config.seed)
    positions = np.column_stack(
        [
            rng.uniform(bounds.xmin, bounds.xmax, size=config.n_landmarks),
            rng.uniform(bounds.ymin, bounds.ymax, size=config.n_landmarks),
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
    numpy's trig is not libm's). The per-pair rest runs in the C loop of
    ``kernels.load().render``, or, without it, in NumPy with one
    ``np.bincount`` per block; both do the same IEEE operations in the same
    order, so they give the same bits: a bin sums, from 0.0, its lower-bin
    terms in landmark order, then its upper-bin terms in landmark order.
    Each row's bits do not depend on the other rows, so they do not depend
    on the blocking either: every other step is elementwise.
    """
    bins, fov, s = config.bins, math.radians(config.fov_deg), world.signature_dim
    half = fov / 2.0
    bin_width = fov / bins
    channel = np.arange(s)
    render = kernels.load().render
    signatures = np.ascontiguousarray(world.signatures)  # C reads it row by row
    out = np.empty((poses.shape[0], bins * s))
    for start in range(0, poses.shape[0], _RENDER_BLOCK):
        block = poses[start : start + _RENDER_BLOCK]
        planes = np.empty((3, len(block), len(signatures)))
        dx, dy, beta = planes
        np.subtract(world.positions[:, 0], block[:, 0:1], out=dx)
        np.subtract(world.positions[:, 1], block[:, 1:2], out=dy)
        np.subtract(np.arctan2(dy, dx, out=beta), block[:, 2:3], out=beta)
        np.arctan2(np.sin(beta), np.cos(beta), out=beta)
        if render is not None:  # C maps a bearing of -pi to pi, as below
            render(planes, signatures, bins, half, bin_width, out[start : start + len(block)])
            continue
        beta = np.where(beta == -math.pi, math.pi, beta)
        pose, landmark = np.nonzero(np.abs(beta) <= half)
        # continuous bin coordinate: 0 at the center of bin 0
        u = np.clip((beta[pose, landmark] + half) / bin_width - 0.5, 0.0, bins - 1.0)
        lower = np.minimum(np.floor(u).astype(int), bins - 2) if bins > 1 else np.zeros(u.shape, dtype=int)
        frac = u - lower
        contribution = signatures[landmark] * (
            1.0 / (1.0 + np.hypot(dx[pose, landmark], dy[pose, landmark]))
        )[:, None]
        cell = (pose * bins + lower)[:, None] * s + channel  # flat (row, channel) of each lower-bin term
        index, weight = [cell], [contribution * (1.0 - frac)[:, None]]
        if bins > 1:
            index.append(cell + s)
            weight.append(contribution * frac[:, None])
        sums = np.bincount(np.concatenate(index).ravel(), np.concatenate(weight).ravel(), len(block) * bins * s)
        out[start : start + len(block)] = sums.reshape(len(block), bins * s)
    return out


def save_world(world: LandmarkWorld, file: FilePath | str) -> None:
    doc = {
        "seed": world.seed,
        "bounds": [world.bounds.xmin, world.bounds.ymin, world.bounds.xmax, world.bounds.ymax],
        "landmarks": [
            {"position": world.positions[i].tolist(), "signature": world.signatures[i].tolist()}
            for i in range(world.positions.shape[0])
        ],
    }
    write_text(file, json.dumps(doc, sort_keys=True, indent=1))


def load_world(file: FilePath | str) -> LandmarkWorld:
    """Read what save_world wrote. A file that does not hold four bounds, an
    integer seed and a world that ``LandmarkWorld`` and ``Rect`` accept, all
    as JSON numbers, raises one ValueError naming the file."""
    with reading(file):
        doc = json.loads(FilePath(file).read_text())
        landmarks = doc["landmarks"]
        positions = json_floats([lm["position"] for lm in landmarks])
        signatures = json_floats([lm["signature"] for lm in landmarks])
        box = json_floats(doc["bounds"])
        if box.shape != (4,):
            raise ValueError(f"bounds have shape {box.shape}, expected (4,)")
        return LandmarkWorld(positions, signatures, Rect(*box.tolist()), json_int(doc, "seed"))
