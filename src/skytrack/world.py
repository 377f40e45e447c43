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

from .config import RunConfig


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in world coordinates."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class LandmarkWorld:
    """Immutable landmark map: positions (N, 2) and unit-norm signatures (N, S)."""

    positions: np.ndarray
    signatures: np.ndarray
    bounds: Rect
    seed: int

    def __post_init__(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[0] < 1:
            raise ValueError("world requires at least one landmark")
        if self.signatures.shape[0] != self.positions.shape[0]:
            raise ValueError("positions/signatures count mismatch")

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


# Poses rendered per np.bincount: bounds the (poses x landmarks) temporaries.
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

    Poses are rendered in blocks of 64, each accumulated by one
    ``np.bincount``: a bin sums, from 0.0, its lower-bin terms in landmark
    order, then its upper-bin terms in landmark order. Each row's bits do not
    depend on the other rows, so they do not depend on the blocking either:
    every other step is elementwise.
    """
    bins, fov, s = config.bins, math.radians(config.fov_deg), world.signature_dim
    half = fov / 2.0
    bin_width = fov / bins
    channel = np.arange(s)
    out = np.empty((poses.shape[0], bins * s))
    for start in range(0, poses.shape[0], _RENDER_BLOCK):
        block = poses[start : start + _RENDER_BLOCK]
        dx = world.positions[:, 0] - block[:, 0:1]  # (poses in the block, N)
        dy = world.positions[:, 1] - block[:, 1:2]
        raw = np.arctan2(dy, dx) - block[:, 2:3]
        beta = np.arctan2(np.sin(raw), np.cos(raw))
        beta = np.where(beta == -math.pi, math.pi, beta)
        pose, landmark = np.nonzero(np.abs(beta) <= half)
        # continuous bin coordinate: 0 at the center of bin 0
        u = np.clip((beta[pose, landmark] + half) / bin_width - 0.5, 0.0, bins - 1.0)
        lower = np.minimum(np.floor(u).astype(int), bins - 2) if bins > 1 else np.zeros(u.shape, dtype=int)
        frac = u - lower
        contribution = world.signatures[landmark] * (
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
    FilePath(file).write_text(json.dumps(doc, sort_keys=True, indent=1))


def json_floats(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array. A string,
    a boolean or a null, which a saved float never is, raises TypeError."""
    array = np.array(value, dtype=float)
    for x in np.array(value, dtype=object).flat:
        if type(x) not in (int, float):
            raise TypeError(f"{x!r} ({type(x).__name__}) is not a number")
    return array


def load_world(file: FilePath | str) -> LandmarkWorld:
    """Read what save_world wrote. A file that does not hold at least one
    landmark, finite positions, unit-norm signatures of one width, finite
    non-empty bounds and an integer seed, all as JSON numbers, raises one
    ValueError naming the file."""
    try:
        doc = json.loads(FilePath(file).read_text())
        landmarks = doc["landmarks"]
        positions = json_floats([lm["position"] for lm in landmarks])
        signatures = json_floats([lm["signature"] for lm in landmarks])
        box = json_floats(doc["bounds"])
        if box.shape != (4,):
            raise ValueError(f"bounds have shape {box.shape}, expected (4,)")
        seed = int(doc["seed"])  # its error names an infinite or NaN seed
        if type(doc["seed"]) is not int:  # 1.5, "7" and true (a bool) are not seeds
            raise ValueError(f"seed {doc['seed']!r} is not an integer")
        if not landmarks:
            raise ValueError("no landmarks")
        if positions.shape != (len(landmarks), 2) or signatures.ndim != 2 or signatures.shape[1] < 1:
            raise ValueError(f"positions {positions.shape} and signatures {signatures.shape} do not fit")
        if not (np.isfinite(positions).all() and np.isfinite(box).all()):
            raise ValueError("non-finite position or bound")
        if not np.all(np.abs(np.linalg.norm(signatures, axis=1) - 1.0) <= 1e-9):
            raise ValueError("signatures are not unit-norm")
        bounds = Rect(*box.tolist())
    except KeyError as exc:
        raise ValueError(f"{file}: missing key {exc}") from exc
    except (OverflowError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{file}: {exc}") from exc
    return LandmarkWorld(positions, signatures, bounds, seed)
