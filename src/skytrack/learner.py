"""Steering-angle regressor: frozen random projection into a trainable
two-layer head (512 hidden units, rectifier, scalar output), trained with
Adam on mean squared error by the recipe of the frozen ``RunConfig``, with
Adam's beta1, beta2 and eps fixed as ``kernels.BETA1``, ``BETA2`` and ``EPS``.

The projection models a fixed generic feature extractor: it is drawn once at
init and never receives gradients. The loss compares the raw (unwrapped)
head output against targets in (-pi, pi]; wrapping is applied only at
inference time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from . import kernels
from .artifacts import json_floats, json_int, reading, write_text
from .augmentation import Dataset, check_statistics, normalize_features, row_blocks
from .config import RunConfig
from .geometry import wrap_angle


@dataclass
class RegressorModel:
    """Finite weights of dimensions >= 1 that agree, and statistics that ``check_statistics`` accepts."""

    projection: np.ndarray  # (F, D), fixed at init, never updated
    w1: np.ndarray  # (H, F)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H,)
    b2: float
    feature_mean: np.ndarray  # (D,) raw-feature statistics that predict normalizes by
    feature_std: np.ndarray  # (D,)
    init_seed: int

    def __post_init__(self) -> None:
        if self.projection.ndim != 2 or self.w1.ndim != 2:
            raise ValueError(f"projection {self.projection.shape} and w1 {self.w1.shape} must be matrices")
        (f, d), h = self.projection.shape, self.w1.shape[0]
        if min(d, f, h) < 1:
            raise ValueError(f"dimensions (input {d}, projection {f}, hidden {h}) must be >= 1")
        shapes = {"w1": (h, f), "b1": (h,), "w2": (h,), "b2": ()}
        for key, shape in shapes.items():
            if np.shape(getattr(self, key)) != shape:
                raise ValueError(f"{key} has shape {np.shape(getattr(self, key))}, expected {shape}")
        if not all(np.isfinite(getattr(self, key)).all() for key in ("projection", *shapes)):
            raise ValueError("non-finite weight")
        check_statistics(self.feature_mean, self.feature_std, d)


@dataclass
class AdamState:
    """Adam's moments and step count; beta1, beta2 and eps are the fixed kernels.BETA1, BETA2 and EPS."""

    m: np.ndarray  # first moments, shaped like the parameters
    v: np.ndarray  # second moments
    t: int = 0


def _uniform_init(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / max(1, fan_in + fan_out))  # a sum of 0 makes an empty draw, which RegressorModel refuses
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_model(seed: int, input_dim: int, projection_dim: int, hidden: int) -> RegressorModel:
    """Seeded scaled-uniform init (+/- sqrt(6 / (fan_in + fan_out))); zero biases;
    identity normalization statistics (mean 0, std 1): ``train`` gives its model the dataset's."""
    rng = np.random.default_rng(seed)
    projection = _uniform_init(rng, projection_dim, input_dim)
    w1 = _uniform_init(rng, hidden, projection_dim)
    w2 = _uniform_init(rng, 1, hidden)[0]
    return RegressorModel(
        projection=projection,
        w1=w1,
        b1=np.zeros(hidden),
        w2=w2,
        b2=0.0,
        feature_mean=np.zeros(input_dim),
        feature_std=np.ones(input_dim),
        init_seed=seed,
    )


def predict(model: RegressorModel, raw_features: np.ndarray) -> float:
    """Predicted yaw delta, wrapped to (-pi, pi], from one unnormalized observation,
    normalized by the model's statistics, through ``kernels.load().forward``: as a
    render does, the first call in a process loads the kernel set."""
    weights = (model.projection, model.w1, model.b1, model.w2, model.b2)
    raw = kernels.load().forward(raw_features.reshape(1, -1), model.feature_mean, model.feature_std, *weights)
    return wrap_angle(float(raw[0]))


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """In-place bias-corrected Adam update of the parameters ``p``.

    Per element, in this order: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    p -= lr*(m/b1c) / (sqrt(v/b2c) + eps). The moments and parameters are
    updated in place, bit-identical to evaluating the formulas out of place
    and to the Adam step of ``train``. A non-finite gradient raises before
    anything is updated."""
    if lr <= 0:
        raise ValueError("lr must be > 0")
    kernels.adam_update(p, g, state, lr)


def lr_at(epoch: int, config: RunConfig) -> float:
    """Step schedule: the base rate is halved every lr_halving_period epochs,
    so after k halvings it is ``lr0 / 2**k``, and 0 once that underflows."""
    if not (0 <= epoch < config.epochs):
        raise ValueError("epoch out of range")
    return math.ldexp(config.lr0, -(epoch // config.lr_halving_period))


def project_dataset(dataset: Dataset, projection: np.ndarray) -> np.ndarray:
    """The dataset's normalized features times ``projection.T``. Each block of
    ``augmentation.row_blocks`` is normalized into one reused buffer and
    multiplied into its rows of the result, so no (N, D) normalized copy is
    made. Blocks of 1,280 rows or more give the bits of the one product
    ``normalize_features(...) @ projection.T`` under the SkylakeX, Haswell,
    Sandybridge and Prescott kernels; under 2,560 rows it is that product.
    A one-row projection makes a matrix-vector product, whose bits depend on
    each row's place in the call, so it stays one block."""
    features = dataset.samples.features
    blocks = row_blocks(len(features)) if projection.shape[0] > 1 else [slice(0, len(features))]
    z = np.empty((len(features), projection.shape[0]))
    buffer = np.empty((len(features) - blocks[-1].start, features.shape[1]))  # the last block is the largest
    for rows in blocks:
        x = buffer[: rows.stop - rows.start]
        normalize_features(dataset.feature_mean, dataset.feature_std, features[rows], out=x)
        np.matmul(x, projection.T, out=z[rows])
    return z


@kernels.one_blas_thread()
def train(
    dataset: Dataset, config: RunConfig, projection_dim: int, hidden: int
) -> tuple[RegressorModel, list[float]]:
    """Mini-batch training over the recipe of ``config``, whose ``seed`` seeds
    both the weight init (``init_model``) and the shuffle; returns the model,
    built after the last epoch with the dataset's normalization statistics,
    and the per-epoch mean squared error history. The frozen projection of the
    normalized features is computed once, in row blocks (``project_dataset``),
    so training holds the (N, projection_dim) result but no normalized copy of
    the features. It runs at one BLAS thread, so its bits do not depend on the
    thread count (see ``kernels.one_blas_thread``)."""
    y = dataset.samples.targets
    n = len(y)

    init = init_model(config.seed, dataset.dim, projection_dim, hidden)
    projection = init.projection
    z = project_dataset(dataset, projection)  # projection is frozen, so project once

    # w1, b1, w2 and b2 live in one flat vector, and so do their gradients,
    # so each step makes one finite check and one Adam call. Adam works
    # element by element, so the layout changes no bits. The epoch that
    # kernels.load returns runs each epoch in one call; the shuffle and the
    # schedule stay here. theta holds the only copy of the weights.
    theta = np.concatenate([init.w1.ravel(), init.b1, init.w2, [init.b2]])
    del init
    state = AdamState(np.zeros_like(theta), np.zeros_like(theta))
    train_epoch = kernels.load().train_epoch
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        sse = train_epoch(z, y, rng.permutation(n), theta, state, hidden, config.batch_size, lr)
        epoch_loss = sse / n
        if not math.isfinite(epoch_loss):
            raise RuntimeError(f"diverged at epoch {epoch}")
        history.append(epoch_loss)
    w1, b1, w2, b2 = kernels.split(theta, hidden, projection_dim)
    mean, std = dataset.feature_mean.copy(), dataset.feature_std.copy()
    return RegressorModel(projection, w1, b1, w2, float(b2[0]), mean, std, config.seed), history


def save_model(model: RegressorModel, file: FilePath | str) -> None:
    """JSON serialization; floats use Python's shortest round-trip decimal
    encoding, so a save/load cycle is bit-faithful."""
    doc = {
        "input_dim": int(model.projection.shape[1]),
        "projection_dim": int(model.projection.shape[0]),
        "hidden": int(model.w1.shape[0]),
        "init_seed": model.init_seed,
        "projection": model.projection.tolist(),
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2,
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
    }
    write_text(file, json.dumps(doc, sort_keys=True))


def load_model(file: FilePath | str) -> RegressorModel:
    """Read what save_model wrote. A file that does not parse or misses a key, a weight
    or statistic that is not a JSON number (null too), a seed that is not an integer,
    or a model that ``RegressorModel`` refuses raises one ValueError naming the file."""
    with reading(file):
        doc = json.loads(FilePath(file).read_text())
        keys = ("projection", "w1", "b1", "w2", "b2", "feature_mean", "feature_std")
        arrays = {key: json_floats(doc[key]) for key in keys}
        arrays["b2"] = arrays["b2"].tolist()  # a float; a list, which RegressorModel refuses, for any other shape
        return RegressorModel(init_seed=json_int(doc, "init_seed"), **arrays)
