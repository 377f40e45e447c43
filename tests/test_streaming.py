"""The training inputs streamed in row blocks: the normalization statistics
of ``augmentation.dataset_from_samples`` and the frozen projection of
``learner.train`` give the bits of the full-array computations, and neither
makes a full-size temporary."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_samples
from skytrack import augmentation as aug
from skytrack import kernels, learner
from skytrack.config import RunConfig
from test_golden import has_avx2, openblas_core, run_cli

B = aug._BLOCK_ROWS
GRID_D = (1, 2, 3, 8, 256)
GRID_F = (1, 2, 3, 8, 128, 512)
GRID_N = (1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 7, 11_824)
TESTS = str(Path(__file__).resolve().parent)


def grid_mismatches() -> list[str]:
    """Each grid shape whose streamed mean, std or projection differs in any
    bit from ``features.mean/std(axis=0)`` or from the one product
    ``normalize_features(...) @ projection.T``, at one BLAS thread as in
    ``learner.train``."""
    rng = np.random.default_rng(0)
    found = []
    with kernels.one_blas_thread():
        for n in GRID_N:
            for d in GRID_D:
                features = rng.normal(3.0, 2.0, size=(n, d))
                ds = aug.dataset_from_samples(make_samples(features, np.zeros(n)))
                if ds.feature_mean.tobytes() != features.mean(axis=0).tobytes():
                    found.append(f"mean N={n} D={d}")
                if ds.feature_std.tobytes() != np.maximum(features.std(axis=0), aug.STD_FLOOR).tobytes():
                    found.append(f"std N={n} D={d}")
                x = aug.normalize_features(ds.feature_mean, ds.feature_std, features)
                for f in GRID_F:
                    projection = rng.uniform(-1.0, 1.0, size=(f, d))
                    if learner.project_dataset(ds, projection).tobytes() != (x @ projection.T).tobytes():
                        found.append(f"projection N={n} D={d} F={f}")
    return found


def test_row_blocks_cover_the_rows_in_blocks_of_one_to_two_block_sizes():
    for n in (*range(0, 3 * B + 9, 7), *GRID_N):
        blocks = aug.row_blocks(n)
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        sizes = [rows.stop - rows.start for rows in blocks]
        if n < 2 * B:
            assert sizes == [n]
        else:
            assert all(B <= s < 2 * B for s in sizes)


@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["default", "Haswell"])
def test_streamed_statistics_and_projection_are_bit_equal(coretype):
    """Under the host's own kernel set, and under forced Haswell kernels in a
    subprocess (skipped as ``test_bytes_independent_of_blas_threads`` is)."""
    if coretype is None:
        assert grid_mismatches() == []
        return
    forced = {"OPENBLAS_CORETYPE": coretype}
    if not has_avx2():
        pytest.skip(f"the CPU lacks AVX2, which the {coretype} kernels need")
    if (core := openblas_core(forced)) != coretype:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} reads back as {core}")
    probe = f"import sys; sys.path.insert(0, {TESTS!r}); import test_streaming; print(test_streaming.grid_mismatches())"
    assert run_cli(forced, "-c", probe).stdout.strip() == "[]"


def three_blocks(d: int) -> aug.Dataset:
    rng = np.random.default_rng(4)
    n = 3 * B + 7
    return aug.dataset_from_samples(make_samples(rng.normal(size=(n, d)), rng.normal(size=n)))


def peak_bytes(call):
    """``call()`` and the peak of the memory traced while it ran; numpy
    reports its array buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_statistics_peak_below_two_block_buffers():
    d = 64
    samples = three_blocks(d).samples
    _, peak = peak_bytes(lambda: aug.dataset_from_samples(samples))
    assert peak < 2 * B * d * 8


def test_train_peak_below_projection_two_block_buffers_and_model():
    d, config = 64, RunConfig(seed=3, epochs=2, batch_size=64)
    dataset = three_blocks(d)
    kernels.load()  # a first load may build the C epoch; that is not training
    (model, _), peak = peak_bytes(lambda: learner.train(dataset, config, projection_dim=8, hidden=16))
    z_bytes = len(dataset.samples) * 8 * 8
    model_bytes = sum(a.nbytes for a in (model.projection, model.w1, model.b1, model.w2, model.feature_mean, model.feature_std))
    assert peak < z_bytes + 2 * B * d * 8 + model_bytes


def test_c_and_numpy_epochs_agree_on_a_streamed_projection(monkeypatch):
    c_epoch = kernels.load()
    if c_epoch is kernels.NUMPY:
        pytest.skip("no C compiler: the NumPy epoch is in use")
    dataset, config = three_blocks(24), RunConfig(seed=5, epochs=2, batch_size=64)
    outputs = []
    for epoch in (c_epoch, kernels.NUMPY):
        monkeypatch.setattr(kernels, "load", lambda: epoch)
        model, history = learner.train(dataset, config, projection_dim=8, hidden=16)
        outputs.append(b"".join(a.tobytes() for a in (model.w1, model.b1, model.w2, np.array([model.b2, *history]))))
    assert outputs[0] == outputs[1]
