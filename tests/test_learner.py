"""Regressor init, forward pass, gradients, Adam, schedule, and training."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_samples
from skytrack import augmentation as aug
from skytrack import kernels
from skytrack.config import RunConfig
from skytrack.geometry import wrap_angle
from skytrack.learner import (
    AdamState,
    RegressorModel,
    adam_step,
    init_model,
    load_model,
    lr_at,
    predict,
    save_model,
    train,
)


def tiny_model(seed=0, d=6, f=4, h=5):
    return init_model(seed, d, projection_dim=f, hidden=h)


def loss_and_gradient(model, x, y):
    """``kernels.head_gradient`` on the projected rows ``x @ model.projection.T``:
    the loss and the gradients of w1, b1, w2 and b2, by name."""
    grads = {key: np.empty_like(getattr(model, key)) for key in ("w1", "b1", "w2")} | {"b2": np.empty(1)}
    z = x @ model.projection.T
    return kernels.head_gradient(z, y, model.w1, model.b1, model.w2, model.b2, list(grads.values())), grads


def tiny_model_file(tmp_path):
    """A saved ``tiny_model`` with normalization statistics."""
    model = tiny_model()
    model.feature_mean, model.feature_std = np.linspace(-1.0, 1.0, 6), np.linspace(0.5, 2.0, 6)
    file = tmp_path / "model.json"
    save_model(model, file)
    return file


def synthetic_dataset(n=400, d=8, seed=3, target_fn=None):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0.0, 1.0, size=(n, d))
    if target_fn is None:
        target_fn = lambda x: 0.0
    targets = [float(target_fn(feats[i])) for i in range(n)]
    return aug.dataset_from_samples(make_samples(feats, targets))


class TestInitModel:
    def test_deterministic(self):
        a = init_model(5, 16, 8, 12)
        b = init_model(5, 16, 8, 12)
        np.testing.assert_array_equal(a.projection, b.projection)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_zero_biases(self):
        m = init_model(1, 16, 8, 12)
        assert np.all(m.b1 == 0.0)
        assert m.b2 == 0.0

    def test_weight_bounds(self):
        m = init_model(2, 20, 10, 30)
        for w, fan_in, fan_out in (
            (m.projection, 20, 10),
            (m.w1, 10, 30),
            (m.w2, 30, 1),
        ):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= bound)

    def test_invalid_dims(self):
        for dims in [(0, 8, 12), (0, 0, 12), (6, 4, 0)]:  # (0, 0, ...) draws an empty projection
            with pytest.raises(ValueError, match="must be >= 1"):
                init_model(0, *dims)


def forward(model, x):
    """``kernels.NUMPY.forward`` of ``model`` on the feature rows ``x``."""
    weights = (model.projection, model.w1, model.b1, model.w2, model.b2)
    return kernels.NUMPY.forward(x, model.feature_mean, model.feature_std, *weights)


class TestForward:
    def test_zero_head_outputs_zero(self):
        m = tiny_model()
        m.w1[:] = 0.0
        m.w2[:] = 0.0
        assert forward(m, np.ones((1, 6)))[0] == 0.0

    def test_bias_passthrough(self):
        m = tiny_model()
        m.w1[:] = 0.0
        m.w2[:] = 0.0
        m.b2 = 0.42
        assert forward(m, np.full((1, 6), 7.0))[0] == pytest.approx(0.42)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(17)
        m = tiny_model(seed=9)
        m.b1[:] = rng.normal(size=m.b1.shape)
        m.b2 = 0.3
        x = rng.normal(size=6)
        z = m.projection @ x
        h = np.maximum(m.w1 @ z + m.b1, 0.0)
        expected = float(m.w2 @ h + m.b2)
        assert forward(m, x.reshape(1, -1))[0] == pytest.approx(expected, abs=1e-12)

    def test_forward_is_wrapped(self):
        m = tiny_model()
        m.w1[:] = 0.0
        m.w2[:] = 0.0
        m.b2 = 3 * math.pi / 2
        assert predict(m, np.zeros(6)) == pytest.approx(-math.pi / 2)

    def test_dimension_mismatch(self):
        for call in (lambda: forward(tiny_model(), np.zeros((1, 3))), lambda: predict(tiny_model(), np.zeros(3))):
            with pytest.raises(ValueError, match="^dimension mismatch: got 3, expected 6$"):
                call()

    def test_untrained_model_predicts_through_identity_statistics(self):
        m = tiny_model()
        assert m.feature_mean.tolist() == [0.0] * 6 and m.feature_std.tolist() == [1.0] * 6
        x = np.random.default_rng(4).normal(size=6)
        assert predict(m, x) == wrap_angle(float(forward(m, x.reshape(1, -1))[0]))


class TestLossAndGradient:
    def test_perfect_prediction_zero_gradients(self):
        m = tiny_model()
        m.w1[:] = 0.0
        m.w2[:] = 0.0
        m.b2 = 0.25
        x = np.random.default_rng(0).normal(size=(10, 6))
        loss, grads = loss_and_gradient(m, x, np.full(10, 0.25))
        assert loss == pytest.approx(0.0, abs=1e-18)
        for g in grads.values():
            assert np.allclose(g, 0.0)

    def test_bias_gradient_hand_derived(self):
        # zero head, single sample with target tau: loss (b2 - tau)^2,
        # d loss / d b2 = -2 tau at b2 = 0
        tau = 0.7
        m = tiny_model()
        m.w1[:] = 0.0
        m.w2[:] = 0.0
        loss, grads = loss_and_gradient(m, np.ones((1, 6)), np.array([tau]))
        assert loss == pytest.approx(tau**2)
        assert grads["b2"][0] == pytest.approx(-2 * tau)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for draw in range(20):
            m = tiny_model(seed=100 + draw)
            m.b1[:] = 0.1 * rng.normal(size=m.b1.shape)
            m.b2 = float(rng.normal())
            x = rng.normal(size=(8, 6))
            y = rng.normal(size=8)
            _, grads = loss_and_gradient(m, x, y)

            def loss_at(model):
                return loss_and_gradient(model, x, y)[0]

            for name in ("w1", "b1", "w2"):
                arr = getattr(m, name)
                flat_grad = grads[name].ravel()
                idx = rng.integers(arr.size, size=min(6, arr.size))
                for i in idx:
                    orig = arr.ravel()[i]
                    arr.ravel()[i] = orig + h
                    up = loss_at(m)
                    arr.ravel()[i] = orig - h
                    down = loss_at(m)
                    arr.ravel()[i] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(flat_grad[i]), 1e-8)
                    assert abs(flat_grad[i] - fd) / denom < 1e-4
            m.b2 += h
            up = loss_at(m)
            m.b2 -= 2 * h
            down = loss_at(m)
            m.b2 += h
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(grads["b2"][0]), 1e-8)
            assert abs(grads["b2"][0] - fd) / denom < 1e-4

    def test_no_projection_gradient(self):
        # The head sees only the projected rows, so the projection neither
        # gets a gradient nor changes.
        m = tiny_model()
        projection = m.projection.copy()
        x = np.random.default_rng(1).normal(size=(4, 6))
        _, grads = loss_and_gradient(m, x, np.zeros(4))
        assert set(grads) == {"w1", "b1", "w2", "b2"}
        assert m.projection.tobytes() == projection.tobytes()

    def test_matches_outer_product_reference_bit_for_bit(self):
        def reference(model, z, targets):
            # The original backward: an outer product times a boolean mask.
            a = z @ model.w1.T + model.b1
            h = np.maximum(a, 0.0)
            g = (2.0 / z.shape[0]) * (h @ model.w2 + model.b2 - targets)
            da = np.outer(g, model.w2) * (a > 0.0)
            return {"w1": da.T @ z, "b1": da.sum(axis=0), "w2": h.T @ g, "b2": np.array([g.sum()])}

        rng = np.random.default_rng(5)
        m = init_model(3, 10, projection_dim=8, hidden=32)
        m.b1[:] = rng.normal(size=32)
        m.b1[0] = -1e3  # unit 0 is dead for the whole batch
        z = rng.normal(size=(16, 8))
        targets = rng.normal(size=16)
        grads = {key: np.empty_like(getattr(m, key)) for key in ("w1", "b1", "w2")} | {"b2": np.empty(1)}
        kernels.head_gradient(z, targets, m.w1, m.b1, m.w2, m.b2, list(grads.values()))
        expected = reference(m, z, targets)
        for key in expected:
            assert grads[key].tobytes() == expected[key].tobytes(), key


class TestAdamStep:
    def test_zero_gradient_no_move(self):
        p = np.array([1.0, 2.0])
        state = AdamState(np.zeros(2), np.zeros(2))
        adam_step(p, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_first_step_magnitude(self):
        p = np.array([0.0])
        state = AdamState(np.zeros(1), np.zeros(1))
        adam_step(p, np.array([0.5]), state, lr=1e-2)
        # bias-corrected first step moves ~lr regardless of gradient scale
        assert abs(p[0]) == pytest.approx(1e-2, rel=1e-4)

    def test_quadratic_convergence(self):
        p = np.array([0.0])
        state = AdamState(np.zeros(1), np.zeros(1))
        for _ in range(2000):
            adam_step(p, 2 * (p - 3.0), state, lr=1e-2)
        assert abs(p[0] - 3.0) < 1e-2

    def test_non_finite_gradient(self):
        p = np.array([0.0])
        state = AdamState(np.zeros(1), np.zeros(1))
        with pytest.raises(RuntimeError, match="diverged"):
            adam_step(p, np.array([math.nan]), state, lr=1e-2)

    def test_non_finite_gradient_changes_nothing(self):
        model = init_model(0, 3, projection_dim=8, hidden=16)
        p = np.concatenate([model.w1.ravel(), model.b1, model.w2, [model.b2]])
        state = AdamState(np.zeros_like(p), np.zeros_like(p))
        rng = np.random.default_rng(0)
        adam_step(p, rng.normal(size=p.size), state, 1e-3)
        before = [p.tobytes(), state.m.tobytes(), state.v.tobytes()]
        g = rng.normal(size=p.size)
        g[8 * 16 + 16 + 5] = np.inf  # in w2: the elements before it must not move either
        with pytest.raises(RuntimeError, match="diverged"):
            adam_step(p, g, state, 1e-3)
        assert state.t == 1
        assert [p.tobytes(), state.m.tobytes(), state.v.tobytes()] == before

    def test_matches_out_of_place_reference_bit_for_bit(self):
        def reference_step(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
            # The original out-of-place update, in Kingma & Ba's order.
            b1c, b2c = 1.0 - b1**t, 1.0 - b2**t
            m[:] = b1 * m + (1.0 - b1) * g
            v[:] = b2 * v + (1.0 - b2) * g**2
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)

        rng = np.random.default_rng(12)
        model = init_model(0, 3, projection_dim=128, hidden=512)
        # The default head as train holds it: w1, b1, w2 and b2 in one vector.
        parts = [model.w1.ravel(), model.b1, model.w2, np.array([model.b2])]
        p = np.concatenate(parts)
        assert p.size == 66_561
        ref, m_ref, v_ref = p.copy(), np.zeros_like(p), np.zeros_like(p)
        state = AdamState(np.zeros_like(p), np.zeros_like(p))
        for t in range(1, 501):
            lr = 1e-4 / 2 ** (t // 125)
            # each part's gradient at its own scale
            g = np.concatenate([rng.normal(scale=10.0 ** rng.uniform(-6, 1), size=q.size) for q in parts])
            g[rng.random(g.size) < 0.05] = 0.0
            adam_step(p, g, state, lr)
            reference_step(ref, g, m_ref, v_ref, t, lr)
            assert p.tobytes() == ref.tobytes(), t
        assert state.m.tobytes() == m_ref.tobytes()
        assert state.v.tobytes() == v_ref.tobytes()


class TestLearningRateSchedule:
    def test_reference_schedule_points(self):
        cfg = RunConfig()
        assert lr_at(0, cfg) == 1e-4
        assert lr_at(25, cfg) == 5e-5
        assert lr_at(50, cfg) == 2.5e-5
        assert lr_at(75, cfg) == 1.25e-5
        assert lr_at(99, cfg) == 1.25e-5

    def test_non_increasing_piecewise_constant(self):
        cfg = RunConfig()
        rates = [lr_at(e, cfg) for e in range(cfg.epochs)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        for start in range(0, 100, 25):
            assert len({rates[e] for e in range(start, start + 25)}) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(100, RunConfig())

    def test_rate_after_1024_halvings_is_finite(self):
        """The 1024th halving of the default period is 25,600 epochs in."""
        rate = lr_at(25600, RunConfig(epochs=30000))
        assert math.isfinite(rate) and rate >= 0.0

    @pytest.mark.parametrize("lr0", [1e-4, 3e-3, 0.7])
    def test_rate_is_lr0_over_a_power_of_two(self, lr0):
        """Bit for bit, subnormal rates included."""
        cfg = RunConfig(lr0=lr0, epochs=1024, lr_halving_period=1)
        for k in range(1024):
            assert lr_at(k, cfg) == lr0 / 2**k, k


class TestTrain:
    def test_constant_target_learned(self):
        ds = synthetic_dataset(n=2000, target_fn=lambda x: 0.3)
        _, history = train(ds, RunConfig(seed=0), projection_dim=8, hidden=512)
        assert history[-1] < 1e-3

    def test_deterministic(self):
        ds = synthetic_dataset()
        a, _ = train(ds, RunConfig(seed=4), projection_dim=8, hidden=16)
        b, _ = train(ds, RunConfig(seed=4), projection_dim=8, hidden=16)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)
        assert a.b2 == b.b2

    def test_linear_map_fit(self):
        rng = np.random.default_rng(2)
        coef = rng.normal(size=8) * 0.2
        ds = synthetic_dataset(n=2000, target_fn=lambda x: float(coef @ x))
        _, history = train(ds, RunConfig(seed=1), projection_dim=8, hidden=256)
        assert history[-1] < 1e-3

    def test_loss_trend(self):
        ds = synthetic_dataset(target_fn=lambda x: float(x[0] - x[1]))
        _, history = train(ds, RunConfig(seed=0), projection_dim=8, hidden=32)
        assert len(history) == 100
        assert history[-1] < history[0]

    def test_frozen_projection_untouched(self):
        ds = synthetic_dataset()
        model, _ = train(ds, RunConfig(seed=6, epochs=3), projection_dim=8, hidden=16)
        fresh = init_model(6, ds.dim, projection_dim=8, hidden=16)
        assert model.projection.tobytes() == fresh.projection.tobytes()

    def test_normalization_stats_embedded(self):
        ds = synthetic_dataset()
        model, _ = train(ds, RunConfig(seed=0, epochs=2), projection_dim=8, hidden=16)
        np.testing.assert_array_equal(model.feature_mean, ds.feature_mean)
        np.testing.assert_array_equal(model.feature_std, ds.feature_std)

    def test_empty_dataset(self):
        """A dataset holds at least one row, so ``train`` never gets an empty one."""
        with pytest.raises(ValueError, match="empty dataset"):
            aug.Dataset(make_samples(np.zeros((1, 4)), [0.0])[:0], np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("kernel_set", ["c", "numpy"], indirect=True)
    def test_one_seed_drives_the_init_and_the_shuffle(self, kernel_set):
        """``config.seed`` seeds the weight init and the batch shuffle alike:
        ``train`` equals, byte for byte, a reference built by hand from
        ``init_model(seed, ...)`` and NumPy epochs over the orders of one
        ``default_rng(seed)`` at the ``lr_at`` rates."""
        seed, hidden, width = 7, 16, 8
        ds = synthetic_dataset(n=150, target_fn=lambda x: float(x[0] - x[1]))
        config = RunConfig(seed=seed, epochs=2, lr0=1e-3, lr_halving_period=1)
        model, history = train(ds, config, projection_dim=width, hidden=hidden)

        ref = init_model(seed, ds.dim, projection_dim=width, hidden=hidden)
        x = aug.normalize_features(ds.feature_mean, ds.feature_std, ds.samples.features)
        z, n = x @ ref.projection.T, len(x)
        theta = np.concatenate([ref.w1.ravel(), ref.b1, ref.w2, [ref.b2]])
        state = AdamState(np.zeros_like(theta), np.zeros_like(theta))
        rng = np.random.default_rng(seed)
        sse = []
        for epoch in range(config.epochs):
            order, lr = rng.permutation(n), lr_at(epoch, config)
            sse.append(kernels.NUMPY.train_epoch(z, ds.samples.targets, order, theta, state, hidden, config.batch_size, lr))
        assert model.projection.tobytes() == ref.projection.tobytes()
        params = np.concatenate([model.w1.ravel(), model.b1, model.w2, [model.b2]])
        assert params.tobytes() == theta.tobytes()
        assert history == [s / n for s in sse]


class TestModelRoundTrip:
    def test_save_load_bit_faithful(self, tmp_path):
        ds = synthetic_dataset()
        model, _ = train(ds, RunConfig(seed=8, epochs=2), projection_dim=8, hidden=16)
        file = tmp_path / "model.json"
        save_model(model, file)
        loaded = load_model(file)
        assert loaded.projection.tobytes() == model.projection.tobytes()
        assert loaded.w1.tobytes() == model.w1.tobytes()
        assert loaded.b1.tobytes() == model.b1.tobytes()
        assert loaded.w2.tobytes() == model.w2.tobytes()
        assert loaded.b2 == model.b2
        assert loaded.feature_mean.tobytes() == model.feature_mean.tobytes()
        x = np.random.default_rng(0).uniform(size=ds.dim)
        assert predict(loaded, x) == predict(model, x)

    @pytest.mark.parametrize(
        "key, shape, expected",
        [
            ("projection", (8,), "must be matrices"),
            ("w1", (16, 7), r"w1 has shape \(16, 7\), expected \(16, 8\)"),
            ("b1", (15,), r"b1 has shape \(15,\), expected \(16,\)"),
            ("w2", (17,), r"w2 has shape \(17,\), expected \(16,\)"),
            ("feature_mean", (7,), r"feature_mean has shape \(7,\), expected \(8,\)"),
            ("feature_std", (9,), r"feature_std has shape \(9,\), expected \(8,\)"),
        ],
    )
    def test_load_rejects_disagreeing_dimensions(self, tmp_path, key, shape, expected):
        model, _ = train(synthetic_dataset(), RunConfig(seed=8, epochs=1), projection_dim=8, hidden=16)
        file = tmp_path / "model.json"
        save_model(model, file)
        doc = json.loads(file.read_text())
        doc[key] = np.zeros(shape).tolist()
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=expected) as info:
            load_model(file)
        assert str(info.value).startswith(f"{file}: ")
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda doc: doc.pop("b2"), "missing key 'b2'"),
            (lambda doc: doc.update(b2=None), "NoneType"),
            (lambda doc: doc.update(b2=math.inf), "non-finite"),
            (lambda doc: doc["w1"][0].__setitem__(0, math.nan), "non-finite"),
            (lambda doc: doc["feature_std"].__setitem__(2, -math.inf), "non-finite"),
            (lambda doc: doc.update(init_seed=math.inf), "infinity"),
            (lambda doc: doc.update(init_seed=1.5), "init_seed 1.5 is not an integer"),
            (lambda doc: doc.update(init_seed=True), "init_seed True is not an integer"),
            (lambda doc: doc.update(init_seed="7"), "init_seed '7' is not an integer"),
            # numbers as json.dumps never writes a float
            (lambda doc: doc.update(b2="0.5"), r"'0.5' \(str\) is not a number"),
            (lambda doc: doc.update(b2=True), r"True \(bool\) is not a number"),
            (lambda doc: doc["w2"].__setitem__(slice(0, 2), ["0.25", "1e-3"]), r"'0.25' \(str\) is not a number"),
            (lambda doc: doc["w1"][1].__setitem__(2, False), r"False \(bool\) is not a number"),
            (lambda doc: doc.update(b2=[0.5]), r"b2 has shape \(1,\), expected \(\)"),
            # a model always carries its statistics
            (lambda doc: doc.update(feature_mean=None), "NoneType"),
            (lambda doc: doc.update(feature_std=None), "NoneType"),
            # the floor that every std dataset_from_samples writes meets
            (lambda doc: doc["feature_std"].__setitem__(2, 0.0), "feature_std below 1e-08"),
            (lambda doc: doc["feature_std"].__setitem__(2, -1.0), "feature_std below 1e-08"),
        ],
        ids=[
            "missing-b2", "null-b2", "inf-b2", "nan-w1", "inf-std", "inf-seed",
            "fractional-seed", "bool-seed", "string-seed", "string-b2", "bool-b2", "string-w2", "bool-w1", "list-b2",
            "null-mean", "null-std", "zero-std", "negative-std",
        ],
    )
    def test_load_rejects_bad_values(self, tmp_path, edit, expected):
        file = tiny_model_file(tmp_path)
        doc = json.loads(file.read_text())
        edit(doc)
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=expected) as info:
            load_model(file)
        assert str(info.value).startswith(f"{file}: ")

    def test_load_rejects_truncated_file(self, tmp_path):
        file = tiny_model_file(tmp_path)
        file.write_bytes(file.read_bytes()[:100])
        with pytest.raises(ValueError) as info:
            load_model(file)
        assert str(info.value).startswith(f"{file}: ")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_garbled_file_gives_one_value_error(self, tmp_path, data):
        file = tiny_model_file(tmp_path)
        raw = bytearray(file.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for at in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4), label="at"):
                raw[at] = data.draw(st.integers(0, 255), label="byte")
        file.write_bytes(bytes(raw))
        try:
            model = load_model(file)
        except ValueError as exc:
            assert str(exc).startswith(f"{file}: ")
        else:  # a garbled digit can leave a valid model; it must still be one
            assert model.w1.shape == (model.b1.shape[0], model.projection.shape[0])
            for a in (model.projection, model.w1, model.b1, model.w2, model.feature_mean, model.feature_std):
                assert a is None or np.isfinite(a).all()
            assert math.isfinite(model.b2)
