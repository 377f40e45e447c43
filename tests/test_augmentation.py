"""Training sweeps, jitter, and dataset normalization."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skytrack import augmentation as aug
from skytrack.geometry import Path, Point2, advance_target, bearing, wrap_angle
from skytrack.world import Rect, generate_world

WORLD = generate_world(0, 40, 4, Rect(-20, -20, 40, 40))


def straight_path(length=2.0):
    return Path((Point2(0, 0), Point2(length, 0)), "straight")


def config(**overrides):
    defaults = dict(n_augmented=2, capture_radius=0.4, seed=0)
    defaults.update(overrides)
    return aug.AugmentationConfig(**defaults)


class TestConfigValidation:
    def test_capture_radius_below_step(self):
        with pytest.raises(ValueError):
            aug.AugmentationConfig(capture_radius=0.1, step=0.2)

    def test_negative_jitter(self):
        with pytest.raises(ValueError):
            aug.AugmentationConfig(pos_jitter=-1.0)


class TestSweepOptimal:
    def test_straight_path_all_zero_labels(self):
        poses, samples = aug.sweep_optimal(straight_path(), config(), WORLD)
        assert len(samples) >= 8
        for s in samples:
            assert s.target == pytest.approx(0.0, abs=1e-12)

    def test_fixed_step_spacing(self):
        poses, _ = aug.sweep_optimal(straight_path(5.0), config(), WORLD)
        for a, b in zip(poses, poses[1:]):
            d = math.hypot(b.position.x - a.position.x, b.position.y - a.position.y)
            assert d == pytest.approx(0.2, abs=1e-9)

    def test_l_shaped_corner_label_jump(self):
        corner = Path((Point2(0, 0), Point2(3, 0), Point2(3, 3)), "L")
        _, samples = aug.sweep_optimal(corner, config(), WORLD)
        labels = [s.target for s in samples]
        # straight legs carry ~0 labels; the capture hand-off produces one
        # jump near pi/2 which then decays back toward 0
        peak = max(abs(v) for v in labels)
        peak_at = max(range(len(labels)), key=lambda i: abs(labels[i]))
        assert peak == pytest.approx(math.pi / 2, abs=0.3)
        assert abs(labels[0]) < 1e-9
        assert abs(labels[-1]) < abs(labels[peak_at])

    def test_exhausted_step_budget_errors(self, monkeypatch):
        # shrink the step budget so the walk cannot reach the second waypoint
        monkeypatch.setattr(aug, "default_max_steps", lambda path, step: 3)
        with pytest.raises(RuntimeError, match="unreachable"):
            aug.sweep_optimal(straight_path(5.0), config(), WORLD)


class TestSweepJittered:
    def test_zero_jitter_equals_optimal(self):
        cfg = config(pos_jitter=0.0, yaw_jitter=0.0)
        _, base = aug.sweep_optimal(straight_path(5.0), cfg, WORLD)
        jit = aug.sweep_jittered(straight_path(5.0), cfg, WORLD, 1)
        assert len(jit) == len(base)
        for a, b in zip(base, jit):
            np.testing.assert_array_equal(a.observation.features, b.observation.features)
            assert a.target == b.target

    def test_jitter_bounds(self):
        cfg = config()
        route = straight_path(6.0)
        poses, _ = aug.sweep_optimal(route, cfg, WORLD)
        samples = aug.sweep_jittered(route, cfg, WORLD, 3)
        # the jittered walk follows the optimal trajectory, so perturbations
        # can be recovered by comparing against the optimal poses
        assert len(samples) == len(poses) - 1
        rng = aug.sweep_rng(cfg.seed, route.id, 3)
        for base in poses[:-1]:
            dx = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dy = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dyaw = rng.uniform(-cfg.yaw_jitter, cfg.yaw_jitter)
            assert abs(dx) <= 1.0 and abs(dy) <= 1.0
            assert abs(dyaw) <= 0.1

    def test_determinism(self):
        route = straight_path(4.0)
        a = aug.sweep_jittered(route, config(), WORLD, 2)
        b = aug.sweep_jittered(route, config(), WORLD, 2)
        assert [s.target for s in a] == [s.target for s in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.observation.features, y.observation.features)

    def test_sweep_streams_differ(self):
        route = straight_path(4.0)
        a = aug.sweep_jittered(route, config(), WORLD, 1)
        b = aug.sweep_jittered(route, config(), WORLD, 2)
        assert [s.target for s in a] != [s.target for s in b]

    def test_label_consistency(self):
        # reconstruct each perturbed pose and confirm its label points the
        # corrected heading exactly at the target waypoint
        route = Path((Point2(0, 0), Point2(5, 0), Point2(5, 5)), "L5")
        cfg = config()
        samples = aug.sweep_jittered(route, cfg, WORLD, 7)
        rng = aug.sweep_rng(cfg.seed, route.id, 7)
        wps = route.waypoints
        target = advance_target(wps[0], wps, 0, cfg.capture_radius)
        pose_pos, pose_yaw = wps[0], bearing(wps[0], wps[target])
        for s in samples:
            dx = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dy = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dyaw = rng.uniform(-cfg.yaw_jitter, cfg.yaw_jitter)
            perturbed = Point2(pose_pos.x + dx, pose_pos.y + dy)
            corrected = wrap_angle(pose_yaw + dyaw + s.target)
            assert corrected == pytest.approx(
                bearing(perturbed, wps[target]), abs=1e-9
            )
            heading = bearing(pose_pos, wps[target])
            pose_pos = Point2(
                pose_pos.x + cfg.step * math.cos(heading),
                pose_pos.y + cfg.step * math.sin(heading),
            )
            pose_yaw = heading
            target = advance_target(pose_pos, wps, target, cfg.capture_radius)

    @given(st.integers(min_value=1, max_value=50))
    def test_labels_wrapped(self, sweep_index):
        samples = aug.sweep_jittered(straight_path(2.0), config(), WORLD, sweep_index)
        for s in samples:
            assert -math.pi < s.target <= math.pi


class TestBuildDataset:
    def test_single_sweep_equals_optimal(self):
        cfg = config(n_augmented=1)
        _, base = aug.sweep_optimal(straight_path(4.0), cfg, WORLD)
        ds = aug.build_dataset(straight_path(4.0), cfg, WORLD)
        assert len(ds.samples) == len(base)
        assert [s.target for s in ds.samples] == [s.target for s in base]

    def test_sample_count_scales_with_sweeps(self):
        route = straight_path(6.0)
        n1 = len(aug.build_dataset(route, config(n_augmented=1), WORLD).samples)
        n4 = len(aug.build_dataset(route, config(n_augmented=4), WORLD).samples)
        assert n4 == 4 * n1

    def test_count_near_length_over_step(self):
        route = straight_path(10.0)
        ds = aug.build_dataset(route, config(n_augmented=16), WORLD)
        expected = 16 * 10.0 / 0.2
        assert abs(len(ds.samples) - expected) <= 0.2 * expected

    def test_invalid_n_augmented(self):
        with pytest.raises(ValueError):
            aug.build_dataset(straight_path(), config(n_augmented=0), WORLD)


class TestNormalization:
    def test_self_normalization_stats(self):
        ds = aug.build_dataset(straight_path(8.0), config(n_augmented=4), WORLD)
        z = aug.normalize_features(ds.feature_mean, ds.feature_std, ds.features())
        active = ds.feature_std > 1e-6
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z[:, active].std(axis=0), 1.0, atol=1e-6)

    def test_mean_observation_maps_to_zero(self):
        ds = aug.build_dataset(straight_path(4.0), config(), WORLD)
        z = aug.normalize_features(ds.feature_mean, ds.feature_std, ds.feature_mean)
        assert np.allclose(z, 0.0)

    def test_constant_feature_no_nan(self):
        samples = aug.build_dataset(straight_path(4.0), config(), WORLD).samples
        # force one feature constant across the dataset
        for s in samples:
            s.observation.features[0] = 3.25
        ds = aug.dataset_from_samples(samples)
        z = aug.normalize_features(ds.feature_mean, ds.feature_std, ds.features())
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0.0)

    def test_dimension_mismatch(self):
        ds = aug.build_dataset(straight_path(4.0), config(), WORLD)
        with pytest.raises(ValueError):
            aug.normalize_features(ds.feature_mean, ds.feature_std, np.zeros(3))
