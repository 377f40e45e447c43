"""Training sweeps, jitter, and dataset normalization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skytrack import augmentation as aug
from skytrack.config import RunConfig
from skytrack.geometry import Path, advance_target, bearing, generate_route, target_yaw_delta, wrap_angle
from skytrack.world import Rect, generate_world

WORLD = generate_world(RunConfig(seed=0, n_landmarks=40, signature_dim=4), Rect(-20, -20, 40, 40))


def straight_path(length=2.0):
    return Path([(0, 0), (length, 0)], "straight")


def config(**overrides):
    defaults = dict(n_augmented=2, capture_radius=0.4, seed=0)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestConfigValidation:
    def test_capture_radius_below_step(self):
        with pytest.raises(ValueError):
            RunConfig(capture_radius=0.1, step=0.2)

    def test_negative_jitter(self):
        with pytest.raises(ValueError):
            RunConfig(pos_jitter=-1.0)


class TestSweepOptimal:
    def test_straight_path_all_zero_labels(self):
        walk, samples = aug.sweep_optimal(straight_path(), config(), WORLD)
        assert len(samples) == len(walk) >= 8
        for target in samples.targets:
            assert target == pytest.approx(0.0, abs=1e-12)

    def test_fixed_step_spacing(self):
        walk, _ = aug.sweep_optimal(straight_path(5.0), config(), WORLD)
        assert len(walk) > 2
        for d in np.hypot(*np.diff(walk.poses[:, :2], axis=0).T):
            assert d == pytest.approx(0.2, abs=1e-9)

    def test_l_shaped_corner_label_jump(self):
        corner = Path([(0, 0), (3, 0), (3, 3)], "L")
        _, samples = aug.sweep_optimal(corner, config(), WORLD)
        labels = samples.targets.tolist()
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

    def test_walk_without_a_step_is_refused_before_any_statistic(self):
        # The start already captures the last waypoint, so there is no row to render or average.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="path 'short': its start captures its last waypoint"):
                aug.build_dataset(Path([(0, 0), (0.1, 0)], "short"), config(capture_radius=0.4), WORLD)


class TestSweepJittered:
    def test_zero_jitter_equals_optimal(self):
        cfg = config(pos_jitter=0.0, yaw_jitter=0.0)
        walk, base = aug.sweep_optimal(straight_path(5.0), cfg, WORLD)
        jit = aug.sweep_jittered(walk, cfg, WORLD, 1)
        assert len(jit) == len(base)
        np.testing.assert_array_equal(base.features, jit.features)
        assert base.targets.tolist() == jit.targets.tolist()

    def test_jitter_bounds(self):
        cfg = config()
        route = straight_path(6.0)
        walk, _ = aug.sweep_optimal(route, cfg, WORLD)
        samples = aug.sweep_jittered(walk, cfg, WORLD, 3)
        # every jittered sweep perturbs the one walk, so it has one sample
        # per step of it
        assert len(samples) == len(walk)
        rng = aug.sweep_rng(cfg.seed, route.id, 3)
        for _ in range(len(walk)):
            dx = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dy = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dyaw = rng.uniform(-cfg.yaw_jitter, cfg.yaw_jitter)
            assert abs(dx) <= 1.0 and abs(dy) <= 1.0
            assert abs(dyaw) <= 0.1

    def test_determinism(self):
        walk = aug.walk_path(straight_path(4.0), config())
        a = aug.sweep_jittered(walk, config(), WORLD, 2)
        b = aug.sweep_jittered(walk, config(), WORLD, 2)
        assert a.targets.tolist() == b.targets.tolist()
        np.testing.assert_array_equal(a.features, b.features)

    def test_sweep_streams_differ(self):
        walk = aug.walk_path(straight_path(4.0), config())
        a = aug.sweep_jittered(walk, config(), WORLD, 1)
        b = aug.sweep_jittered(walk, config(), WORLD, 2)
        assert a.targets.tolist() != b.targets.tolist()

    def test_label_consistency(self):
        # reconstruct each perturbed pose from per-step dx, dy, dyaw draws and
        # confirm its label points the corrected heading exactly at the target
        # waypoint: the sweep's one-call draw must keep this draw order
        route = Path([(0, 0), (5, 0), (5, 5)], "L5")
        cfg = config()
        samples = aug.sweep_jittered(aug.walk_path(route, cfg), cfg, WORLD, 7)
        rng = aug.sweep_rng(cfg.seed, route.id, 7)
        wps = route.waypoints.tolist()
        target = advance_target(wps[0], wps, 0, cfg.capture_radius)
        pose_pos, pose_yaw = wps[0], bearing(wps[0], wps[target])
        for label in samples.targets.tolist():
            dx = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dy = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dyaw = rng.uniform(-cfg.yaw_jitter, cfg.yaw_jitter)
            perturbed = (pose_pos[0] + dx, pose_pos[1] + dy)
            corrected = wrap_angle(pose_yaw + dyaw + label)
            assert corrected == pytest.approx(
                bearing(perturbed, wps[target]), abs=1e-9
            )
            heading = bearing(pose_pos, wps[target])
            pose_pos = (
                pose_pos[0] + cfg.step * math.cos(heading),
                pose_pos[1] + cfg.step * math.sin(heading),
            )
            pose_yaw = heading
            target = advance_target(pose_pos, wps, target, cfg.capture_radius)
        assert target == len(wps)  # one sample per step, and no more

    def test_labels_equal_target_yaw_delta_bit_for_bit(self):
        # The default scenario's route: a vectorized np.arctan2 gives other
        # last bits than math.atan2 on 45-70 of its 739 rows per sweep.
        route = generate_route(RunConfig(seed=0, n_waypoints=61, path_length=150.0, sac_budget=5.0), "path_00")
        cfg = config(capture_radius=2.0)
        walk = aug.walk_path(route, cfg)
        assert len(walk) == 739
        samples = aug.sweep_jittered(walk, cfg, WORLD, 3)
        rng = aug.sweep_rng(cfg.seed, route.id, 3)
        expected = []
        for (x, y, yaw), t in zip(walk.poses.tolist(), walk.target.tolist()):
            dx = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dy = rng.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dyaw = rng.uniform(-cfg.yaw_jitter, cfg.yaw_jitter)
            pose = (x + dx, y + dy, wrap_angle(yaw + dyaw))
            expected.append(target_yaw_delta(pose, route.waypoints[t].tolist()))
        assert samples.targets.tobytes() == np.array(expected).tobytes()

    @given(st.integers(min_value=1, max_value=50))
    def test_labels_wrapped(self, sweep_index):
        walk = aug.walk_path(straight_path(2.0), config())
        samples = aug.sweep_jittered(walk, config(), WORLD, sweep_index)
        assert len(samples) == len(walk)
        for target in samples.targets:
            assert -math.pi < target <= math.pi


class TestBuildDataset:
    def test_single_sweep_equals_optimal(self):
        cfg = config(n_augmented=1)
        _, base = aug.sweep_optimal(straight_path(4.0), cfg, WORLD)
        ds = aug.build_dataset(straight_path(4.0), cfg, WORLD)
        assert len(ds.samples) == len(base)
        assert ds.samples.targets.tobytes() == base.targets.tobytes()
        assert ds.samples.features.tobytes() == base.features.tobytes()

    def test_rows_are_the_sweeps_in_order(self):
        # Row r is of sweep r // len(walk), as the sidecar's rng_streams say.
        route, cfg = Path([(0, 0), (3, 0), (3, 3)], "L"), config(n_augmented=4)
        ds = aug.build_dataset(route, cfg, WORLD)
        walk, first = aug.sweep_optimal(route, cfg, WORLD)
        n = len(walk)
        assert len(ds.samples) == 4 * n
        for s, sweep in enumerate([first] + [aug.sweep_jittered(walk, cfg, WORLD, s) for s in range(1, 4)]):
            rows = ds.samples[s * n : (s + 1) * n]
            assert rows.features.tobytes() == sweep.features.tobytes(), s
            assert rows.targets.tobytes() == sweep.targets.tobytes(), s

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
        z = aug.normalize_features(ds.feature_mean, ds.feature_std, ds.samples.features)
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
        samples.features[:, 0] = 3.25
        ds = aug.dataset_from_samples(samples)
        z = aug.normalize_features(ds.feature_mean, ds.feature_std, ds.samples.features)
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0.0)

    def test_dimension_mismatch(self):
        ds = aug.build_dataset(straight_path(4.0), config(), WORLD)
        with pytest.raises(ValueError):
            aug.normalize_features(ds.feature_mean, ds.feature_std, np.zeros(3))
