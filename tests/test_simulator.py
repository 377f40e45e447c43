"""Closed-loop rollout engine: policies, stepping, capture, termination."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skytrack import augmentation as aug
from skytrack.geometry import Path, Point2, Pose, advance_target, default_max_steps, wrap_angle
from skytrack.simulator import (
    COMPLETED,
    DIVERGED,
    MAX_STEPS,
    ModelPolicy,
    OraclePolicy,
    PrivilegedState,
    load_trajectory,
    rollout,
    save_trajectory,
)
from skytrack.world import Rect, generate_world

WORLD = generate_world(1, 60, 4, Rect(-30, -30, 60, 60))


class ConstantPolicy:
    """Fixed yaw delta every tick: a degenerate baseline."""

    def __init__(self, delta: float):
        self.delta = delta

    def command(self, observation, privileged: PrivilegedState) -> float:
        return self.delta


def cfg(**overrides):
    defaults = dict(n_augmented=1, capture_radius=0.4, seed=0)
    defaults.update(overrides)
    return aug.AugmentationConfig(**defaults)


class TestAdvanceTarget:
    WPS = (Point2(0, 0), Point2(5, 0), Point2(10, 0))

    def test_far_away_unchanged(self):
        assert advance_target(Point2(2.5, 3.0), self.WPS, 1, 0.4) == 1

    def test_exactly_on_waypoint(self):
        assert advance_target(Point2(5, 0), self.WPS, 1, 0.4) == 2

    def test_boundary_inclusive(self):
        # 5.5 - 5.0 is exactly representable, so this sits on the boundary
        assert advance_target(Point2(5.5, 0), self.WPS, 1, 0.5) == 2

    def test_cluster_skips_consecutive_captures(self):
        tight = (Point2(0, 0), Point2(0.1, 0), Point2(0.2, 0))
        assert advance_target(Point2(0.05, 0), tight, 0, 0.4) == 3

    def test_never_decrements(self):
        assert advance_target(Point2(0, 0), self.WPS, 1, 0.4) == 1


class TestDefaultMaxSteps:
    def test_budget_formula(self):
        p = Path((Point2(0, 0), Point2(10, 0)), "p")
        assert default_max_steps(p, 0.2) == math.ceil(3 * 10.0 / 0.2)


class TestOracleRollout:
    def test_straight_path_completes(self):
        p = Path((Point2(0, 0), Point2(6, 0)), "straight")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert log.termination == COMPLETED
        assert all(abs(pose.position.y) < 1e-9 for pose in log.poses)

    def test_multi_waypoint_completes(self):
        p = Path((Point2(0, 0), Point2(5, 0), Point2(5, 5), Point2(0, 5)), "U")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert log.termination == COMPLETED
        assert log.target_indices[-1] == len(p.waypoints)

    def test_step_length_invariant(self):
        p = Path((Point2(0, 0), Point2(4, 0), Point2(4, 4)), "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        for a, b in zip(log.poses, log.poses[1:]):
            d = math.hypot(b.position.x - a.position.x, b.position.y - a.position.y)
            assert d == pytest.approx(0.2, abs=1e-9)

    def test_heading_motion_invariant(self):
        p = Path((Point2(0, 0), Point2(4, 0), Point2(4, 4)), "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        for a, b in zip(log.poses, log.poses[1:]):
            motion = math.atan2(b.position.y - a.position.y, b.position.x - a.position.x)
            assert wrap_angle(motion - b.yaw) == pytest.approx(0.0, abs=1e-9)

    def test_yaw_command_consistency(self):
        p = Path((Point2(0, 0), Point2(4, 0), Point2(4, 4)), "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert len(log.commands) == len(log.poses) - 1
        for a, b, delta in zip(log.poses, log.poses[1:], log.commands):
            assert b.yaw == pytest.approx(wrap_angle(a.yaw + delta), abs=1e-12)

    def test_monotone_target_progress(self):
        p = Path((Point2(0, 0), Point2(5, 0), Point2(5, 5)), "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert all(b >= a for a, b in zip(log.target_indices, log.target_indices[1:]))


class TestConstantPolicy:
    def test_zero_on_aligned_straight_path(self):
        p = Path((Point2(0, 0), Point2(6, 0)), "straight")
        log = rollout(ConstantPolicy(0.0), WORLD, p, cfg())
        assert log.termination == COMPLETED
        ys = {round(pose.position.y, 12) for pose in log.poses}
        assert ys == {0.0}

    def test_zero_on_l_path_never_turns(self):
        p = Path((Point2(0, 0), Point2(5, 0), Point2(5, 5)), "L")
        log = rollout(ConstantPolicy(0.0), WORLD, p, cfg())
        assert log.termination in (MAX_STEPS, DIVERGED)

    def test_non_finite_command_diverges(self):
        p = Path((Point2(0, 0), Point2(6, 0)), "straight")
        log = rollout(ConstantPolicy(math.nan), WORLD, p, cfg())
        assert log.termination == DIVERGED
        assert len(log.poses) == 1


class TestModelPolicy:
    def test_gain_scales_prediction(self):
        class FixedModel:
            feature_mean = np.zeros(WORLD.signature_dim * 32)
            feature_std = np.ones(WORLD.signature_dim * 32)

        class StubPolicy(ModelPolicy):
            def command(self, observation, privileged):
                return self.gain * 0.5

        policy = StubPolicy(FixedModel(), gain=0.2)
        obs = None
        assert policy.command(obs, None) == pytest.approx(0.1)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            ModelPolicy(object(), gain=0.0)
        with pytest.raises(ValueError):
            ModelPolicy(object(), gain=1.5)

    def test_sees_only_observation(self):
        # the privileged argument must not influence the command
        from skytrack.learner import init_model

        model = init_model(0, WORLD.signature_dim * 32, 8, 16)
        model.feature_mean = np.zeros(model.input_dim)
        model.feature_std = np.ones(model.input_dim)
        policy = ModelPolicy(model)
        from skytrack.world import render_observation

        obs = render_observation(WORLD, np.array([[5.0, 5.0, 0.0]]), 32, math.pi / 2)[0]
        a = policy.command(obs, PrivilegedState(Pose(Point2(0, 0), 0.0), Point2(1, 1)))
        b = policy.command(obs, PrivilegedState(Pose(Point2(9, 9), 2.0), Point2(-5, 3)))
        assert a == b


class TestTermination:
    def test_max_steps(self):
        p = Path((Point2(0, 0), Point2(6, 0)), "straight")
        log = rollout(ConstantPolicy(0.3), WORLD, p, cfg(), max_steps=5)
        assert log.termination in (MAX_STEPS, DIVERGED)
        assert len(log.poses) <= 6

    def test_out_of_bounds_diverges(self):
        # the goal lies far outside the world's 10% guard margin, so straight
        # flight exits the bounds before reaching it
        p = Path((Point2(0, 0), Point2(6, 0)), "straight")
        tiny = generate_world(1, 5, 2, Rect(-1, -1, 1, 1))
        log = rollout(ConstantPolicy(0.0), tiny, p, cfg())
        assert log.termination == DIVERGED
        assert log.poses[-1].position.x > 1.0

    def test_start_on_final_waypoint(self):
        p = Path((Point2(0, 0), Point2(0.3, 0)), "tiny")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert log.termination == COMPLETED
        assert log.commands == []


class TestTrajectoryRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        p = Path((Point2(0, 0), Point2(4, 0), Point2(4, 4)), "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        file = tmp_path / "traj.csv"
        save_trajectory(log, file)
        loaded = load_trajectory(file, path_id=log.path_id, termination=log.termination)
        assert len(loaded.poses) == len(log.poses)
        assert loaded.commands == log.commands
        assert loaded.target_indices == log.target_indices
        for a, b in zip(log.poses, loaded.poses):
            assert a.position.x == b.position.x
            assert a.position.y == b.position.y
            assert a.yaw == b.yaw

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_trajectory(bad)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1.0,2.0,0.5,,1\n1,1.0,2.0\n", "row 3 has 3 columns, expected 6"),
            ("0,1.0,2.0,0.5,,1,7\n", "row 2 has 7 columns, expected 6"),
            ("0,1.0,2.0,0.5,,1\n\n", "row 3 has 0 columns"),
            ("0,1.0,abc,0.5,,1\n", "row 2: could not convert"),
            ("0,1.0,2.0,0.5,,1.5\n", "row 2: invalid literal"),
            ("0,1.0,2.0,0.5,,1\xff\n", "can't decode byte 0xff"),
        ],
    )
    def test_load_rejects_bad_rows(self, tmp_path, body, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(("step,x,y,yaw,command,target_index\n" + body).encode("latin-1"))
        with pytest.raises(ValueError, match=message) as info:
            load_trajectory(bad)
        assert str(info.value).startswith(f"{bad}: ")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_garbled_file_gives_one_value_error(self, tmp_path, data):
        file = tmp_path / "traj.csv"
        log = rollout(OraclePolicy(), WORLD, Path((Point2(0, 0), Point2(2, 0)), "p"), cfg())
        save_trajectory(log, file)
        raw = bytearray(file.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for at in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4), label="at"):
                raw[at] = data.draw(st.integers(0, 255), label="byte")
        file.write_bytes(bytes(raw))
        try:
            loaded = load_trajectory(file)
        except ValueError as exc:
            assert str(exc).startswith(f"{file}: ")
        else:  # cut at a row end or inside a number, or a digit changed
            assert len(loaded.poses) <= len(log.poses)
            assert len(loaded.target_indices) == len(loaded.poses)
