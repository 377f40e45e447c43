"""Closed-loop rollout engine: policies, stepping, capture, termination."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from skytrack.config import RunConfig
from skytrack.geometry import Path, advance_target, default_max_steps, wrap_angle
from skytrack.simulator import (
    COMPLETED,
    DIVERGED,
    MAX_STEPS,
    ModelPolicy,
    OraclePolicy,
    load_trajectory,
    rollout,
    save_trajectory,
)
from skytrack.world import Rect, generate_world

WORLD = generate_world(RunConfig(seed=1, n_landmarks=60, signature_dim=4), Rect(-30, -30, 60, 60))


class ConstantPolicy:
    """Fixed yaw delta every tick: a degenerate baseline."""

    def __init__(self, delta: float):
        self.delta = delta

    def command(self, observation, pose, target) -> float:
        return self.delta


class RandomPolicy:
    """Finite yaw deltas from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def command(self, observation, pose, target) -> float:
        return float(self.rng.uniform(-math.pi, math.pi))


def cfg(**overrides):
    defaults = dict(n_augmented=1, capture_radius=0.4, seed=0)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestAdvanceTarget:
    WPS = [(0, 0), (5, 0), (10, 0)]

    def test_far_away_unchanged(self):
        assert advance_target((2.5, 3.0), self.WPS, 1, 0.4) == 1

    def test_exactly_on_waypoint(self):
        assert advance_target((5, 0), self.WPS, 1, 0.4) == 2

    def test_boundary_inclusive(self):
        # 5.5 - 5.0 is exactly representable, so this sits on the boundary
        assert advance_target((5.5, 0), self.WPS, 1, 0.5) == 2

    def test_cluster_skips_consecutive_captures(self):
        tight = [(0, 0), (0.1, 0), (0.2, 0)]
        assert advance_target((0.05, 0), tight, 0, 0.4) == 3

    def test_never_decrements(self):
        assert advance_target((0, 0), self.WPS, 1, 0.4) == 1


class TestDefaultMaxSteps:
    def test_budget_formula(self):
        p = Path([(0, 0), (10, 0)], "p")
        assert default_max_steps(p, 0.2) == math.ceil(3 * 10.0 / 0.2)


class TestOracleRollout:
    def test_straight_path_completes(self):
        p = Path([(0, 0), (6, 0)], "straight")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert log.termination == COMPLETED
        assert all(abs(y) < 1e-9 for y in log.poses[:, 1].tolist())

    def test_multi_waypoint_completes(self):
        p = Path([(0, 0), (5, 0), (5, 5), (0, 5)], "U")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert log.termination == COMPLETED
        assert log.targets[-1] == len(p.waypoints)

    def test_step_length_invariant(self):
        p = Path([(0, 0), (4, 0), (4, 4)], "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        for (ax, ay, _), (bx, by, _) in zip(log.poses.tolist(), log.poses[1:].tolist()):
            assert math.hypot(bx - ax, by - ay) == pytest.approx(0.2, abs=1e-9)

    def test_heading_motion_invariant(self):
        p = Path([(0, 0), (4, 0), (4, 4)], "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        for (ax, ay, _), (bx, by, b_yaw) in zip(log.poses.tolist(), log.poses[1:].tolist()):
            assert wrap_angle(math.atan2(by - ay, bx - ax) - b_yaw) == pytest.approx(0.0, abs=1e-9)

    def test_yaw_command_consistency(self):
        p = Path([(0, 0), (4, 0), (4, 4)], "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert len(log.commands) == len(log.poses) - 1
        yaws = log.poses[:, 2].tolist()
        for a_yaw, b_yaw, delta in zip(yaws, yaws[1:], log.commands.tolist()):
            assert b_yaw == pytest.approx(wrap_angle(a_yaw + delta), abs=1e-12)

    def test_monotone_target_progress(self):
        p = Path([(0, 0), (5, 0), (5, 5)], "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert all(b >= a for a, b in zip(log.targets.tolist(), log.targets[1:].tolist()))


class TestConstantPolicy:
    def test_zero_on_aligned_straight_path(self):
        p = Path([(0, 0), (6, 0)], "straight")
        log = rollout(ConstantPolicy(0.0), WORLD, p, cfg())
        assert log.termination == COMPLETED
        ys = {round(y, 12) for y in log.poses[:, 1].tolist()}
        assert ys == {0.0}

    def test_zero_on_l_path_never_turns(self):
        p = Path([(0, 0), (5, 0), (5, 5)], "L")
        log = rollout(ConstantPolicy(0.0), WORLD, p, cfg())
        assert log.termination in (MAX_STEPS, DIVERGED)

    def test_non_finite_command_diverges(self):
        p = Path([(0, 0), (6, 0)], "straight")
        log = rollout(ConstantPolicy(math.nan), WORLD, p, cfg())
        assert log.termination == DIVERGED
        assert len(log.poses) == 1


class TestModelPolicy:
    def test_gain_scales_prediction(self):
        class FixedModel:
            feature_mean = np.zeros(WORLD.signature_dim * 32)
            feature_std = np.ones(WORLD.signature_dim * 32)

        class StubPolicy(ModelPolicy):
            def command(self, observation, pose, target):
                return self.gain * 0.5

        policy = StubPolicy(FixedModel(), RunConfig(command_gain=0.2))
        obs = None
        assert policy.command(obs, None, None) == pytest.approx(0.1)

    def test_sees_only_observation(self):
        # the pose and target arguments must not influence the command
        from skytrack.learner import init_model

        model = init_model(0, WORLD.signature_dim * 32, 8, 16)
        policy = ModelPolicy(model, RunConfig())
        from skytrack.world import render_observation

        obs = render_observation(WORLD, np.array([[5.0, 5.0, 0.0]]), RunConfig(bins=32, fov_deg=90.0))[0]
        a = policy.command(obs, (0, 0, 0.0), (1, 1))
        b = policy.command(obs, (9, 9, 2.0), (-5, 3))
        assert a == b


class TestTermination:
    def test_max_steps(self):
        p = Path([(0, 0), (6, 0)], "straight")
        log = rollout(ConstantPolicy(0.3), WORLD, p, cfg(), max_steps=5)
        assert log.termination in (MAX_STEPS, DIVERGED)
        assert len(log.poses) <= 6

    def test_out_of_bounds_diverges(self):
        # the goal lies far outside the world's 10% guard margin, so straight
        # flight exits the bounds before reaching it
        p = Path([(0, 0), (6, 0)], "straight")
        tiny = generate_world(RunConfig(seed=1, n_landmarks=5, signature_dim=2), Rect(-1, -1, 1, 1))
        log = rollout(ConstantPolicy(0.0), tiny, p, cfg())
        assert log.termination == DIVERGED
        assert log.poses[-1, 0] > 1.0

    def test_start_on_final_waypoint(self):
        p = Path([(0, 0), (0.3, 0)], "tiny")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        assert log.termination == COMPLETED
        assert log.commands.shape == (0,)
        assert log.poses.shape == (1, 3) and log.targets.tolist() == [2]


class TestGuardBoundary:
    GUARD = WORLD.bounds.inflated(0.1 * WORLD.bounds.width, 0.1 * WORLD.bounds.height)

    @settings(max_examples=60, deadline=None)
    @given(
        side=st.sampled_from(["xmin", "xmax", "ymin", "ymax"]),
        inset=st.floats(0.0, 1.0),
        along=st.floats(0.0, 1.0),
        goal=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
        policy=st.one_of(st.floats(-4.0, 4.0).map(ConstantPolicy), st.integers(0, 2**32 - 1).map(RandomPolicy)),
        max_steps=st.integers(0, 200),
    )
    def test_rollout_from_the_guard_edge(self, side, inset, along, goal, policy, max_steps):
        """A start inside the guard, at most 1 m from its edge: every step has
        the step length, targets never decrease, and a finite policy diverges
        only by leaving the guard, on the last pose."""
        g = self.GUARD
        x = {"xmin": g.xmin + inset, "xmax": g.xmax - inset}.get(side, g.xmin + along * g.width)
        y = {"ymin": g.ymin + inset, "ymax": g.ymax - inset}.get(side, g.ymin + along * g.height)
        assume((x, y) != goal)
        log = rollout(policy, WORLD, Path(((x, y), goal), "edge"), cfg(), max_steps=max_steps)
        n = len(log.poses)
        assert 1 <= n <= max_steps + 1
        assert log.poses.shape == (n, 3) and log.commands.shape == (n - 1,) and log.targets.shape == (n,)
        steps = np.hypot(*np.diff(log.poses[:, :2], axis=0).T)
        assert np.all(np.abs(steps - 0.2) <= 1e-9)
        assert np.all(np.diff(log.targets) >= 0)
        assert np.isfinite(log.commands).all()
        assert all(g.contains(px, py) for px, py in log.poses[:-1, :2].tolist())
        inside = g.contains(*log.poses[-1, :2].tolist())
        if log.termination == DIVERGED:
            assert not inside
        elif log.termination == MAX_STEPS:
            assert inside and n == max_steps + 1
        else:
            assert log.termination == COMPLETED and log.targets[-1] == 2


class TestTrajectoryRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        p = Path([(0, 0), (4, 0), (4, 4)], "L")
        log = rollout(OraclePolicy(), WORLD, p, cfg())
        file = tmp_path / "traj.csv"
        save_trajectory(log, file)
        loaded = load_trajectory(file, termination=log.termination)
        # Bit for bit, with the same shapes and dtypes.
        for key in ("poses", "commands", "targets"):
            a, b = getattr(loaded, key), getattr(log, key)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), key

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
            ("", "no poses"),
            ("0,1.0,2.0,0.5,0.1,1\n", "row 2: the command must be empty on the first row and only there"),
            ("0,1.0,2.0,0.5,,1\n1,1.2,2.0,0.5,,1\n", "row 3: the command must be empty on the first row"),
            ("0,1.0,2.0,0.5,,1\n1,1.2,2.0,0.5,0.1,1\n7,1.4,2.0,0.5,0.1,1\n", "row 4: step 7, expected 2"),
            ("1,1.0,2.0,0.5,,1\n", "row 2: step 1, expected 0"),
            ("0,nan,2.0,0.5,,1\n", r"step 0: non-finite position \(nan, 2.0\)"),
            ("0,1.0,2.0,0.5,,1\n1,1.2,2.0,0.5,inf,1\n", "step 1: non-finite command inf"),
            ("0,1.0,2.0,nan,,1\n", "step 0: yaw nan outside"),
            ("0,1.0,2.0,4.0,,1\n", r"step 0: yaw 4.0 outside \(-pi, pi\]"),
            ("0,1.0,2.0,-3.141592653589793,,1\n", "step 0: yaw -3.141592653589793 outside"),
            ("0,1.0,2.0,0.5,,99999999999999999999\n", "too large"),
            ("0,1.0,2.0,0.5,,-1\n", "step 0: target_index -1 is negative"),
            ("0,1.0,2.0,0.5,,3\n1,1.2,2.0,0.5,0.1,2\n", "step 1: target_index 2 is negative or below the step before"),
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
        log = rollout(OraclePolicy(), WORLD, Path([(0, 0), (2, 0)], "p"), cfg())
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
            assert len(loaded.targets) == len(loaded.poses)
            assert len(loaded.commands) == len(loaded.poses) - 1
