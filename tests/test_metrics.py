"""Trajectory metrics against brute-force reference implementations."""

import json
import math

import numpy as np
import pytest

from conftest import make_samples
from skytrack.config import RunConfig
from skytrack.geometry import Path, point_segment_distance
from skytrack.learner import init_model
from skytrack.metrics import (
    MetricsReport,
    angle_mse,
    evaluate,
    mean_cross_track_distance,
    mean_waypoint_min_distance,
    save_report,
)
from skytrack.simulator import OraclePolicy, rollout
from skytrack.world import generate_world


def brute_force_mwmd(waypoints, positions):
    total = 0.0
    for wx, wy in waypoints.tolist():
        total += min(math.hypot(x - wx, y - wy) for x, y in positions.tolist())
    return total / len(waypoints)


def brute_force_mctd(waypoints, positions):
    wps = waypoints.tolist()
    total = 0.0
    for x, y in positions.tolist():
        dists = [(math.hypot(x - wx, y - wy), i) for i, (wx, wy) in enumerate(wps)]
        dists.sort()  # stable: ties resolve to the lower index
        (_, i), (_, j) = dists[0], dists[1]
        total += point_segment_distance((x, y), wps[i], wps[j])
    return total / len(positions)


def random_instance(rng, max_n=200):
    n_w = int(rng.integers(2, max_n + 1))
    n_t = int(rng.integers(1, max_n + 1))
    pts = []
    x, y = rng.uniform(-50, 50, size=2)
    for _ in range(n_w):
        pts.append((float(x), float(y)))
        x += rng.uniform(0.1, 3.0)
        y += rng.uniform(-2.0, 2.0)
    return Path(pts, "rand"), rng.uniform(-60, 60, size=(n_t, 2))


class TestMeanWaypointMinDistance:
    def test_exact_visits(self):
        p = Path([(0, 0), (2, 0)], "p")
        traj = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert mean_waypoint_min_distance(p, traj) == 0.0

    def test_uniform_unit_offset(self):
        p = Path([(0, 0), (2, 0)], "p")
        traj = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        assert mean_waypoint_min_distance(p, traj) == pytest.approx(1.0)

    def test_empty_trajectory(self):
        with pytest.raises(ValueError):
            mean_waypoint_min_distance(Path([(0, 0), (1, 0)], "p"), np.empty((0, 2)))


class TestMeanCrossTrackDistance:
    def test_on_segment_zero(self):
        p = Path([(0, 0), (2, 0), (5, 0)], "p")
        traj = np.array([[0.5, 0.0], [1.5, 0.0]])
        assert mean_cross_track_distance(p, traj) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        p = Path([(0, 0), (2, 0), (5, 0)], "p")
        assert mean_cross_track_distance(p, np.array([[1.0, 0.5]])) == pytest.approx(0.5)

    def test_perpendicular_offset(self):
        p = Path([(0, 0), (10, 0)], "p")
        traj = np.column_stack([np.linspace(1, 9, 17), np.full(17, 0.7)])
        assert mean_cross_track_distance(p, traj) == pytest.approx(0.7)

    def test_bounded_by_nearest_waypoint_distance(self):
        rng = np.random.default_rng(3)
        p, traj = random_instance(rng, max_n=40)
        mctd = mean_cross_track_distance(p, traj)
        bound = max(
            min(math.hypot(x - wx, y - wy) for wx, wy in p.waypoints.tolist()) for x, y in traj.tolist()
        )
        assert mctd <= bound + 1e-12


class TestBruteForceEquivalence:
    def test_100_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p, traj = random_instance(rng)
            assert mean_waypoint_min_distance(p, traj) == pytest.approx(
                brute_force_mwmd(p.waypoints, traj), abs=1e-12
            )
            assert mean_cross_track_distance(p, traj) == pytest.approx(
                brute_force_mctd(p.waypoints, traj), abs=1e-12
            )

    def test_rigid_invariance_and_scaling(self):
        rng = np.random.default_rng(8)
        p, traj = random_instance(rng, max_n=30)
        phi, tx, ty, scale = 0.9, 5.0, -2.0, 3.0
        c, s = math.cos(phi), math.sin(phi)

        def move(x, y, k=1.0):
            return k * (c * x - s * y) + tx, k * (s * x + c * y) + ty

        p_rigid = Path([move(x, y) for x, y in p.waypoints.tolist()], "r")
        traj_rigid = np.array([move(x, y) for x, y in traj.tolist()])
        assert mean_waypoint_min_distance(p_rigid, traj_rigid) == pytest.approx(
            mean_waypoint_min_distance(p, traj), rel=1e-9
        )
        assert mean_cross_track_distance(p_rigid, traj_rigid) == pytest.approx(
            mean_cross_track_distance(p, traj), rel=1e-9
        )

        p_scaled = Path([move(x, y, scale) for x, y in p.waypoints.tolist()], "s")
        traj_scaled = np.array([move(x, y, scale) for x, y in traj.tolist()])
        assert mean_waypoint_min_distance(p_scaled, traj_scaled) == pytest.approx(
            scale * mean_waypoint_min_distance(p_rigid, traj_rigid), rel=1e-9
        )


class TestAngleMse:
    def _samples(self, targets):
        return make_samples(np.zeros((len(targets), 4)), targets)

    def _zero_model(self, b2=0.0):
        m = init_model(0, 4, 2, 3)
        m.w1[:] = 0.0
        m.w2[:] = 0.0
        m.b2 = b2
        return m

    def test_exact_predictions(self):
        m = self._zero_model(b2=0.2)
        assert angle_mse(m, self._samples([0.2, 0.2])) == pytest.approx(0.0)

    def test_constant_offset(self):
        m = self._zero_model(b2=0.3)
        assert angle_mse(m, self._samples([0.0, 0.0, 0.0])) == pytest.approx(0.09)

    def test_zero_head_symmetric_targets(self):
        m = self._zero_model()
        assert angle_mse(m, self._samples([0.1, -0.1])) == pytest.approx(0.01)

    def test_empty_test_set(self):
        with pytest.raises(ValueError):
            angle_mse(self._zero_model(), self._samples([]))


class TestEvaluate:
    WORLD = generate_world(RunConfig(seed=2, n_landmarks=40, signature_dim=4), (-20, -20, 40, 40))

    def test_oracle_straight_path(self):
        p = Path([(0, 0), (8, 0)], "straight")
        cfg = RunConfig(capture_radius=0.4, seed=0)
        log = rollout(OraclePolicy(), self.WORLD, p, cfg)
        report = evaluate(p, log)
        assert report.termination == "completed"
        assert report.mwmd <= 0.4
        assert report.mctd < 0.2
        assert report.sac == 0.0
        assert report.angle_mse is None

    def test_report_round_trip(self, tmp_path):
        report = MetricsReport("p", 1.0, 2.0, 3.0, "completed", 0.5)
        file = tmp_path / "report.json"
        save_report(report, file)
        assert json.loads(file.read_text()) == {
            "path_id": "p", "mwmd": 1.0, "mctd": 2.0, "sac": 3.0, "termination": "completed", "angle_mse": 0.5
        }
