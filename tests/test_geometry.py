"""Angle, path, and label geometry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skytrack.geometry import (
    Path,
    bearing,
    distance,
    path_length,
    point_segment_distance,
    sum_angle_change,
    target_yaw_delta,
    wrap_angle,
)

finite_angles = st.floats(min_value=-50.0, max_value=50.0)
coords = st.floats(min_value=-100.0, max_value=100.0)


class TestWrapAngle:
    def test_already_normalized(self):
        assert wrap_angle(0.3) == pytest.approx(0.3)

    def test_three_half_pi(self):
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_negative_pi_maps_to_pi(self):
        # half-open convention (-pi, pi]
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.pi) == math.pi

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                wrap_angle(bad)

    @given(finite_angles, st.integers(min_value=-5, max_value=5))
    def test_periodicity(self, a, k):
        assert wrap_angle(a + 2 * math.pi * k) == pytest.approx(
            wrap_angle(a), abs=1e-9
        )

    @given(finite_angles)
    def test_range_and_idempotence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert wrap_angle(w) == w


class TestTargetYawDelta:
    def test_aligned(self):
        assert target_yaw_delta((0, 0, 0.0), (1, 0)) == 0.0

    def test_quarter_turn_left(self):
        delta = target_yaw_delta((0, 0, 0.0), (0, 1))
        assert delta == pytest.approx(math.pi / 2)

    def test_offset_pose(self):
        # bearing atan2(2, 0) = pi/2, minus yaw pi/4
        delta = target_yaw_delta((2, 3, math.pi / 4), (2, 5))
        assert delta == pytest.approx(math.pi / 4)

    def test_degenerate_bearing(self):
        with pytest.raises(ValueError):
            target_yaw_delta((1, 1, 0.0), (1, 1))

    @given(coords, coords, coords, coords, finite_angles)
    # bearing pi; the corrected heading rounds to just above -pi, the same
    # direction, so the two are compared as angles, not as numbers
    @example(px=1.0, py=0.0, wx=0.0, wy=0.0, yaw=-1.9)
    def test_applying_delta_points_at_waypoint(self, px, py, wx, wy, yaw):
        if math.hypot(wx - px, wy - py) < 1e-6:
            return
        pose = (px, py, wrap_angle(yaw))
        delta = target_yaw_delta(pose, (wx, wy))
        corrected = wrap_angle(pose[2] + delta)
        miss = wrap_angle(corrected - bearing((px, py), (wx, wy)))
        assert miss == pytest.approx(0.0, abs=1e-9)

    @given(coords, coords, finite_angles, finite_angles)
    def test_rotation_equivariance(self, px, py, yaw, phi):
        # rotate both the heading and the waypoint about the pose position
        pose = (px, py, wrap_angle(yaw))
        w = (px + 3.0, py + 1.0)
        delta = target_yaw_delta(pose, w)
        c, s = math.cos(phi), math.sin(phi)
        dx, dy = w[0] - px, w[1] - py
        w_rot = (px + c * dx - s * dy, py + s * dx + c * dy)
        pose_rot = (px, py, wrap_angle(yaw + phi))
        assert target_yaw_delta(pose_rot, w_rot) == pytest.approx(delta, abs=1e-9)


class TestPathValidation:
    def test_minimum_length(self):
        with pytest.raises(ValueError):
            Path(((0, 0),), "short")

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValueError):
            Path(((0, 0), (0, 0), (1, 0)), "dup")

    def test_rows_must_be_points(self):
        with pytest.raises(ValueError, match=r"must be \(W, 2\)"):
            Path(((0, 0, 0), (1, 0, 0)), "3d")

    def test_waypoints_are_a_read_only_copy(self):
        source = np.array([[0.0, 0.0], [1.0, 0.0]])
        p = Path(source, "p")
        assert p.waypoints.shape == (2, 2) and p.waypoints.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            p.waypoints[0, 0] = 5.0
        with pytest.raises(AttributeError):
            p.waypoints = source
        source[0, 0] = 5.0
        assert p.waypoints[0, 0] == 0.0


class TestPathLength:
    def test_345_triangle(self):
        assert path_length(Path(((0, 0), (3, 4)), "p")) == 5.0

    def test_two_segments(self):
        p = Path(((0, 0), (3, 4), (3, 10)), "p")
        assert path_length(p) == pytest.approx(11.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-50, 50, size=(50, 2))
        p = Path(pts, "rand")
        ref = sum(
            math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])
        )
        assert path_length(p) == pytest.approx(ref, abs=1e-12)

    @given(st.floats(-3, 3), coords, coords)
    def test_rigid_invariance(self, phi, tx, ty):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-10, 10, size=(8, 2))
        c, s = math.cos(phi), math.sin(phi)
        moved = pts @ np.array([[c, s], [-s, c]]) + [tx, ty]
        p1 = Path(pts, "a")
        p2 = Path(moved, "b")
        assert path_length(p2) == pytest.approx(path_length(p1), rel=1e-9)


class TestSumAngleChange:
    def test_collinear(self):
        p = Path(((0, 0), (1, 0), (2, 0)), "line")
        assert sum_angle_change(p) == 0.0

    def test_two_points(self):
        assert sum_angle_change(Path(((0, 0), (1, 1)), "seg")) == 0.0

    def test_l_shape(self):
        p = Path(((0, 0), (1, 0), (1, 1)), "L")
        assert sum_angle_change(p) == pytest.approx(math.pi / 2)

    def test_square_corners(self):
        p = Path(((0, 0), (1, 0), (1, 1), (0, 1)), "sq")
        assert sum_angle_change(p) == pytest.approx(math.pi)

    @given(st.floats(-3, 3), coords, coords, st.floats(0.1, 10.0))
    def test_rigid_and_scale_invariance(self, phi, tx, ty, scale):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-10, 10, size=(7, 2))
        c, s = math.cos(phi), math.sin(phi)
        moved = scale * (pts @ np.array([[c, s], [-s, c]])) + [tx, ty]
        p1 = Path(pts, "a")
        p2 = Path(moved, "b")
        assert sum_angle_change(p2) == pytest.approx(sum_angle_change(p1), abs=1e-9)

    def test_one_direction_turns_telescope(self):
        # all turns the same sign and < pi: SAC equals total heading change
        turns = [0.2, 0.3, 0.5, 0.4]
        heading = 0.0
        pts = [(0, 0), (1, 0)]
        for t in turns:
            heading += t
            pts.append((pts[-1][0] + math.cos(heading), pts[-1][1] + math.sin(heading)))
        assert sum_angle_change(Path(pts, "arc")) == pytest.approx(sum(turns))


class TestPointSegmentDistance:
    def test_interior_projection(self):
        d = point_segment_distance((1, 1), (0, 0), (2, 0))
        assert d == pytest.approx(1.0)

    def test_clamped_to_endpoint(self):
        d = point_segment_distance((5, 0), (0, 0), (2, 0))
        assert d == pytest.approx(3.0)

    def test_degenerate_segment(self):
        d = point_segment_distance((3, 4), (0, 0), (0, 0))
        assert d == pytest.approx(5.0)

    @given(coords, coords)
    def test_never_exceeds_endpoint_distance(self, x, y):
        p = (x, y)
        a, b = (-1, 2), (4, -3)
        d = point_segment_distance(p, a, b)
        assert d <= min(distance(p, a), distance(p, b)) + 1e-12
