"""Landmark world synthesis and the bearing-binned renderer."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skytrack import augmentation as aug
from skytrack import kernels
from skytrack.config import RunConfig
from skytrack.geometry import generate_route, wrap_angle
from skytrack.world import (
    LandmarkWorld,
    generate_world,
    load_world,
    render_observation,
    routes_bounding_box,
    save_world,
)

BOUNDS = (0.0, 0.0, 100.0, 100.0)


def render(world, pose, bins, fov):
    """The feature vector rendered at one pose (x, y, yaw), ``fov`` in radians: a batch of one."""
    config = RunConfig(bins=bins, fov_deg=math.degrees(fov))
    return render_observation(world, np.array([pose]), config)[0]


def single_landmark_world(x, y, signature):
    sig = np.asarray(signature, dtype=float)
    sig = sig / np.linalg.norm(sig)
    return LandmarkWorld(
        positions=np.array([[x, y]]),
        signatures=sig.reshape(1, -1),
        bounds=(-50, -50, 50, 50),
        seed=0,
    )


class TestGenerateWorld:
    def test_deterministic(self):
        a = generate_world(RunConfig(seed=7, n_landmarks=10, signature_dim=4), BOUNDS)
        b = generate_world(RunConfig(seed=7, n_landmarks=10, signature_dim=4), BOUNDS)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.signatures, b.signatures)

    def test_seed_sensitivity(self):
        a = generate_world(RunConfig(seed=7, n_landmarks=10, signature_dim=4), BOUNDS)
        b = generate_world(RunConfig(seed=8, n_landmarks=10, signature_dim=4), BOUNDS)
        assert not np.array_equal(a.positions, b.positions)

    def test_single_landmark(self):
        w = generate_world(RunConfig(seed=3, n_landmarks=1, signature_dim=4), BOUNDS)
        assert w.positions.shape == (1, 2)

    def test_landmarks_inside_bounds(self):
        w = generate_world(RunConfig(seed=1, n_landmarks=200, signature_dim=8), BOUNDS)
        xmin, ymin, xmax, ymax = BOUNDS
        assert np.all(w.positions[:, 0] >= xmin)
        assert np.all(w.positions[:, 0] <= xmax)
        assert np.all(w.positions[:, 1] >= ymin)
        assert np.all(w.positions[:, 1] <= ymax)

    def test_signatures_unit_norm_nonnegative(self):
        w = generate_world(RunConfig(seed=1, n_landmarks=50, signature_dim=8), BOUNDS)
        norms = np.linalg.norm(w.signatures, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert np.all(w.signatures >= 0)


def render_reference(world, x, y, yaw, bins, fov):
    """The renderer one pose at a time, as it was before it took batches."""
    half, bin_width = fov / 2.0, fov / bins
    dx = world.positions[:, 0] - x
    dy = world.positions[:, 1] - y
    raw = np.arctan2(dy, dx) - yaw
    beta = np.arctan2(np.sin(raw), np.cos(raw))
    beta = np.where(beta == -math.pi, math.pi, beta)
    visible = np.abs(beta) <= half
    u = np.clip((beta[visible] + half) / bin_width - 0.5, 0.0, bins - 1.0)
    lower = np.minimum(np.floor(u).astype(int), bins - 2) if bins > 1 else np.zeros(u.shape, dtype=int)
    frac = u - lower
    contribution = world.signatures[visible] * (1.0 / (1.0 + np.hypot(dx[visible], dy[visible])))[:, None]
    grid = np.zeros((bins, world.signature_dim))
    np.add.at(grid, lower, contribution * (1.0 - frac)[:, None])
    if bins > 1:
        np.add.at(grid, lower + 1, contribution * frac[:, None])
    return grid.reshape(-1)


BATCH_WORLD = generate_world(RunConfig(seed=4, n_landmarks=25, signature_dim=3), (-10.0, -10.0, 10.0, 10.0))


@st.composite
def pose_batches(draw):
    """1-12 poses (x, y, yaw); some sit exactly on a landmark."""
    coord = st.floats(-15.0, 15.0, allow_nan=False)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            x, y = BATCH_WORLD.positions[draw(st.integers(0, 24))].tolist()
        else:
            x, y = draw(coord), draw(coord)
        rows.append((x, y, draw(st.floats(-math.pi, math.pi))))
    return np.array(rows)


def render_add_at(world, poses, config):
    """The batch renderer before it accumulated with np.bincount in blocks of
    64 poses: the whole batch at once, one np.add.at per bin side."""
    bins, fov, s = config.bins, math.radians(config.fov_deg), world.signature_dim
    half = fov / 2.0
    bin_width = fov / bins
    dx = world.positions[:, 0] - poses[:, 0:1]  # (P, N)
    dy = world.positions[:, 1] - poses[:, 1:2]
    raw = np.arctan2(dy, dx) - poses[:, 2:3]
    beta = np.arctan2(np.sin(raw), np.cos(raw))
    beta = np.where(beta == -math.pi, math.pi, beta)
    pose, landmark = np.nonzero(np.abs(beta) <= half)
    u = np.clip((beta[pose, landmark] + half) / bin_width - 0.5, 0.0, bins - 1.0)
    lower = np.minimum(np.floor(u).astype(int), bins - 2) if bins > 1 else np.zeros(u.shape, dtype=int)
    frac = u - lower
    contribution = world.signatures[landmark] * (
        1.0 / (1.0 + np.hypot(dx[pose, landmark], dy[pose, landmark]))
    )[:, None]
    row = pose * bins + lower
    grid = np.zeros((poses.shape[0] * bins, s))
    np.add.at(grid, row, contribution * (1.0 - frac)[:, None])
    if bins > 1:
        np.add.at(grid, row + 1, contribution * frac[:, None])
    return grid.reshape(poses.shape[0], bins * s)


def walk_and_jittered(seed, **overrides):
    """The world, the walk's poses and one jittered copy of them, for ``seed``'s default scenario
    with ``overrides``."""
    config = RunConfig(seed=seed, **overrides)
    route = generate_route(config, "path_00")
    world = generate_world(config, routes_bounding_box([route], config.world_margin))
    walk = aug.walk_path(route, config)
    rng = np.random.default_rng(seed)
    jittered = walk.poses + rng.uniform([-2.0, -2.0, -0.5], [2.0, 2.0, 0.5], size=walk.poses.shape)
    return world, walk.poses, jittered


# Landmarks at integer offsets, so that from the origin at yaw 0 the first two
# sit exactly on the edges of a 90 degree view (bearings pi/4 and -pi/4) and
# the third exactly behind, on the edge of a 360 degree view (bearing pi).
EDGE_WORLD = LandmarkWorld(
    np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]]), np.full((3, 2), math.sqrt(0.5)), (-50, -50, 50, 50), 0
)
# From the origin facing +x, facing the first landmark, and far off with every landmark behind.
EDGE_POSES = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, math.pi / 4], [100.0, 0.0, 0.0]])


class TestRenderObservation:
    @given(
        poses=pose_batches(),
        bins=st.sampled_from([1, 2, 7, 32]),
        fov_deg=st.sampled_from([360.0, 90.0]) | st.floats(math.degrees(1e-3), 360.0),
    )
    @example(poses=np.array([[*BATCH_WORLD.positions[3], 0.5], [0.0, 0.0, -math.pi]]), bins=1, fov_deg=360.0)
    def test_batch_equals_each_pose_alone(self, poses, bins, fov_deg):
        config = RunConfig(bins=bins, fov_deg=fov_deg)
        batch = render_observation(BATCH_WORLD, poses, config)
        alone = [render_observation(BATCH_WORLD, np.array([row]), config) for row in poses.tolist()]
        reference = [render_reference(BATCH_WORLD, *row, bins, math.radians(fov_deg)) for row in poses.tolist()]
        assert batch.shape == (len(poses), bins * BATCH_WORLD.signature_dim)
        assert batch.tobytes() == np.concatenate(alone).tobytes() == np.concatenate(reference).tobytes()

    @pytest.mark.parametrize("fov_deg", [90.0, 360.0])
    @pytest.mark.parametrize("bins", [1, 2, 7, 32])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_equals_add_at_renderer_bit_for_bit(self, seed, bins, fov_deg):
        config = RunConfig(bins=bins, fov_deg=fov_deg)
        world, walk, jittered = walk_and_jittered(seed)
        assert len(walk) > 129
        for poses in (walk, jittered, *(jittered[:count] for count in (1, 63, 64, 65, 129))):
            assert render_observation(world, poses, config).tobytes() == render_add_at(world, poses, config).tobytes()

    @pytest.mark.parametrize("fov_deg", [90.0, 360.0])
    @pytest.mark.parametrize("bins", [1, 2, 7, 32])
    def test_view_edges_equal_add_at_renderer_bit_for_bit(self, bins, fov_deg):
        config = RunConfig(bins=bins, fov_deg=fov_deg)
        poses = np.tile(EDGE_POSES, (22, 1))  # 66 rows: across the edge of the first block
        features = render_observation(EDGE_WORLD, poses, config)
        assert features.tobytes() == render_add_at(EDGE_WORLD, poses, config).tobytes()
        if fov_deg == 90.0:  # only the two landmarks on the edges are in view from the origin
            assert np.any(features[0] != 0.0) and np.all(features[2] == 0.0)
        else:
            behind = LandmarkWorld(EDGE_WORLD.positions[2:], EDGE_WORLD.signatures[2:], EDGE_WORLD.bounds, 0)
            assert np.any(render_observation(behind, EDGE_POSES[:1], config) != 0.0)

    def test_dead_ahead_center_bin(self):
        sig = np.zeros(4)
        sig[0] = 1.0
        world = single_landmark_world(1.0, 0.0, sig)
        features = render(world, (0, 0, 0.0), bins=9, fov=math.pi / 2)
        grid = features.reshape(9, 4)
        # intensity 1/(1+1) lands entirely in the middle bin
        assert grid[4, 0] == pytest.approx(0.5)
        grid[4, 0] = 0.0
        assert np.all(grid == 0.0)

    def test_landmark_behind_invisible(self):
        world = single_landmark_world(-1.0, 0.0, [1, 0, 0, 0])
        features = render(world, (0, 0, 0.0), bins=9, fov=math.pi / 2)
        assert np.all(features == 0.0)

    def test_fov_boundary_exclusive_outside(self):
        eps = 1e-6
        beta = math.pi / 4 + eps
        world = single_landmark_world(math.cos(beta), math.sin(beta), [1, 0, 0, 0])
        features = render(world, (0, 0, 0.0), bins=9, fov=math.pi / 2)
        assert np.all(features == 0.0)

    def test_rotation_by_one_bin_shifts_pattern(self):
        bins, fov = 9, math.pi / 2
        bin_width = fov / bins
        # place the landmark on the center of bin 6 so mass is not split
        beta = (6 + 0.5) * bin_width - fov / 2
        world = single_landmark_world(math.cos(beta), math.sin(beta), [1, 0])
        base = render(world, (0, 0, 0.0), bins, fov)
        rotated = render(world, (0, 0, bin_width), bins, fov)
        base_grid = base.reshape(bins, 2)
        rot_grid = rotated.reshape(bins, 2)
        assert base_grid[6, 0] == pytest.approx(0.5)
        assert rot_grid[5, 0] == pytest.approx(0.5)

    def test_interpolation_splits_between_adjacent_bins(self):
        bins, fov = 9, math.pi / 2
        bin_width = fov / bins
        # bearing exactly on the edge between bins 4 and 5: mass splits evenly
        beta = bin_width / 2
        world = single_landmark_world(math.cos(beta), math.sin(beta), [1.0])
        grid = render(world, (0, 0, 0.0), bins, fov)
        assert grid[4] == pytest.approx(0.25)
        assert grid[5] == pytest.approx(0.25)
        assert grid.sum() == pytest.approx(0.5)

    def test_features_continuous_in_yaw(self):
        world = generate_world(RunConfig(seed=2, n_landmarks=40, signature_dim=4), BOUNDS)
        a = render(world, (50, 50, 0.3), 32, math.pi / 2)
        b = render(world, (50, 50, 0.3 + 1e-4), 32, math.pi / 2)
        assert np.linalg.norm(a - b) < 0.05

    def test_dimension_is_bins_times_channels(self):
        world = generate_world(RunConfig(seed=2, n_landmarks=17, signature_dim=6), BOUNDS)
        features = render(world, (50, 50, 0.0), 13, math.pi / 2)
        assert features.shape == (13 * 6,)
        assert np.all(features >= 0)
        assert np.all(np.isfinite(features))

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(9)
        positions = rng.uniform(-10, 10, size=(20, 2))
        signatures = np.abs(rng.normal(size=(20, 3)))
        signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
        world = LandmarkWorld(positions, signatures, (-50, -50, 50, 50), 0)
        x, y, yaw = 1.0, -2.0, 0.7
        base = render(world, (x, y, yaw), 16, math.pi / 2)

        phi, tx, ty = 1.1, 4.0, -3.0
        c, s = math.cos(phi), math.sin(phi)
        moved = positions @ np.array([[c, s], [-s, c]]) + [tx, ty]
        world2 = LandmarkWorld(moved, signatures, (-80, -80, 80, 80), 0)
        pose2 = (c * x - s * y + tx, s * x + c * y + ty, wrap_angle(yaw + phi))
        transformed = render(world2, pose2, 16, math.pi / 2)
        np.testing.assert_allclose(transformed, base, atol=1e-9)

    def test_approach_increases_intensity(self):
        world = single_landmark_world(10.0, 0.0, [1, 0])
        prev = -1.0
        for x in (0.0, 2.0, 4.0, 6.0):
            features = render(world, (x, 0, 0.0), 9, math.pi / 2)
            total = features.sum()
            assert total > prev
            prev = total


C_SET = kernels.load()


@pytest.mark.skipif(C_SET is kernels.NUMPY, reason="no C compiler: the NumPy set is in use")
class TestCRenderer:
    """The C per-pair loop against the NumPy renderer and the np.add.at
    reference, bit for bit."""

    @pytest.mark.parametrize("bins", [1, 2, 7])
    def test_bearings_of_minus_pi_bin_as_pi(self, bins):
        """Both loops, given the same planes, map a bearing of exactly -pi
        to pi, which a 360-degree view sees in its last bin."""
        rng = np.random.default_rng(bins)
        planes = rng.normal(size=(3, 4, 6))
        planes[2] = rng.uniform(-math.pi, math.pi, size=(4, 6))
        planes[2, :, ::2] = -math.pi
        signatures = np.abs(rng.normal(size=(6, 3)))
        out = [np.full((4, bins * 3), np.nan) for _ in range(2)]
        for kernel_set, features in zip((C_SET, kernels.NUMPY), out):
            kernel_set.render(planes, signatures, bins, math.pi, 2 * math.pi / bins, features)
        assert out[0].tobytes() == out[1].tobytes()
        assert np.all(out[0][:, -3:] > 0.0)  # every pose sees its -pi landmarks at pi

    @staticmethod
    def assert_all_equal(monkeypatch, world, poses, config):
        """The C and the NumPy renderer give the add.at reference's bytes; returns the C features."""
        out = []
        for kernel_set in (C_SET, kernels.NUMPY):
            monkeypatch.setattr(kernels, "load", lambda kernel_set=kernel_set: kernel_set)
            out.append(render_observation(world, poses, config))
        reference = render_add_at(world, poses, config).tobytes()
        assert out[0].tobytes() == reference and out[1].tobytes() == reference
        return out[0]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(bins=32, fov_deg=90.0),
            dict(bins=1, fov_deg=360.0),
            dict(bins=7, fov_deg=200.0, signature_dim=3, n_landmarks=37),
        ],
        ids=["32-bins-90", "1-bin-360", "7-bins-200-S3-37"],
    )
    @pytest.mark.parametrize("seed", [5, 11, 0])
    def test_walk_and_jittered_walk(self, monkeypatch, seed, overrides):
        world, walk, jittered = walk_and_jittered(seed, **overrides)
        for poses in (walk, jittered, jittered[:1], jittered[:65]):
            self.assert_all_equal(monkeypatch, world, poses, RunConfig(seed=seed, **overrides))

    @pytest.mark.parametrize("fov_deg", [90.0, 360.0])
    @pytest.mark.parametrize("bins", [1, 2, 7, 32])
    def test_view_edges(self, monkeypatch, bins, fov_deg):
        poses = np.tile(EDGE_POSES, (22, 1))  # 66 rows: across the edge of the first block
        self.assert_all_equal(monkeypatch, EDGE_WORLD, poses, RunConfig(bins=bins, fov_deg=fov_deg))

    @pytest.mark.parametrize("bins", [1, 7, 32])
    def test_poses_on_landmarks(self, monkeypatch, bins):
        """A landmark at range 0 weighs 1 / (1 + 0), at the bearing arctan2(0, 0) - yaw:
        dead ahead at yaw 0, so each of those poses sees at least its own landmark."""
        n = len(BATCH_WORLD.positions)
        for yaws in (np.zeros(n), np.linspace(-math.pi, math.pi, n)):
            poses = np.column_stack([BATCH_WORLD.positions, yaws])
            features = self.assert_all_equal(monkeypatch, BATCH_WORLD, poses, RunConfig(bins=bins, fov_deg=90.0))
            # a unit-norm signature of non-negative channels sums to at least 1
            assert np.all(features[yaws == 0.0].sum(axis=1) >= 1.0 - 1e-12)

    def test_no_landmark_in_view(self, monkeypatch):
        far = EDGE_POSES[2:]  # every landmark behind
        features = self.assert_all_equal(monkeypatch, EDGE_WORLD, far, RunConfig(bins=7, fov_deg=90.0))
        assert features.tobytes() == np.zeros((1, 14)).tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: replace(EDGE_WORLD, positions=np.array([[1.0, 1.0], [math.inf, -1.0], [-1.0, 0.0]])), "non-finite"),
        (lambda: replace(EDGE_WORLD, signatures=np.full((3, 2), 0.5)), "not unit-norm"),
        (lambda: replace(EDGE_WORLD, bounds=(-50, -50, math.inf, 50)), "non-finite bounds"),
        (lambda: replace(EDGE_WORLD, bounds=(-50, 50, 50, 50)), "empty bounds"),
    ],
    ids=["inf-position", "non-unit-signature", "inf-bound", "empty-bound"],
)
def test_a_world_built_directly_is_checked_as_a_loaded_one(build, message):
    """A library caller that builds a world gets the checks that load_world makes."""
    with pytest.raises(ValueError, match=message):
        build()


class TestWorldRoundTrip:
    def test_save_load_exact(self, tmp_path):
        world = generate_world(RunConfig(seed=13, n_landmarks=12, signature_dim=5), BOUNDS)
        file = tmp_path / "world.json"
        save_world(world, file)
        loaded = load_world(file)
        np.testing.assert_array_equal(loaded.positions, world.positions)
        np.testing.assert_array_equal(loaded.signatures, world.signatures)
        assert loaded.seed == world.seed
        assert loaded.bounds == world.bounds

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda doc: doc.update(landmarks=[]), "no landmarks"),
            (lambda doc: doc["landmarks"][1].update(signature=[0.5] * 5), "not unit-norm"),
            (lambda doc: doc["landmarks"][2].update(signature=[1.0, 0.0]), "inhomogeneous"),
            (lambda doc: [lm.update(signature=1.0) for lm in doc["landmarks"]], "do not fit"),
            (lambda doc: [lm.update(position=[1.0, 2.0, 3.0]) for lm in doc["landmarks"]], "do not fit"),
            (lambda doc: doc["landmarks"][0].update(position=[math.inf, 0.0]), "non-finite"),
            (lambda doc: doc.update(bounds=[0.0, 0.0, -1.0, 100.0]), "empty bounds"),
            (lambda doc: doc.update(bounds=[0.0, 0.0, math.inf, 100.0]), "non-finite"),
            (lambda doc: doc.update(bounds=[0.0, 0.0, 100.0]), r"bounds have shape \(3,\), expected \(4,\)"),
            (lambda doc: doc.update(bounds=[[0], [0], [100], [100]]), r"bounds have shape \(4, 1\), expected \(4,\)"),
            (lambda doc: doc.pop("bounds"), "missing key 'bounds'"),
            (lambda doc: doc.pop("seed"), "missing key 'seed'"),
            (lambda doc: doc["landmarks"][3].pop("signature"), "missing key 'signature'"),
            (lambda doc: doc.update(landmarks=[[1.0, 2.0]]), "list indices"),
            (lambda doc: doc.update(seed=math.inf), "cannot convert float infinity"),
            # a corruption that returns text is written as it is
            (lambda doc: json.dumps(doc).replace('"seed": 13', '"seed": 1e999'), "cannot convert float infinity"),
            (lambda doc: doc.update(seed=1.5), "seed 1.5 is not an integer"),
            (lambda doc: doc.update(seed=True), "seed True is not an integer"),
            (lambda doc: doc.update(seed="7"), "seed '7' is not an integer"),
            # numbers as json.dumps never writes a float
            (lambda doc: doc["landmarks"][0].update(position=["1.5", "2"]), r"'1.5' \(str\) is not a number"),
            (
                lambda doc: doc["landmarks"][1].update(signature=list(map(str, doc["landmarks"][1]["signature"]))),
                "is not a number",
            ),
            (lambda doc: doc["bounds"].__setitem__(3, True), r"True \(bool\) is not a number"),
        ],
        ids=[
            "no-landmarks", "non-unit-signature", "ragged-signatures", "scalar-signatures",
            "3d-positions", "inf-position", "empty-bounds", "inf-bound", "three-bounds", "nested-bounds",
            "no-bounds", "no-seed", "no-signature", "landmark-not-an-object", "infinite-seed", "seed-1e999",
            "fractional-seed", "bool-seed", "string-seed", "string-position", "string-signature", "bool-bound",
        ],
    )
    def test_load_rejects_bad_files(self, tmp_path, corrupt, message):
        file = tmp_path / "world.json"
        save_world(generate_world(RunConfig(seed=13, n_landmarks=12, signature_dim=5), BOUNDS), file)
        doc = json.loads(file.read_text())
        text = corrupt(doc)
        file.write_text(text if isinstance(text, str) else json.dumps(doc))
        with pytest.raises(ValueError, match=message) as info:
            load_world(file)
        assert str(info.value).startswith(f"{file}: ")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_garbled_file_gives_one_value_error(self, tmp_path, data):
        file = tmp_path / "world.json"
        save_world(generate_world(RunConfig(seed=3, n_landmarks=4, signature_dim=3), BOUNDS), file)
        raw = bytearray(file.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for at in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4), label="at"):
                raw[at] = data.draw(st.integers(0, 255), label="byte")
        file.write_bytes(bytes(raw))
        try:
            world = load_world(file)
        except ValueError as exc:
            assert str(exc).startswith(f"{file}: ")
        else:  # a garbled digit can leave a valid world; it must still be one
            assert world.positions.shape[0] >= 1
            np.testing.assert_allclose(np.linalg.norm(world.signatures, axis=1), 1.0, atol=1e-9)
