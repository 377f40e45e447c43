"""Config parsing, path synthesis, file round-trips, SVG emission, and the
end-to-end commands."""

import json
import math
import re

import numpy as np
import pytest

from skytrack import augmentation as aug
from skytrack import cli, learner
from skytrack.geometry import Path, Point2, path_length, sum_angle_change
from skytrack.world import generate_world, Rect


class TestParseConfig:
    def test_defaults_returned_on_empty(self):
        config = cli.parse_config("")
        assert config == cli.DEFAULTS

    def test_overrides_and_comments(self):
        text = "seed = 9  # comment\n\nn_landmarks = 17\nout_dir = runs/x\n"
        config = cli.parse_config(text)
        assert config["seed"] == 9
        assert config["n_landmarks"] == 17
        assert config["out_dir"] == "runs/x"

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config("bogus = 1\n")

    def test_malformed_line(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config("just words\n")

    def test_bad_value(self):
        with pytest.raises(cli.ConfigError, match="bad value"):
            cli.parse_config("seed = banana\n")

    def test_list_value(self):
        config = cli.parse_config("ablation_levels = 1,2,4\n")
        assert config["ablation_levels"] == [1, 2, 4]

    def test_resolved_copy_reparses_identically(self, tmp_path):
        config = cli.parse_config("seed = 3\nfov_deg = 45.0\n")
        cli.write_resolved_config(config, tmp_path)
        text = (tmp_path / "config.resolved.txt").read_text()
        assert cli.parse_config(text) == config


class TestGenerateRoute:
    def test_deterministic(self):
        a = cli.generate_route(0, "p", 10, 50.0, 2.0)
        b = cli.generate_route(0, "p", 10, 50.0, 2.0)
        assert a.waypoints == b.waypoints

    def test_id_sensitivity(self):
        a = cli.generate_route(0, "p", 10, 50.0, 2.0)
        b = cli.generate_route(0, "q", 10, 50.0, 2.0)
        assert a.waypoints != b.waypoints

    def test_exact_length_and_sac(self):
        route = cli.generate_route(4, "p", 61, 150.0, 5.0)
        assert path_length(route) == pytest.approx(150.0)
        assert sum_angle_change(route) == pytest.approx(5.0)

    def test_zero_budget_is_straight(self):
        route = cli.generate_route(1, "p", 8, 20.0, 0.0)
        assert sum_angle_change(route) == pytest.approx(0.0)

    def test_budget_too_large(self):
        with pytest.raises(cli.ConfigError):
            cli.generate_route(0, "p", 3, 10.0, 4.0)


class TestPathRoundTrip:
    def test_save_load_exact(self, tmp_path):
        route = cli.generate_route(7, "p", 12, 40.0, 1.5)
        file = tmp_path / "p.csv"
        cli.save_path(route, file)
        loaded = cli.load_path(file, "p")
        assert loaded.waypoints == route.waypoints

    def test_single_waypoint_rejected(self, tmp_path):
        file = tmp_path / "one.csv"
        file.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="length >= 2"):
            cli.load_path(file)

    def test_malformed_row(self, tmp_path):
        file = tmp_path / "bad.csv"
        file.write_text("x,y\n1.0,2.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            cli.load_path(file)

    def test_wrong_header(self, tmp_path):
        file = tmp_path / "hdr.csv"
        file.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            cli.load_path(file)


class TestDatasetRoundTrip:
    def test_npz_and_sidecar(self, tmp_path):
        world = generate_world(0, 30, 4, Rect(-20, -20, 40, 40))
        route = Path((Point2(0, 0), Point2(6, 0)), "p")
        cfg = aug.AugmentationConfig(n_augmented=2, capture_radius=0.4, seed=0)
        ds = aug.build_dataset(route, cfg, world)
        data_file = tmp_path / "d"  # no suffix: the file must keep the given name
        sidecar = tmp_path / "d.json"
        cli.save_dataset(ds, data_file, sidecar)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["d", "d.json"]
        with np.load(data_file, allow_pickle=False) as arrays:
            assert arrays["features"].shape == (len(ds.samples), ds.dim)
            assert arrays["features"].dtype == np.float64
            assert arrays["targets"].dtype == np.float64
            assert arrays["sweep_index"].dtype == arrays["step_index"].dtype == np.int64
            assert arrays["path_id"].dtype.kind == "U"
        loaded = cli.load_dataset(data_file, sidecar, fov=cfg.fov)
        assert len(loaded.samples) == len(ds.samples)
        # Bit for bit: array_equal would let -0.0 == 0.0 through.
        assert loaded.features().tobytes() == ds.features().tobytes()
        assert loaded.targets().tobytes() == ds.targets().tobytes()
        assert loaded.feature_mean.tobytes() == ds.feature_mean.tobytes()
        assert loaded.feature_std.tobytes() == ds.feature_std.tobytes()
        assert [s.meta for s in loaded.samples] == [s.meta for s in ds.samples]
        assert all(type(v) is t for s in loaded.samples for v, t in zip(s.meta, (str, int, int)))
        doc = json.loads(sidecar.read_text())
        assert set(doc["rng_streams"]) == {"0", "1"}


class TestSvgEmission:
    def test_overlay_marker_count(self, tmp_path):
        route = cli.generate_route(0, "p", 10, 30.0, 1.0)
        world = generate_world(0, 20, 4, cli.routes_bounding_box([route], 5.0))
        from skytrack.simulator import OraclePolicy, rollout

        cfg = aug.AugmentationConfig(n_augmented=1, capture_radius=0.4, seed=0)
        log = rollout(OraclePolicy(), world, route, cfg)
        file = tmp_path / "overlay.svg"
        cli.emit_overlay_svg(route, log, file)
        text = file.read_text()
        assert text.count("<circle") == 10
        assert text.count("<polyline") == 1

    def test_line_chart_markers(self, tmp_path):
        file = tmp_path / "line.svg"
        cli.emit_line_svg([1, 4, 8, 16], [0.4, 0.3, 0.2, 0.1], "title", file)
        text = file.read_text()
        assert text.count("<circle") == 4
        assert "title" in text

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.emit_line_svg([1, 2], [3.0, 4.0], "t", a)
        cli.emit_line_svg([1, 2], [3.0, 4.0], "t", b)
        assert a.read_bytes() == b.read_bytes()


def small_config(tmp_path, **overrides):
    # a fast, downscaled scenario for end-to-end command tests
    lines = {
        "out_dir": str(tmp_path / "run"),
        "n_waypoints": 9,
        "path_length": 20.0,
        "sac_budget": 1.0,
        "n_landmarks": 30,
        "n_augmented": 2,
        "epochs": 2,
        "hidden_units": 16,
        "projection_dim": 8,
        "ablation_levels": "1,2",
        "n_test_sweeps": 1,
    }
    lines.update(overrides)
    file = tmp_path / "config.txt"
    file.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return file


class TestCommands:
    def test_gen_writes_world_and_paths(self, tmp_path):
        assert cli.main(["gen", "--config", str(small_config(tmp_path))]) == 0
        run = tmp_path / "run"
        assert (run / "world.json").exists()
        assert (run / "path_00.csv").exists()
        assert (run / "config.resolved.txt").exists()

    def test_gen_deterministic(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        first = (tmp_path / "run" / "path_00.csv").read_bytes()
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "path_00.csv").read_bytes() == first

    def test_pipeline_artifacts_and_determinism(self, tmp_path):
        cfg = small_config(tmp_path)
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            assert cli.main(["gen", "--config", str(cfg), "--out-dir", str(run)]) == 0
            assert cli.main(["pipeline", "--config", str(cfg), "--out-dir", str(run)]) == 0
        for suffix in ("dataset.npz", "model.json", "trajectory.csv", "metrics.json", "overlay.svg"):
            assert (runs[0] / f"path_00_{suffix}").exists()
        for name in ("path_00_metrics.json", "path_00_model.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_rerun_in_same_out_dir(self, tmp_path):
        cfg = small_config(tmp_path)
        run = tmp_path / "run"
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        outputs = []
        for _ in range(2):
            assert cli.main(["pipeline", "--config", str(cfg)]) == 0
            assert cli.main(["ablation", "--config", str(cfg)]) == 0
            outputs.append([(run / name).read_bytes() for name in ("path_00_model.json", "ablation.csv")])
        assert outputs[0] == outputs[1]
        assert cli._path_files(run) == [run / "path_00.csv"]

    def test_manifest_sample_counts(self, tmp_path):
        cfg = small_config(tmp_path)
        cli.main(["gen", "--config", str(cfg)])
        cli.main(["pipeline", "--config", str(cfg)])
        run = tmp_path / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        assert len(manifest) == 1
        with np.load(run / "path_00_dataset.npz", allow_pickle=False) as arrays:
            rows = arrays["features"].shape[0]
        assert manifest[0]["n_samples"] == rows > 0

    def test_ablation_report_shape(self, tmp_path):
        cfg = small_config(tmp_path)
        cli.main(["gen", "--config", str(cfg)])
        assert cli.main(["ablation", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        text = (run / "ablation.csv").read_text().strip().splitlines()
        assert text[0] == "k,angle_mse,mctd,termination"
        assert len(text) == 3  # header + one row per level
        assert (run / "ablation.svg").exists()

    def test_ablation_reuses_sweeps_across_levels(self, tmp_path, monkeypatch):
        # Levels out of order: each must still train on exactly sweeps 0..k-1,
        # and every training sweep is rendered once.
        levels = [2, 1, 3]
        config = cli.load_config(small_config(tmp_path, ablation_levels="2,1,3"))
        assert cli.main(["gen", "--config", str(tmp_path / "config.txt")]) == 0
        world, routes = cli._load_scenario(config)
        trained, sweeps_rendered = [], []
        real_train, real_optimal, real_jittered = learner.train, aug.sweep_optimal, aug.sweep_jittered

        def train(dataset, *args, **kwargs):
            trained.append(dataset)
            return real_train(dataset, *args, **kwargs)

        def sweep_optimal(*args):
            sweeps_rendered.append(0)
            return real_optimal(*args)

        def sweep_jittered(path, config, world, sweep_index):
            if sweep_index < aug.TEST_SWEEP_BASE:
                sweeps_rendered.append(sweep_index)
            return real_jittered(path, config, world, sweep_index)

        monkeypatch.setattr(learner, "train", train)
        monkeypatch.setattr(aug, "sweep_optimal", sweep_optimal)
        monkeypatch.setattr(aug, "sweep_jittered", sweep_jittered)
        rows = cli.run_ablation(config, world, routes[0], levels)
        assert [r["k"] for r in rows] == levels
        assert sweeps_rendered == [0, 1, 2]
        monkeypatch.undo()
        for k, dataset in zip(levels, trained):
            expected = aug.build_dataset(routes[0], cli.augmentation_config(config, k), world)
            assert dataset.features().tobytes() == expected.features().tobytes()
            assert dataset.targets().tobytes() == expected.targets().tobytes()
            assert dataset.feature_mean.tobytes() == expected.feature_mean.tobytes()
            assert dataset.feature_std.tobytes() == expected.feature_std.tobytes()
            assert [s.meta for s in dataset.samples] == [s.meta for s in expected.samples]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bins", 0),
            ("epochs", 0),
            ("batch_size", 0),
            ("lr_halving_period", 0),
            ("n_paths", 0),
            ("n_augmented", 0),
            ("n_test_sweeps", 0),
            ("projection_dim", 0),
            ("hidden_units", 0),
            ("n_landmarks", 0),
            ("signature_dim", 0),
            ("n_waypoints", 1),
            ("lr0", 0.0),
            ("lr0", "nan"),
            ("fov_deg", 0.0),
            ("pos_jitter", -1.0),
            ("yaw_jitter", -0.1),
            ("command_gain", 0.0),
            ("command_gain", 1.5),
            ("step", 0.0),
            ("step", 2.5),  # above capture_radius = 2.0
            ("ablation_levels", ""),
            ("ablation_levels", "1,0"),
        ],
    )
    def test_invalid_config_exits_1_before_any_work(self, tmp_path, capsys, key, value):
        run = tmp_path / "run"
        assert cli.main(["gen", "--config", str(small_config(tmp_path))]) == 0
        before = sorted(run.iterdir())
        bad = small_config(tmp_path, **{key: value})
        for command in ("gen", "pipeline", "ablation"):
            assert cli.main([command, "--config", str(bad)]) == 1
            assert f"config error: {key} = " in capsys.readouterr().err
        assert sorted(run.iterdir()) == before
        assert not list(run.glob("*_dataset.npz"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nope = 1\n")
        assert cli.main(["gen", "--config", str(bad)]) == 1

    def test_missing_world_exit_code(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfg)]) == 2
