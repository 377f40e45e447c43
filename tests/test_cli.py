"""Config parsing, path synthesis, file round-trips, SVG emission, and the
end-to-end commands."""

import contextlib
import ctypes
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import skytrack
from conftest import children
from skytrack import augmentation as aug
from skytrack import cli, kernels, learner, metrics
from skytrack.config import ConfigError, RunConfig, format_config, load_config, parse_config
from skytrack.geometry import Path, generate_route, load_path, path_length, save_path, sum_angle_change
from skytrack.world import Rect, generate_world, routes_bounding_box

SRC = str(FilePath(skytrack.__file__).resolve().parent.parent)
# How long an ablation child may outlive its SIGKILLed parent: a render job
# finishes its sweeps, and a level worker the level it is on (about a second
# in that test), and exits.
LEVEL_BOUND_S = 20.0


def set_child_subreaper(on: bool) -> None:
    """Adopt (or stop adopting) orphaned descendants of this process."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(36, int(on), 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestParseConfig:
    def test_defaults_returned_on_empty(self):
        config = parse_config("")
        assert config == RunConfig()

    def test_overrides_and_comments(self):
        text = "seed = 9  # comment\n\nn_landmarks = 17\nout_dir = runs/x\n"
        config = parse_config(text)
        assert config.seed == 9
        assert config.n_landmarks == 17
        assert config.out_dir == "runs/x"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("bogus = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("seed = banana\n")

    def test_list_value(self):
        config = parse_config("ablation_levels = 1,2,4\n")
        assert config.ablation_levels == (1, 2, 4)

    def test_resolved_copy_reparses_identically(self):
        config = parse_config("seed = 3\nfov_deg = 45.0\n")
        assert parse_config(format_config(config)) == config

    def test_resolved_config_bytes(self, tmp_path):
        # Every key in order, floats in Python's shortest repr, the levels as
        # written, and out_dir as given on the command line.
        cfg = tmp_path / "config.txt"
        cfg.write_text("seed = 7\nlr0 = 1e-4\npath_length = 1e3\nfov_deg = 45\nablation_levels = 2, 1,3\n")
        out = tmp_path / "elsewhere"
        assert cli.main(["gen", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "config.resolved.txt").read_bytes() == (
            "seed = 7\n"
            f"out_dir = {out}\n"
            "n_paths = 1\n"
            "n_waypoints = 61\n"
            "path_length = 1000.0\n"
            "sac_budget = 5.0\n"
            "world_margin = 10.0\n"
            "n_landmarks = 200\n"
            "signature_dim = 8\n"
            "bins = 32\n"
            "fov_deg = 45.0\n"
            "n_augmented = 16\n"
            "pos_jitter = 1.0\n"
            "yaw_jitter = 0.1\n"
            "step = 0.2\n"
            "capture_radius = 2.0\n"
            "command_gain = 0.2\n"
            "lr0 = 0.0001\n"
            "batch_size = 64\n"
            "epochs = 100\n"
            "lr_halving_period = 25\n"
            "projection_dim = 128\n"
            "hidden_units = 512\n"
            "ablation_levels = 2,1,3\n"
            "n_test_sweeps = 4\n"
        ).encode()


class TestGenerateRoute:
    def test_deterministic(self):
        a = generate_route(RunConfig(seed=0, n_waypoints=10, path_length=50.0, sac_budget=2.0), "p")
        b = generate_route(RunConfig(seed=0, n_waypoints=10, path_length=50.0, sac_budget=2.0), "p")
        assert np.array_equal(a.waypoints, b.waypoints)

    def test_id_sensitivity(self):
        a = generate_route(RunConfig(seed=0, n_waypoints=10, path_length=50.0, sac_budget=2.0), "p")
        b = generate_route(RunConfig(seed=0, n_waypoints=10, path_length=50.0, sac_budget=2.0), "q")
        assert not np.array_equal(a.waypoints, b.waypoints)

    def test_exact_length_and_sac(self):
        route = generate_route(RunConfig(seed=4, n_waypoints=61, path_length=150.0, sac_budget=5.0), "p")
        assert path_length(route) == pytest.approx(150.0)
        assert sum_angle_change(route) == pytest.approx(5.0)

    def test_zero_budget_is_straight(self):
        route = generate_route(RunConfig(seed=1, n_waypoints=8, path_length=20.0, sac_budget=0.0), "p")
        assert sum_angle_change(route) == pytest.approx(0.0)

    def test_budget_too_large(self):
        with pytest.raises(ConfigError):
            RunConfig(n_waypoints=3, path_length=10.0, sac_budget=4.0)


class TestPathRoundTrip:
    def test_save_load_exact(self, tmp_path):
        route = generate_route(RunConfig(seed=7, n_waypoints=12, path_length=40.0, sac_budget=1.5), "p")
        file = tmp_path / "p.csv"
        save_path(route, file)
        loaded = load_path(file)
        assert loaded.id == "p"  # the file's stem
        # Bit for bit: array_equal would let -0.0 == 0.0 through.
        assert loaded.waypoints.dtype == np.float64 and loaded.waypoints.tobytes() == route.waypoints.tobytes()

    def test_single_waypoint_rejected(self, tmp_path):
        file = tmp_path / "one.csv"
        file.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="length >= 2"):
            load_path(file)

    def test_malformed_row(self, tmp_path):
        file = tmp_path / "bad.csv"
        file.write_text("x,y\n1.0,2.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_path(file)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_waypoint_names_the_file(self, tmp_path, value):
        file = tmp_path / "p.csv"
        file.write_text(f"x,y\n1.0,2.0\n3.0,{value}\n5.0,6.0\n")
        with pytest.raises(ValueError, match="non-finite") as info:
            load_path(file)
        assert str(info.value).startswith(f"{file}: ")

    def test_wrong_header(self, tmp_path):
        file = tmp_path / "hdr.csv"
        file.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_path(file)

    def test_repeated_waypoint_names_the_file(self, tmp_path):
        file = tmp_path / "p.csv"
        file.write_text("x,y\n1.0,2.0\n3.0,4.0\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(ValueError, match="zero-length segment at waypoint 1") as info:
            load_path(file)
        assert str(info.value).startswith(f"{file}: ")

    @pytest.mark.parametrize(
        "raw, message",
        [(b"x,y\n1,2\n\xff\xfe,3\n", "can't decode"), (b"x,y\n1,2\n" + b"9" * 200_000 + b",3\n", "field limit")],
        ids=["not-utf8", "field-too-large"],
    )
    def test_unreadable_bytes(self, tmp_path, raw, message):
        file = tmp_path / "p.csv"
        file.write_bytes(raw)
        with pytest.raises(ValueError, match=message) as info:
            load_path(file)
        assert str(info.value).startswith(f"{file}: ")


class TestDatasetRoundTrip:
    def test_npz_and_sidecar(self, tmp_path):
        world = generate_world(RunConfig(seed=0, n_landmarks=30, signature_dim=4), Rect(-20, -20, 40, 40))
        route = Path([(0, 0), (6, 0)], "p")
        cfg = RunConfig(n_augmented=2, capture_radius=0.4, seed=0)
        ds = aug.build_dataset(route, cfg, world)
        data_file = tmp_path / "d"  # no suffix: the file must keep the given name
        sidecar = tmp_path / "d.json"
        aug.save_dataset(ds, data_file, sidecar, route.id, cfg.n_augmented)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["d", "d.json"]
        with np.load(data_file, allow_pickle=False) as arrays:
            assert arrays.files == list(aug.DATASET_ARRAYS)
            assert arrays["features"].shape == (len(ds.samples), ds.dim)
            assert arrays["features"].dtype == np.float64
            assert arrays["targets"].dtype == np.float64
        loaded = aug.load_dataset(data_file, sidecar)
        assert len(loaded.samples) == len(ds.samples)
        # Bit for bit: array_equal would let -0.0 == 0.0 through.
        for key in aug.DATASET_ARRAYS:
            a, b = getattr(loaded.samples, key), getattr(ds.samples, key)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
        assert loaded.feature_mean.tobytes() == ds.feature_mean.tobytes()
        assert loaded.feature_std.tobytes() == ds.feature_std.tobytes()
        doc = json.loads(sidecar.read_text())
        assert doc["rng_streams"] == {"0": "crc32(p)/0", "1": "crc32(p)/1"}

    @staticmethod
    def _truncate(data_file, sidecar):
        data_file.write_bytes(data_file.read_bytes()[:-100])

    @staticmethod
    def _drop_key(data_file, sidecar):
        with np.load(data_file) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "targets"}
        with open(data_file, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def _drop_row(data_file, sidecar):
        with np.load(data_file) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["targets"] = arrays["targets"][:-1]
        with open(data_file, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def _int_targets(data_file, sidecar):
        with np.load(data_file) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["targets"] = arrays["targets"].astype(np.int64)
        with open(data_file, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def _nan_feature(data_file, sidecar):
        with np.load(data_file) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["features"][3, 2] = np.nan
        with open(data_file, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def _sidecar_count(data_file, sidecar):
        doc = json.loads(sidecar.read_text())
        doc["n_samples"] += 1
        sidecar.write_text(json.dumps(doc))

    @staticmethod
    def _sidecar_dim(data_file, sidecar):
        doc = json.loads(sidecar.read_text())
        doc["dim"] -= 1
        sidecar.write_text(json.dumps(doc))

    @staticmethod
    def _sidecar_float_count(data_file, sidecar):
        doc = json.loads(sidecar.read_text())
        doc["n_samples"] = float(doc["n_samples"])  # equal to the row count, but not a JSON integer
        sidecar.write_text(json.dumps(doc))

    @staticmethod
    def _sidecar_float_dim(data_file, sidecar):
        doc = json.loads(sidecar.read_text())
        doc["dim"] = float(doc["dim"])
        sidecar.write_text(json.dumps(doc))

    @staticmethod
    def _central_directory(data_file, offset, value):
        """Set a 2-byte field of the first zip central directory entry."""
        raw = bytearray(data_file.read_bytes())
        at = raw.index(b"PK\x01\x02") + offset
        raw[at : at + 2] = value.to_bytes(2, "little")
        data_file.write_bytes(bytes(raw))

    @classmethod
    def _zip_method(cls, data_file, sidecar):
        cls._central_directory(data_file, 10, 99)

    @classmethod
    def _zip_version(cls, data_file, sidecar):
        cls._central_directory(data_file, 6, 125)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("_truncate", "bad dataset"),
            ("_drop_key", "missing array 'targets'"),
            ("_drop_row", r"targets has shape \(\d+,\), not \(\d+,\)"),
            ("_int_targets", "targets has dtype int64, not float64"),
            ("_nan_feature", "non-finite values"),
            ("_sidecar_count", r"features has shape \(\d+, 128\), not \(\d+, 128\)"),
            ("_sidecar_dim", r"features has shape \(\d+, 128\), not \(\d+, 127\)"),
            ("_sidecar_float_count", r"bad dataset \(sidecar .*\): n_samples \d+\.0 is not an integer"),
            ("_sidecar_float_dim", r"bad dataset \(sidecar .*\): dim 128\.0 is not an integer"),
            ("_zip_method", "compression method is not supported"),
            ("_zip_version", "zip file version 12.5"),
        ],
    )
    def test_load_rejects_bad_files(self, tmp_path, corrupt, message):
        world = generate_world(RunConfig(seed=0, n_landmarks=30, signature_dim=4), Rect(-20, -20, 40, 40))
        route = Path([(0, 0), (6, 0)], "p")
        ds = aug.build_dataset(route, RunConfig(n_augmented=2, capture_radius=0.4, seed=0), world)
        data_file, sidecar = tmp_path / "d.npz", tmp_path / "d.json"
        aug.save_dataset(ds, data_file, sidecar, route.id, 2)
        getattr(self, corrupt)(data_file, sidecar)
        with pytest.raises(ValueError, match=message) as info:
            aug.load_dataset(data_file, sidecar)
        assert str(info.value).startswith(f"{data_file}: ")

    @pytest.mark.parametrize(
        "head, message",
        [
            ([None, 1.0], r"None \(NoneType\) is not a number"),
            ([float("nan"), 1.0], "non-finite statistic"),
            ([0.0, -1.0], "feature_std below 1e-08"),
            ([True, 1.0], r"True \(bool\) is not a number"),
        ],
        ids=["null", "nan", "zero-and-negative", "bool"],
    )
    def test_load_rejects_sidecar_std_that_load_model_would(self, tmp_path, head, message):
        world = generate_world(RunConfig(seed=0, n_landmarks=30, signature_dim=4), Rect(-20, -20, 40, 40))
        route = Path([(0, 0), (6, 0)], "p")
        ds = aug.build_dataset(route, RunConfig(n_augmented=2, capture_radius=0.4, seed=0), world)
        data_file, sidecar = tmp_path / "d.npz", tmp_path / "d.json"
        aug.save_dataset(ds, data_file, sidecar, route.id, 2)
        doc = json.loads(sidecar.read_text())
        doc["feature_std"][:2] = head
        sidecar.write_text(json.dumps(doc))  # NaN is written as the bare token NaN, which json reads back
        with pytest.raises(ValueError, match=message) as info:
            aug.load_dataset(data_file, sidecar)
        assert str(info.value).startswith(f"{data_file}: ")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_garbled_file_gives_one_value_error(self, tmp_path, data):
        world = generate_world(RunConfig(seed=0, n_landmarks=10, signature_dim=2), Rect(-20, -20, 40, 40))
        route = Path([(0, 0), (2, 0)], "p")
        cfg = RunConfig(n_augmented=2, capture_radius=0.4, seed=0, bins=2)
        data_file, sidecar = tmp_path / "d.npz", tmp_path / "d.json"
        aug.save_dataset(aug.build_dataset(route, cfg, world), data_file, sidecar, route.id, cfg.n_augmented)
        file = data.draw(st.sampled_from([data_file, sidecar]), label="file")
        raw = bytearray(file.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for at in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4), label="at"):
                raw[at] = data.draw(st.integers(0, 255), label="byte")
        file.write_bytes(bytes(raw))
        try:
            loaded = aug.load_dataset(data_file, sidecar)
        except ValueError as exc:
            assert str(exc).startswith(f"{data_file}: ")
        else:  # a garbled value or digit can leave a valid dataset; it must still be one
            assert loaded.samples.features.shape == (len(loaded.samples), loaded.dim)
            assert np.isfinite(loaded.samples.features).all() and np.isfinite(loaded.samples.targets).all()


class TestSvgEmission:
    def test_overlay_marker_count(self, tmp_path):
        route = generate_route(RunConfig(seed=0, n_waypoints=10, path_length=30.0, sac_budget=1.0), "p")
        world = generate_world(RunConfig(seed=0, n_landmarks=20, signature_dim=4), routes_bounding_box([route], 5.0))
        from skytrack.simulator import OraclePolicy, rollout

        cfg = RunConfig(n_augmented=1, capture_radius=0.4, seed=0)
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


def edit_world(edit):
    """An edit of the run directory that applies ``edit`` to world.json's document."""

    def apply(run):
        doc = json.loads((run / "world.json").read_text())
        edit(doc)
        (run / "world.json").write_text(json.dumps(doc))

    return apply


def move_a_waypoint_to_the_end(run):
    rows = (run / "path_00.csv").read_text().splitlines(keepends=True)
    (run / "path_00.csv").write_text("".join(rows[:2] + rows[3:] + rows[2:3]))  # as many rows


class TestCommands:
    def test_gen_writes_world_and_paths(self, tmp_path):
        assert cli.main(["gen", "--config", str(small_config(tmp_path))]) == 0
        run = tmp_path / "run"
        assert (run / "world.json").exists()
        assert (run / "path_00.csv").exists()
        assert (run / "config.resolved.txt").exists()

    def test_each_command_keeps_its_resolved_config(self, tmp_path):
        # One out_dir, three commands at three epoch counts: no command
        # overwrites another's recipe.
        run = tmp_path / "run"
        for command, epochs in (("gen", 5), ("pipeline", 1), ("ablation", 2)):
            assert cli.main([command, "--config", str(small_config(tmp_path, epochs=epochs))]) == 0
        for name, epochs in (("config", 5), ("pipeline", 1), ("ablation", 2)):
            assert load_config(run / f"{name}.resolved.txt").epochs == epochs, name

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
        assert [route.id for route in cli._load_scenario(load_config(cfg))[1]] == ["path_00"]

    def test_pipeline_flies_only_the_configured_routes(self, tmp_path):
        # A later gen with fewer paths leaves the earlier path_01.csv and
        # path_02.csv behind, over another world; they are not this run's.
        run = tmp_path / "run"
        assert cli.main(["gen", "--config", str(small_config(tmp_path, n_paths=3))]) == 0
        cfg = small_config(tmp_path, n_paths=1, seed=7)
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        assert cli.main(["pipeline", "--config", str(cfg)]) == 0
        assert [record["path_id"] for record in json.loads((run / "manifest.json").read_text())] == ["path_00"]
        assert not (run / "path_01_model.json").exists()

    def test_missing_route_file_exits_2_naming_it(self, tmp_path, capsys):
        assert cli.main(["gen", "--config", str(small_config(tmp_path))]) == 0
        for command in ("pipeline", "ablation"):
            assert cli.main([command, "--config", str(small_config(tmp_path, n_paths=2))]) == 2
            assert f"{tmp_path / 'run' / 'path_01.csv'} missing; run 'gen' first" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "ablation"])
    def test_route_cut_at_a_row_boundary_exits_2_before_writing(self, tmp_path, capsys, command):
        cfg = small_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        route = run / "path_00.csv"
        route.write_text("".join(route.read_text().splitlines(keepends=True)[:6]))  # the header and 5 of 9 rows
        listing = sorted(run.iterdir())
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert f"{route}: 5 waypoints, expected n_waypoints = 9" in capsys.readouterr().err
        assert sorted(run.iterdir()) == listing

    @pytest.mark.parametrize("command", ["pipeline", "ablation"])
    @pytest.mark.parametrize(
        "made, edit, ran, file, key",
        [
            # gen's world is seed 5's, 40 landmarks wide 8; the command's config makes seed 9's, 7 wide 3.
            (dict(seed=5, n_landmarks=40, signature_dim=8), None, dict(seed=9, n_landmarks=7, signature_dim=3),
             "world.json", "positions"),
            ({}, edit_world(lambda doc: doc.update(seed=6)), {}, "world.json", "seed"),
            ({}, edit_world(lambda doc: doc["landmarks"][3]["signature"].reverse()), {}, "world.json", "signatures"),
            ({}, move_a_waypoint_to_the_end, {}, "path_00.csv", "waypoints"),
        ],
        ids=["another-config", "world-seed", "world-signature", "route-waypoint"],
    )
    def test_scenario_the_config_does_not_make_exits_2_before_writing(
        self, tmp_path, capsys, command, made, edit, ran, file, key
    ):
        assert cli.main(["gen", "--config", str(small_config(tmp_path, **made))]) == 0
        run = tmp_path / "run"
        if edit is not None:
            edit(run)
        before = {f.name: f.read_bytes() for f in run.iterdir()}
        assert cli.main([command, "--config", str(small_config(tmp_path, **ran))]) == 2
        assert f"{run / file}: {key!r} differs from what this config makes" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in run.iterdir()} == before

    @pytest.mark.parametrize("command", ["pipeline", "ablation"])
    def test_a_failed_run_leaves_no_earlier_runs_files(self, tmp_path, capsys, command):
        """A re-run whose training diverges (lr0 = 1e300) exits 2 and leaves
        none of the first run's files under the names it owns: a path's
        model, trajectory, metrics and overlay, or the ablation's table and
        plot. What it wrote before the failure is its own."""
        assert cli.main(["gen", "--config", str(small_config(tmp_path))]) == 0
        assert cli.main([command, "--config", str(small_config(tmp_path))]) == 0
        run = tmp_path / "run"
        if command == "pipeline":
            dataset, norm, *owned = cli.path_files(run, "path_00")
            written = [dataset, norm, run / "manifest.json", run / "manifest.csv"]
        else:
            owned, written = [run / "ablation.csv", run / "ablation.svg"], []
        assert all(f.exists() for f in owned)
        assert cli.main([command, "--config", str(small_config(tmp_path, lr0=1e300))]) == 2
        assert "diverged" in capsys.readouterr().err
        assert [f.name for f in owned if f.exists()] == []
        assert all(f.exists() for f in written)
        assert load_config(run / f"{command}.resolved.txt").lr0 == 1e300

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
        # and every training and test sweep is rendered once. This process
        # renders sweep 0, the forked render jobs the others, and training
        # runs in the level workers, so each process records its renders and
        # saves its dataset where this process can read them back. The order
        # of the renders across processes is not fixed.
        levels = [2, 1, 3]
        config = load_config(small_config(tmp_path, ablation_levels="2,1,3", n_test_sweeps=2))
        assert config.ablation_levels == tuple(levels)
        assert cli.main(["gen", "--config", str(tmp_path / "config.txt")]) == 0
        world, routes = cli._load_scenario(config)
        trained_dir, rendered_dir = tmp_path / "trained", tmp_path / "rendered"
        trained_dir.mkdir()
        rendered_dir.mkdir()
        real_train, real_optimal, real_jittered = learner.train, aug.sweep_optimal, aug.sweep_jittered

        def rendered(sweep_index):
            with open(rendered_dir / str(os.getpid()), "a") as fh:
                fh.write(f"{sweep_index}\n")

        def train(dataset, *args, **kwargs):
            with open(trained_dir / f"{os.getpid()}_{len(dataset.samples)}.pkl", "wb") as fh:
                pickle.dump(dataset, fh)
            return real_train(dataset, *args, **kwargs)

        def sweep_optimal(*args):
            rendered(0)
            return real_optimal(*args)

        def sweep_jittered(walk, config, world, sweep_index):
            rendered(sweep_index)
            return real_jittered(walk, config, world, sweep_index)

        monkeypatch.setattr(learner, "train", train)
        monkeypatch.setattr(aug, "sweep_optimal", sweep_optimal)
        monkeypatch.setattr(aug, "sweep_jittered", sweep_jittered)
        rows = cli.run_ablation(config, world, routes[0])
        assert [k for k, _ in rows] == levels
        assert all(isinstance(report, metrics.MetricsReport) for _, report in rows)
        by_pid = {int(file.name): list(map(int, file.read_text().split())) for file in rendered_dir.iterdir()}
        assert by_pid.pop(os.getpid()) == [0]  # this process renders only sweep 0
        render_jobs = cli.ablation_workers(len(os.sched_getaffinity(0)), max(levels) + config.n_test_sweeps - 1)
        assert len(by_pid) == render_jobs
        sweeps_rendered = sorted(i for indices in by_pid.values() for i in indices)
        assert [i for i in sweeps_rendered if i < aug.TEST_SWEEP_BASE] == [1, 2]
        assert [i for i in sweeps_rendered if i >= aug.TEST_SWEEP_BASE] == [aug.TEST_SWEEP_BASE, aug.TEST_SWEEP_BASE + 1]
        monkeypatch.undo()
        n = len(aug.walk_path(routes[0], config))
        trained = {}
        for file in trained_dir.iterdir():
            with open(file, "rb") as fh:
                dataset = pickle.load(fh)
            trained[len(dataset.samples) // n] = dataset
        assert len(list(trained_dir.iterdir())) == len(levels)
        assert sorted(trained) == sorted(levels)
        for k, dataset in trained.items():
            expected = aug.build_dataset(routes[0], replace(config, n_augmented=k), world)
            for key in aug.DATASET_ARRAYS:
                assert getattr(dataset.samples, key).tobytes() == getattr(expected.samples, key).tobytes(), key
            assert dataset.feature_mean.tobytes() == expected.feature_mean.tobytes()
            assert dataset.feature_std.tobytes() == expected.feature_std.tobytes()

    def test_ablation_level_failure_reaps_workers(self, tmp_path, monkeypatch, capsys):
        # Level 2 fails at once while level 3 would train for a minute: the
        # failure must surface, and the level 3 worker must be killed and
        # reaped rather than waited for.
        cfg = small_config(tmp_path, ablation_levels="1,2,3")
        config = load_config(cfg)
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        world, routes = cli._load_scenario(config)
        n = len(aug.walk_path(routes[0], config))

        def train(dataset, *args, **kwargs):
            k = len(dataset.samples) // n
            if k == 2:
                raise ValueError("no convergence at k=2")
            time.sleep(60)

        monkeypatch.setattr(learner, "train", train)
        monkeypatch.setattr(cli, "ablation_workers", lambda cpus, n_levels: 2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="ablation level k=2: no convergence at k=2"):
            cli.run_ablation(config, world, routes[0])
        assert children() == []
        assert cli.main(["ablation", "--config", str(cfg)]) == 2
        assert "pipeline failure: ablation level k=2: no convergence at k=2" in capsys.readouterr().err
        assert children() == []
        assert time.monotonic() - start < 30.0
        assert not (tmp_path / "run" / "ablation.csv").exists()

    def test_ablation_worker_death_is_reported(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        config = load_config(cfg)
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        world, routes = cli._load_scenario(config)
        monkeypatch.setattr(learner, "train", lambda *args, **kwargs: os._exit(3))
        with pytest.raises(RuntimeError, match="ablation level k=1: worker exited with status 3"):
            cli.run_ablation(replace(config, ablation_levels=(1,)), world, routes[0])
        assert children() == []

    @staticmethod
    def render_in(tmp_path, monkeypatch, render):
        """A scenario whose jittered sweeps, all rendered by the forked render
        jobs, first call ``render(sweep_index)``; returns the config file, the
        config, the world and the route."""
        cfg = small_config(tmp_path, ablation_levels="1,2,3", n_test_sweeps=2)
        config = load_config(cfg)
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        world, routes = cli._load_scenario(config)
        real_jittered = aug.sweep_jittered

        def sweep_jittered(walk, config, world, sweep_index):
            render(sweep_index)
            return real_jittered(walk, config, world, sweep_index)

        monkeypatch.setattr(aug, "sweep_jittered", sweep_jittered)
        return cfg, config, world, routes[0]

    def test_render_helper_failure_is_reported(self, tmp_path, monkeypatch, capsys):
        def render(sweep_index):
            raise ValueError(f"no sweep {sweep_index}")

        cfg, config, world, route = self.render_in(tmp_path, monkeypatch, render)
        with pytest.raises(RuntimeError, match=r"ablation sweep render: no sweep \d+"):
            cli.run_ablation(config, world, route)
        assert children() == []
        assert cli.main(["ablation", "--config", str(cfg)]) == 2
        assert re.search(r"pipeline failure: ablation sweep render: no sweep \d+", capsys.readouterr().err)
        assert children() == []
        assert not (tmp_path / "run" / "ablation.csv").exists()

    def test_render_helper_death_is_reported(self, tmp_path, monkeypatch):
        _, config, world, route = self.render_in(tmp_path, monkeypatch, lambda i: os._exit(3))
        with pytest.raises(RuntimeError, match="ablation sweep render: worker exited with status 3"):
            cli.run_ablation(config, world, route)
        assert children() == []

    def test_render_job_failure_reaps_the_other_render_job(self, tmp_path, monkeypatch):
        # Two render jobs over slots 1-2 and 3-4: the first would render for
        # a minute, the second fails at once. The first must be killed and
        # reaped, not waited for.
        def render(sweep_index):
            if sweep_index >= aug.TEST_SWEEP_BASE:
                raise ValueError("no test sweep here")
            time.sleep(60)

        _, config, world, route = self.render_in(tmp_path, monkeypatch, render)
        monkeypatch.setattr(cli, "ablation_workers", lambda cpus, n_jobs: 2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="ablation sweep render: no test sweep here"):
            cli.run_ablation(config, world, route)
        assert children() == []
        assert time.monotonic() - start < 30.0

    def test_pool_returns_results_in_job_order(self, tmp_path):
        # The later jobs finish first; the results still come back in job order.
        finished = tmp_path / "finished"

        def job(seconds, value):
            time.sleep(seconds)
            with open(finished, "a") as fh:
                fh.write(f"{value}\n")
            return value

        assert cli._pool([(f"job {i}", job, 0.4 * (2 - i), i) for i in range(3)], 3) == [0, 1, 2]
        assert finished.read_text().split() == ["2", "1", "0"]
        assert children() == []

    def test_forked_jobs_run_at_one_blas_thread(self, tmp_path, monkeypatch):
        # With this process at 2 BLAS threads, each render job and each level
        # worker runs at 1, which is why a pool holds one per CPU.
        set_threads = kernels._openblas(kernels.SET_NUM_THREADS, None, ctypes.c_int)
        if set_threads is None:
            pytest.skip("numpy's OpenBLAS cannot set its thread count")
        threads, seen = kernels.blas_threads(), tmp_path / "threads"
        real_train, real_optimal, real_jittered = learner.train, aug.sweep_optimal, aug.sweep_jittered

        def record():
            with open(seen, "a") as fh:
                fh.write(f"{os.getpid()} {kernels.blas_threads()}\n")

        def train(*args, **kwargs):
            record()
            return real_train(*args, **kwargs)

        def sweep_optimal(*args):
            record()
            return real_optimal(*args)

        def sweep_jittered(*args):
            record()
            return real_jittered(*args)

        monkeypatch.setattr(learner, "train", train)
        monkeypatch.setattr(aug, "sweep_optimal", sweep_optimal)
        monkeypatch.setattr(aug, "sweep_jittered", sweep_jittered)
        config = load_config(small_config(tmp_path, ablation_levels="1,2,3", n_test_sweeps=2))
        assert cli.main(["gen", "--config", str(tmp_path / "config.txt")]) == 0
        world, routes = cli._load_scenario(config)
        try:
            set_threads(2)
            if kernels.blas_threads() != 2:
                pytest.skip("OpenBLAS runs 2 threads only on 2 or more CPUs")
            cli.run_ablation(config, world, routes[0])
        finally:
            set_threads(threads)
        counts = {}
        for line in seen.read_text().splitlines():
            pid, count = map(int, line.split())
            counts.setdefault(pid, set()).add(count)
        assert counts.pop(os.getpid()) == {2}  # sweep 0, rendered here
        sweeps = max(config.ablation_levels) + config.n_test_sweeps - 1
        render_jobs = cli.ablation_workers(len(os.sched_getaffinity(0)), sweeps)
        assert len(counts) == render_jobs + len(config.ablation_levels)  # one worker per level
        assert all(count == {1} for count in counts.values())

    @staticmethod
    def kill_ablation_once_seen(tmp_path, alive_s):
        """Start ``skytrack ablation``, SIGKILL it once a child of it has been
        seen alive for ``alive_s`` seconds, and require all its children to
        exit within LEVEL_BOUND_S. This process becomes the reaper of the
        CLI's orphaned children, so it can see them exit and leaves no zombie
        behind."""
        cfg = small_config(tmp_path, epochs=10000, ablation_levels="1,2")
        assert cli.main(["gen", "--config", str(cfg)]) == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "skytrack.cli", "ablation", "--config", str(cfg)]
        set_child_subreaper(True)
        proc = subprocess.Popen(command, env=env, start_new_session=True, stdout=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            first_seen: dict[int, float] = {}
            while True:
                now, alive = time.monotonic(), children(proc.pid)
                for pid in alive:
                    first_seen.setdefault(pid, now)
                if any(now - first_seen[pid] >= alive_s for pid in alive):
                    break
                assert proc.poll() is None, "the ablation ended before a worker was seen"
                assert now < deadline, "no worker started"
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + LEVEL_BOUND_S
            while group_alive(proc.pid):
                assert time.monotonic() < deadline, "a worker outlived its killed parent"
                for pid in children():
                    os.waitpid(pid, os.WNOHANG)
                time.sleep(0.01)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            for pid in children():
                os.waitpid(pid, 0)
            set_child_subreaper(False)

    def test_ablation_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # Killed at its first child seen: most often a render job.
        self.kill_ablation_once_seen(tmp_path, 0.0)

    def test_level_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # A render job of the 9-waypoint test route lasts milliseconds, and a
        # level trains for 10,000 epochs (about a second), so a child alive
        # for 0.5 s is a level worker.
        self.kill_ablation_once_seen(tmp_path, 0.5)

    @pytest.mark.parametrize("cpus, n_levels, expected", [(2, 4, 2), (4, 3, 3), (1, 4, 1), (2, 1, 1)])
    def test_ablation_workers_rule(self, cpus, n_levels, expected):
        assert cli.ablation_workers(cpus, n_levels) == expected

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
            ("fov_deg", 400.0),
            ("path_length", 0.0),
            ("world_margin", -100.0),
            ("capture_radius", "inf"),
            ("lr0", "inf"),
            ("sac_budget", "nan"),
            ("pos_jitter", -1.0),
            ("yaw_jitter", -0.1),
            ("command_gain", 0.0),
            ("command_gain", 1.5),
            ("step", 0.0),
            ("step", 2.5),  # above capture_radius = 2.0
            ("ablation_levels", ""),
            ("ablation_levels", "1,0"),
            ("seed", -1),
            ("sac_budget", -3.0),
            ("sac_budget", 200.0),  # a turn of 200 / 7 rad per interior waypoint
            ("n_waypoints", "1" + "0" * 400),  # more segments than a float holds
            ("n_paths", 101),  # route ids have two digits
            ("n_waypoints", 10001),
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

    @pytest.mark.parametrize(
        "out_dir",
        ["", "o#1", "o\n1", "o\r1", "o\x0b1", "o\x1c1", "o\x851", "o\u20281", " o", "o ", "o\t", "o\udcff"],
        ids=[
            "empty", "hash", "lf", "cr", "vt", "fs", "nel", "line-separator",
            "leading-space", "trailing-space", "trailing-tab",
            "not-utf8",  # the lone surrogate that os.fsdecode makes of the byte 0xff
        ],
    )
    def test_out_dir_the_resolved_config_cannot_carry_exits_1(self, tmp_path, monkeypatch, capsys, out_dir):
        # Empty text is the current directory, '#' starts a comment, a line
        # break ends the line, and the value is stripped.
        cfg = small_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        for command in ("gen", "pipeline", "ablation"):
            assert cli.main([command, "--config", str(cfg), "--out-dir", out_dir]) == 1
            assert "config error: out_dir = " in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.txt"]

    def test_empty_out_dir_in_the_config_exits_1(self, tmp_path, monkeypatch, capsys):
        cfg = small_config(tmp_path, out_dir="")
        monkeypatch.chdir(tmp_path)
        for command in ("gen", "pipeline", "ablation"):
            assert cli.main([command, "--config", str(cfg)]) == 1
            assert "config error: out_dir = '' is out of range" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.txt"]

    def test_config_that_is_not_utf8_exits_1_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"seed = 1\n\xff\xfe\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        for command in ("gen", "pipeline", "ablation"):
            proc = subprocess.run(
                [sys.executable, "-m", "skytrack.cli", command, "--config", str(bad)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 1
            assert proc.stderr.startswith(f"config error: {bad}: 'utf-8' codec can't decode")
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, value", [("n_paths", 10**12), ("n_waypoints", 10**15)])
    def test_count_gen_cannot_finish_exits_1_at_once_and_writes_nothing(self, tmp_path, capsys, key, value):
        start = time.monotonic()
        assert cli.main(["gen", "--config", str(small_config(tmp_path, **{key: value}))]) == 1
        assert time.monotonic() - start < 1
        assert f"config error: {key} = " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nope = 1\n")
        assert cli.main(["gen", "--config", str(bad)]) == 1

    def test_missing_world_exit_code(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfg)]) == 2
