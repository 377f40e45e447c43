"""Batch pipeline driver and all on-disk formats.

Commands:
  gen       synthesize a landmark world and waypoint paths from a config
  pipeline  per path: build dataset, train, roll out, score, plot
  ablation  sweep the number of training augmentations and report held-out
            angle MSE plus closed-loop metrics

Config files are flat ``key = value`` text; unknown keys are rejected and a
fully resolved copy is written next to every run's outputs. Exit codes:
0 success, 1 config error, 2 pipeline stage failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import pickle
import re
import select
import signal
import sys
import zlib
from pathlib import Path as FilePath

import numpy as np

from . import BLAS_THREADS, learner, metrics, simulator
from . import augmentation as aug
from .geometry import Path, Point2, path_length, sum_angle_change, wrap_angle
from .world import LandmarkWorld, Rect, generate_world, load_world, save_world

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "out_dir": "runs/default",
    # path synthesis
    "n_paths": 1,
    "n_waypoints": 61,
    "path_length": 150.0,
    "sac_budget": 5.0,
    # world synthesis
    "world_margin": 10.0,
    "n_landmarks": 200,
    "signature_dim": 8,
    "bins": 32,
    "fov_deg": 90.0,
    # augmentation
    "n_augmented": 16,
    "pos_jitter": 1.0,
    "yaw_jitter": 0.1,
    "step": 0.2,
    "capture_radius": 2.0,
    # control
    "command_gain": 0.2,
    # training
    "lr0": 1e-4,
    "batch_size": 64,
    "epochs": 100,
    "lr_halving_period": 25,
    "projection_dim": 128,
    "hidden_units": 512,
    # ablation
    "ablation_levels": [1, 4, 8, 16],
    "n_test_sweeps": 4,
}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict[str, object]:
    """Parse flat ``key = value`` lines over the documented defaults."""
    config = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        default = DEFAULTS[key]
        try:
            if isinstance(default, list):
                config[key] = [int(v) for v in value.split(",") if v.strip()]
            elif isinstance(default, bool):
                config[key] = value.lower() in ("1", "true", "yes")
            elif isinstance(default, int):
                config[key] = int(value)
            elif isinstance(default, float):
                config[key] = float(value)
            else:
                config[key] = value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return config


def load_config(file: FilePath | str) -> dict[str, object]:
    return parse_config(FilePath(file).read_text())


def validate_config(config: dict[str, object]) -> None:
    """Reject out-of-range values, naming the key, before a command does any
    work. Comparisons are written so that NaN fails them."""

    def check(key: str, ok: bool, rule: str) -> None:
        if not ok:
            raise ConfigError(f"{key} = {config[key]!r} is out of range: {rule}")

    for key in (
        "n_paths", "n_landmarks", "signature_dim", "bins", "n_augmented", "batch_size",
        "epochs", "lr_halving_period", "projection_dim", "hidden_units", "n_test_sweeps",
    ):
        check(key, config[key] >= 1, "must be >= 1")
    check("n_waypoints", config["n_waypoints"] >= 2, "must be >= 2")
    for key in ("fov_deg", "lr0"):
        check(key, config[key] > 0, "must be > 0")
    for key in ("pos_jitter", "yaw_jitter"):
        check(key, config[key] >= 0, "must be >= 0")
    check("command_gain", 0 < config["command_gain"] <= 1, "must be in (0, 1]")
    check("step", 0 < config["step"] <= config["capture_radius"], "must be in (0, capture_radius]")
    levels = config["ablation_levels"]
    check("ablation_levels", bool(levels) and min(levels) >= 1, "must list one or more levels, each >= 1")


def write_resolved_config(config: dict[str, object], out_dir: FilePath) -> None:
    lines = []
    for key in DEFAULTS:
        value = config[key]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    (out_dir / "config.resolved.txt").write_text("\n".join(lines) + "\n")


def augmentation_config(config: dict[str, object], n_augmented: int | None = None) -> aug.AugmentationConfig:
    return aug.AugmentationConfig(
        n_augmented=int(n_augmented if n_augmented is not None else config["n_augmented"]),
        pos_jitter=float(config["pos_jitter"]),
        yaw_jitter=float(config["yaw_jitter"]),
        step=float(config["step"]),
        capture_radius=float(config["capture_radius"]),
        seed=int(config["seed"]),
        bins=int(config["bins"]),
        fov=math.radians(float(config["fov_deg"])),
    )


def train_config(config: dict[str, object]) -> learner.TrainConfig:
    return learner.TrainConfig(
        lr0=float(config["lr0"]),
        batch_size=int(config["batch_size"]),
        epochs=int(config["epochs"]),
        lr_halving_period=int(config["lr_halving_period"]),
        shuffle_seed=int(config["seed"]),
    )


# ---------------------------------------------------------------------------
# path synthesis

def generate_route(
    seed: int,
    path_id: str,
    n_waypoints: int,
    total_length: float,
    sac_budget: float,
) -> Path:
    """Seeded random walk with a turn budget.

    Interior turns all have magnitude sac_budget / (n_waypoints - 2) with
    random signs, so the realized sum of angle change equals the budget
    exactly (each turn stays below pi).
    """
    if n_waypoints < 2:
        raise ConfigError("n_waypoints must be >= 2")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(path_id.encode("utf-8"))])
    )
    n_segments = n_waypoints - 1
    turn = 0.0 if n_waypoints < 3 else sac_budget / (n_waypoints - 2)
    if turn >= math.pi:
        raise ConfigError("sac_budget too large for the waypoint count")
    seg = total_length / n_segments
    heading = float(rng.uniform(-math.pi, math.pi))
    x, y = 0.0, 0.0
    points = [Point2(x, y)]
    for i in range(n_segments):
        if i > 0:
            heading = wrap_angle(heading + turn * (1.0 if rng.random() < 0.5 else -1.0))
        x += seg * math.cos(heading)
        y += seg * math.sin(heading)
        points.append(Point2(x, y))
    return Path(tuple(points), path_id)


def routes_bounding_box(paths: list[Path], margin: float) -> Rect:
    xs = [p.x for route in paths for p in route.waypoints]
    ys = [p.y for route in paths for p in route.waypoints]
    return Rect(min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)


# ---------------------------------------------------------------------------
# file round-trip helpers

def save_path(route: Path, file: FilePath | str) -> None:
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for p in route.waypoints:
            writer.writerow([repr(p.x), repr(p.y)])


def load_path(file: FilePath | str, path_id: str | None = None) -> Path:
    file = FilePath(file)
    points: list[Point2] = []
    with open(file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "y"]:
            raise ValueError(f"{file}: expected header 'x,y'")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ValueError(f"{file}: malformed row at line {lineno}")
            try:
                points.append(Point2(float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValueError(f"{file}: malformed row at line {lineno}: {exc}") from exc
    if len(points) < 2:
        raise ValueError(f"{file}: path requires length >= 2")
    return Path(tuple(points), path_id if path_id is not None else file.stem)


def save_dataset(dataset: aug.Dataset, data_file: FilePath | str, sidecar_file: FilePath | str) -> None:
    """The samples as exact float64 arrays in one uncompressed ``.npz``
    (``features`` (N, D), ``targets``, ``path_id``, ``sweep_index``,
    ``step_index``) plus a JSON sidecar with the normalization statistics and
    the per-sweep RNG stream tags."""
    meta = [s.meta for s in dataset.samples]
    sweeps: dict[int, str] = {}
    for path_id, sweep_index, _ in meta:
        sweeps.setdefault(sweep_index, f"crc32({path_id})/{sweep_index}")
    # A file handle, not a name: np.savez appends ".npz" to a name without it.
    with open(data_file, "wb") as fh:
        np.savez(
            fh,
            features=dataset.features(),
            targets=dataset.targets(),
            path_id=np.array([m[0] for m in meta], dtype=str),
            sweep_index=np.array([m[1] for m in meta], dtype=np.int64),
            step_index=np.array([m[2] for m in meta], dtype=np.int64),
        )
    sidecar = {
        "dim": dataset.dim,
        "n_samples": len(dataset.samples),
        "feature_mean": dataset.feature_mean.tolist(),
        "feature_std": dataset.feature_std.tolist(),
        "rng_streams": {str(k): v for k, v in sorted(sweeps.items())},
    }
    FilePath(sidecar_file).write_text(json.dumps(sidecar, sort_keys=True))


def load_dataset(data_file: FilePath | str, sidecar_file: FilePath | str, fov: float) -> aug.Dataset:
    sidecar = json.loads(FilePath(sidecar_file).read_text())
    with np.load(data_file, allow_pickle=False) as arrays:
        features, targets = arrays["features"], arrays["targets"]
        meta = zip(arrays["path_id"].tolist(), arrays["sweep_index"].tolist(), arrays["step_index"].tolist())
    samples = [
        aug.Sample(observation=aug.Observation(row, fov), target=target, meta=m)
        for row, target, m in zip(features, targets.tolist(), meta)
    ]
    return aug.Dataset(
        samples,
        np.array(sidecar["feature_mean"], dtype=float),
        np.array(sidecar["feature_std"], dtype=float),
    )


# ---------------------------------------------------------------------------
# SVG emission (dependency-free, byte-deterministic)

_SVG_SIZE = 640.0
_SVG_PAD = 40.0


def _svg_transform(xs: list[float], ys: list[float]):
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    scale = (_SVG_SIZE - 2 * _SVG_PAD) / span

    def tf(x: float, y: float) -> tuple[float, float]:
        # y flipped: SVG's y axis points down
        return (_SVG_PAD + (x - xmin) * scale, _SVG_SIZE - _SVG_PAD - (y - ymin) * scale)

    return tf


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_overlay_svg(route: Path, trajectory: simulator.TrajectoryLog, file: FilePath | str) -> None:
    """Reference waypoints as circle markers over the flown polyline."""
    traj = trajectory.positions
    xs = [p.x for p in route.waypoints] + [p.x for p in traj]
    ys = [p.y for p in route.waypoints] + [p.y for p in traj]
    tf = _svg_transform(xs, ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE:.0f}" height="{_SVG_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if traj:
        pts = " ".join("{},{}".format(*map(_fmt, tf(p.x, p.y))) for p in traj)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="1.5"/>')
    for p in route.waypoints:
        cx, cy = tf(p.x, p.y)
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#1f77b4"/>')
    parts.append(f'<text x="{_SVG_PAD:.0f}" y="20" font-size="14">{route.id} ({trajectory.termination})</text>')
    parts.append("</svg>")
    FilePath(file).write_text("\n".join(parts))


def emit_line_svg(xs: list[float], ys: list[float], title: str, file: FilePath | str) -> None:
    """Minimal line chart with point markers and value labels."""
    tf = _svg_transform(xs, ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE:.0f}" height="{_SVG_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_SVG_PAD:.0f}" y="20" font-size="14">{title}</text>',
    ]
    pts = " ".join("{},{}".format(*map(_fmt, tf(x, y))) for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    for x, y in zip(xs, ys):
        cx, cy = tf(x, y)
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#1f77b4"/>')
        parts.append(f'<text x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}" font-size="11">{x:g}: {y:.6g}</text>')
    parts.append("</svg>")
    FilePath(file).write_text("\n".join(parts))


# ---------------------------------------------------------------------------
# commands

def _path_files(out_dir: FilePath) -> list[FilePath]:
    # Only the routes `gen` writes; `path_00_trajectory.csv` and the other
    # per-path artifacts share the prefix.
    return sorted(f for f in out_dir.glob("path_*.csv") if re.fullmatch(r"path_\d+\.csv", f.name))


def cmd_gen(config: dict[str, object]) -> int:
    out_dir = FilePath(str(config["out_dir"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(config["seed"])
    routes = [
        generate_route(
            seed,
            f"path_{i:02d}",
            int(config["n_waypoints"]),
            float(config["path_length"]),
            float(config["sac_budget"]),
        )
        for i in range(int(config["n_paths"]))
    ]
    bounds = routes_bounding_box(routes, float(config["world_margin"]))
    world = generate_world(seed, int(config["n_landmarks"]), int(config["signature_dim"]), bounds)
    save_world(world, out_dir / "world.json")
    for route in routes:
        save_path(route, out_dir / f"{route.id}.csv")
        print(
            f"{route.id}: length={path_length(route):.2f} m, "
            f"sac={sum_angle_change(route):.3f} rad"
        )
    write_resolved_config(config, out_dir)
    return 0


def _load_scenario(config: dict[str, object]) -> tuple[LandmarkWorld, list[Path]]:
    out_dir = FilePath(str(config["out_dir"]))
    world_file = out_dir / "world.json"
    if not world_file.exists():
        raise FileNotFoundError(f"{world_file} missing; run 'gen' first")
    routes = [load_path(f) for f in _path_files(out_dir)]
    if not routes:
        raise FileNotFoundError(f"no path_*.csv files in {out_dir}; run 'gen' first")
    return load_world(world_file), routes


def run_path_pipeline(
    config: dict[str, object], world: LandmarkWorld, route: Path, out_dir: FilePath
) -> tuple[metrics.MetricsReport, int]:
    """Dataset -> train -> closed-loop rollout -> metrics, with all artifacts
    written under out_dir. One model per path; no joint training. Returns
    the report and the number of training samples."""
    acfg = augmentation_config(config)
    dataset = aug.build_dataset(route, acfg, world)
    save_dataset(dataset, out_dir / f"{route.id}_dataset.npz", out_dir / f"{route.id}_norm.json")
    model, _ = learner.train(
        dataset,
        train_config(config),
        seed=int(config["seed"]),
        projection_dim=int(config["projection_dim"]),
        hidden=int(config["hidden_units"]),
    )
    learner.save_model(model, out_dir / f"{route.id}_model.json")
    policy = simulator.ModelPolicy(model, gain=float(config["command_gain"]))
    log = simulator.rollout(policy, world, route, acfg)
    simulator.save_trajectory(log, out_dir / f"{route.id}_trajectory.csv")
    report = metrics.evaluate(route, log)
    metrics.save_report(report, out_dir / f"{route.id}_metrics.json")
    emit_overlay_svg(route, log, out_dir / f"{route.id}_overlay.svg")
    return report, len(dataset.samples)


def cmd_pipeline(config: dict[str, object]) -> int:
    world, routes = _load_scenario(config)
    out_dir = FilePath(str(config["out_dir"]))
    write_resolved_config(config, out_dir)
    manifest = []
    failed = False
    for route in routes:
        record = {
            "path_id": route.id,
            "path_distance": path_length(route),
            "sac": sum_angle_change(route),
        }
        try:
            report, n_samples = run_path_pipeline(config, world, route, out_dir)
            record.update(
                n_samples=n_samples, mwmd=report.mwmd, mctd=report.mctd, termination=report.termination
            )
            print(
                f"{route.id}: {report.termination}, "
                f"mwmd={report.mwmd:.3f} m, mctd={report.mctd:.3f} m"
            )
        except Exception as exc:  # keep other paths running
            record["error"] = str(exc)
            failed = True
            print(f"{route.id}: FAILED ({exc})", file=sys.stderr)
        manifest.append(record)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    with open(out_dir / "manifest.csv", "w", newline="") as fh:
        fields = ["path_id", "n_samples", "path_distance", "sac", "mwmd", "mctd", "termination", "error"]
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in manifest:
            writer.writerow({k: record.get(k, "") for k in fields})
    return 2 if failed else 0


def ablation_workers(cpus: int, blas_threads: int, n_levels: int) -> int:
    """Level workers alive at once: as many as the CPUs hold at
    ``blas_threads`` BLAS threads each, at least 1 and at most one per
    distinct level."""
    return max(1, min(cpus // blas_threads, n_levels))


def _ablation_row(
    config: dict[str, object],
    world: LandmarkWorld,
    route: Path,
    test_set: list[aug.Sample],
    sweeps: list[list[aug.Sample]],
    k: int,
) -> dict[str, object]:
    """Train on sweeps 0..k-1, fly the model and score it."""
    acfg = augmentation_config(config, n_augmented=k)
    dataset = aug.dataset_from_samples([s for sweep in sweeps[:k] for s in sweep])
    model, _ = learner.train(
        dataset,
        train_config(config),
        seed=int(config["seed"]),
        projection_dim=int(config["projection_dim"]),
        hidden=int(config["hidden_units"]),
    )
    policy = simulator.ModelPolicy(model, gain=float(config["command_gain"]))
    log = simulator.rollout(policy, world, route, acfg)
    report = metrics.evaluate(route, log, test_set=test_set, model=model)
    return {"k": k, "angle_mse": report.angle_mse, "mctd": report.mctd, "termination": report.termination}


def _fork(job, *args) -> tuple[int, int]:
    """Run ``job(*args)`` in a forked child and return its pid and the read
    end of a pipe. The child writes the pickled ``("row", result)`` or
    ``("error", message)`` to the pipe and exits; it never waits on the
    parent, so it cannot outlive its job by more than the write."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = ("row", job(*args))
            except Exception as exc:
                payload = ("error", str(exc))
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
            code = 0
        finally:
            os._exit(code)  # never return into the parent's stack
    os.close(write_fd)
    return pid, read_fd


def run_ablation(
    config: dict[str, object],
    world: LandmarkWorld,
    route: Path,
    levels: list[int],
) -> list[dict[str, object]]:
    """Train one model per augmentation level and score each on held-out
    jittered sweeps (disjoint RNG streams) and in closed loop.

    Level k trains on sweeps 0..k-1, the same dataset ``aug.build_dataset``
    gives for ``n_augmented = k``; a sweep does not depend on k, so each one
    is rendered once, here. Every distinct level then runs in its own forked
    child, which inherits the sweeps and sends back only its row: the
    largest k first, at most ``ablation_workers`` children at a time. The
    first failing level kills and reaps the other children and raises."""
    acfg = augmentation_config(config)
    test_set: list[aug.Sample] = []
    for i in range(int(config["n_test_sweeps"])):
        test_set.extend(aug.sweep_jittered(route, acfg, world, aug.TEST_SWEEP_BASE + i))
    sweeps = [aug.sweep_samples(route, acfg, world, i) for i in range(max(levels))]

    pending = sorted(set(levels), reverse=True)
    workers = ablation_workers(len(os.sched_getaffinity(0)), BLAS_THREADS, len(pending))
    running: dict[int, tuple[int, int]] = {}  # read fd -> (pid, k)
    rows: dict[int, dict[str, object]] = {}
    try:
        while pending or running:
            while pending and len(running) < workers:
                k = pending.pop(0)
                pid, fd = _fork(_ablation_row, config, world, route, test_set, sweeps, k)
                running[fd] = (pid, k)
            fd = select.select(list(running), [], [])[0][0]
            pid, k = running[fd]
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()  # until EOF: the child has written and exited
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[fd]
            os.close(fd)
            if code != 0:  # killed, or died before its payload was whole
                raise RuntimeError(f"ablation level k={k}: worker exited with status {code}")
            kind, value = pickle.loads(data)
            if kind == "error":
                raise RuntimeError(f"ablation level k={k}: {value}")
            rows[k] = value
    finally:
        for pid, _ in running.values():
            os.kill(pid, signal.SIGKILL)
        for fd, (pid, _) in running.items():
            os.waitpid(pid, 0)
            os.close(fd)
    return [rows[k] for k in levels]


def cmd_ablation(config: dict[str, object]) -> int:
    world, routes = _load_scenario(config)
    out_dir = FilePath(str(config["out_dir"]))
    write_resolved_config(config, out_dir)
    route = routes[0]
    levels = [int(k) for k in config["ablation_levels"]]
    rows = run_ablation(config, world, route, levels)
    with open(out_dir / "ablation.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["k", "angle_mse", "mctd", "termination"])
        writer.writeheader()
        writer.writerows(rows)
    emit_line_svg(
        [float(r["k"]) for r in rows],
        [float(r["angle_mse"]) for r in rows],
        f"held-out angle MSE vs training sweeps ({route.id})",
        out_dir / "ablation.svg",
    )
    for r in rows:
        print(f"k={r['k']}: angle_mse={r['angle_mse']:.6g}, mctd={r['mctd']:.3f}, {r['termination']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="skytrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "pipeline", "ablation"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out-dir", help="override out_dir from the config")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.out_dir:
            config["out_dir"] = args.out_dir
        validate_config(config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "gen":
            return cmd_gen(config)
        if args.command == "pipeline":
            return cmd_pipeline(config)
        return cmd_ablation(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
