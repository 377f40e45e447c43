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
import mmap
import os
import pickle
import select
import signal
import sys
import zipfile
import zlib
from dataclasses import replace
from pathlib import Path as FilePath

import numpy as np

from . import kernels, learner, metrics, simulator
from . import augmentation as aug
from .config import ConfigError, RunConfig, load_config
from .geometry import Path, path_length, sum_angle_change, wrap_angle
from .world import LandmarkWorld, Rect, generate_world, json_floats, load_world, save_world

def write_resolved_config(config: RunConfig, out_dir: FilePath) -> None:
    lines = []
    for key, value in vars(config).items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    (out_dir / "config.resolved.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# path synthesis

def generate_route(config: RunConfig, path_id: str) -> Path:
    """Seeded random walk with a turn budget, all read from ``config``.

    Interior turns all have magnitude sac_budget / (n_waypoints - 2) with
    random signs, so the realized sum of angle change equals the budget
    exactly (``RunConfig`` keeps each turn below pi).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, zlib.crc32(path_id.encode("utf-8"))])
    )
    n_segments = config.n_waypoints - 1
    turn = 0.0 if config.n_waypoints < 3 else config.sac_budget / (config.n_waypoints - 2)
    seg = config.path_length / n_segments
    heading = float(rng.uniform(-math.pi, math.pi))
    x, y = 0.0, 0.0
    points = [(x, y)]
    for i in range(n_segments):
        if i > 0:
            heading = wrap_angle(heading + turn * (1.0 if rng.random() < 0.5 else -1.0))
        x += seg * math.cos(heading)
        y += seg * math.sin(heading)
        points.append((x, y))
    return Path(points, path_id)


def routes_bounding_box(paths: list[Path], margin: float) -> Rect:
    w = np.concatenate([route.waypoints for route in paths])
    (xmin, ymin), (xmax, ymax) = w.min(axis=0).tolist(), w.max(axis=0).tolist()
    return Rect(xmin - margin, ymin - margin, xmax + margin, ymax + margin)


# ---------------------------------------------------------------------------
# file round-trip helpers

def save_path(route: Path, file: FilePath | str) -> None:
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in route.waypoints.tolist():
            writer.writerow([repr(x), repr(y)])


def load_path(file: FilePath | str) -> Path:
    """Read what save_path wrote, as the path named by the file's stem. A
    file that does not hold at least two finite waypoints, no two equal in
    a row, raises one ValueError naming it."""
    file = FilePath(file)
    points: list[tuple[float, float]] = []
    try:
        with open(file, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["x", "y"]]:
            raise ValueError("expected header 'x,y'")
        for lineno, row in enumerate(rows[1:], start=2):
            try:
                x, y = map(float, row)
            except ValueError as exc:  # a count other than 2 too
                raise ValueError(f"malformed row at line {lineno}: {exc}") from exc
            points.append((x, y))
        return Path(points, file.stem)
    except (csv.Error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{file}: {exc}") from exc


# The arrays of a dataset file, in file order, and their dtypes ("str": unicode of any width).
DATASET_ARRAYS = {
    "features": "float64", "targets": "float64", "path_id": "str", "sweep_index": "int64", "step_index": "int64"
}


def save_dataset(dataset: aug.Dataset, data_file: FilePath | str, sidecar_file: FilePath | str) -> None:
    """The samples as exact float64 arrays in one uncompressed ``.npz``
    (``features`` (N, D), ``targets``, ``path_id``, ``sweep_index``,
    ``step_index``) plus a JSON sidecar with the normalization statistics and
    the per-sweep RNG stream tags."""
    samples = dataset.samples
    sweeps, first = np.unique(samples.sweep_index, return_index=True)
    # A file handle, not a name: np.savez appends ".npz" to a name without it.
    with open(data_file, "wb") as fh:
        np.savez(fh, **{key: getattr(samples, key) for key in DATASET_ARRAYS})
    sidecar = {
        "dim": dataset.dim,
        "n_samples": len(samples),
        "feature_mean": dataset.feature_mean.tolist(),
        "feature_std": dataset.feature_std.tolist(),
        "rng_streams": {
            str(k): f"crc32({samples.path_id[i]})/{k}" for k, i in zip(sweeps.tolist(), first.tolist())
        },
    }
    FilePath(sidecar_file).write_text(json.dumps(sidecar, sort_keys=True))


def _check_dataset(arrays: dict[str, np.ndarray], sidecar: dict) -> tuple[np.ndarray, np.ndarray]:
    """Raise ValueError unless the arrays and the sidecar make one dataset;
    return its feature mean and std."""

    def check(ok: bool, problem: str) -> None:
        if not ok:
            raise ValueError(problem)

    rows, dim = sidecar["n_samples"], sidecar["dim"]
    for key, dtype in DATASET_ARRAYS.items():
        check(key in arrays, f"missing array {key!r}")
        a = arrays[key]
        ok = a.dtype.kind == "U" if dtype == "str" else a.dtype == dtype
        check(ok, f"{key} has dtype {a.dtype}, not {dtype}")
        shape = (rows, dim) if key == "features" else (rows,)
        check(a.shape == shape, f"{key} has shape {a.shape}, not {shape}")
    mean, std = json_floats(sidecar["feature_mean"]), json_floats(sidecar["feature_std"])
    for key, a in (("feature_mean", mean), ("feature_std", std)):
        check(a.shape == (dim,), f"sidecar {key} has shape {a.shape}, not ({dim},)")
    check(np.isfinite(mean).all() and np.isfinite(std).all(), "non-finite statistic")
    check(bool((std >= aug.STD_FLOOR).all()), f"feature_std below {aug.STD_FLOOR}")
    check(np.isfinite(arrays["features"]).all() and np.isfinite(arrays["targets"]).all(), "non-finite values")
    return mean, std


def load_dataset(data_file: FilePath | str, sidecar_file: FilePath | str) -> aug.Dataset:
    """Read what save_dataset wrote. A file that is unreadable or does not
    hold one consistent dataset raises one ValueError naming it. The sidecar's
    statistics must be JSON numbers (not null, a boolean or a string), one per
    feature, finite, with every std at least ``augmentation.STD_FLOOR``: the
    floor that every written std meets."""
    try:
        sidecar = json.loads(FilePath(sidecar_file).read_text())
        with np.load(data_file, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        mean, std = _check_dataset(arrays, sidecar)
    # zipfile raises NotImplementedError for a garbled compression method or version.
    except (OSError, EOFError, KeyError, NotImplementedError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{data_file}: bad dataset (sidecar {sidecar_file}): {exc}") from exc
    return aug.Dataset(aug.Samples(**{key: arrays[key] for key in DATASET_ARRAYS}), mean, std)


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
    wps, traj = route.waypoints.tolist(), trajectory.poses[:, :2].tolist()
    tf = _svg_transform(*zip(*wps, *traj))
    pts = " ".join("{},{}".format(*map(_fmt, tf(x, y))) for x, y in traj)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE:.0f}" height="{_SVG_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="1.5"/>',
    ]
    for x, y in wps:
        cx, cy = tf(x, y)
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

def cmd_gen(config: RunConfig) -> int:
    out_dir = FilePath(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    routes = [generate_route(config, f"path_{i:02d}") for i in range(config.n_paths)]
    bounds = routes_bounding_box(routes, config.world_margin)
    world = generate_world(config, bounds)
    save_world(world, out_dir / "world.json")
    for route in routes:
        save_path(route, out_dir / f"{route.id}.csv")
        print(
            f"{route.id}: length={path_length(route):.2f} m, "
            f"sac={sum_angle_change(route):.3f} rad"
        )
    write_resolved_config(config, out_dir)
    return 0


def _load_scenario(config: RunConfig) -> tuple[LandmarkWorld, list[Path]]:
    """The world and the routes path_00 .. path_{n_paths-1} that 'gen' wrote."""
    out_dir = FilePath(config.out_dir)
    files = [out_dir / "world.json"] + [out_dir / f"path_{i:02d}.csv" for i in range(config.n_paths)]
    for file in files:
        if not file.exists():
            raise FileNotFoundError(f"{file} missing; run 'gen' first")
    return load_world(files[0]), [load_path(f) for f in files[1:]]


def _train_fly_score(
    config: RunConfig,
    world: LandmarkWorld,
    route: Path,
    dataset: aug.Dataset,
    test_set: aug.Samples | None = None,
) -> tuple[learner.RegressorModel, simulator.TrajectoryLog, metrics.MetricsReport]:
    """Train a model on ``dataset``, fly it along ``route`` and score the
    flight, plus the held-out angle MSE when ``test_set`` is given."""
    model, _ = learner.train(dataset, config, projection_dim=config.projection_dim, hidden=config.hidden_units)
    policy = simulator.ModelPolicy(model, config)
    log = simulator.rollout(policy, world, route, config)
    return model, log, metrics.evaluate(route, log, test_set=test_set, model=model)


def run_path_pipeline(
    config: RunConfig, world: LandmarkWorld, route: Path, out_dir: FilePath
) -> tuple[metrics.MetricsReport, int]:
    """Dataset -> train -> closed-loop rollout -> metrics, with all artifacts
    written under out_dir. One model per path; no joint training. Returns
    the report and the number of training samples."""
    dataset = aug.build_dataset(route, config, world)
    save_dataset(dataset, out_dir / f"{route.id}_dataset.npz", out_dir / f"{route.id}_norm.json")
    n_samples = len(dataset.samples)
    model, log, report = _train_fly_score(config, world, route, dataset)
    del dataset  # so the features are freed before save_model builds the model's JSON text
    learner.save_model(model, out_dir / f"{route.id}_model.json")
    simulator.save_trajectory(log, out_dir / f"{route.id}_trajectory.csv")
    metrics.save_report(report, out_dir / f"{route.id}_metrics.json")
    emit_overlay_svg(route, log, out_dir / f"{route.id}_overlay.svg")
    return report, n_samples


def cmd_pipeline(config: RunConfig) -> int:
    world, routes = _load_scenario(config)
    out_dir = FilePath(config.out_dir)
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


def ablation_workers(cpus: int, n_jobs: int) -> int:
    """Ablation children alive at once: one per CPU, since each runs at one
    BLAS thread, at least 1 and at most one per job."""
    return max(1, min(cpus, n_jobs))


def _fork(job, *args) -> tuple[int, int]:
    """Run ``job(*args)`` at one BLAS thread in a forked child and return its
    pid and the read end of a pipe. The child writes the pickled
    ``("result", result)`` or ``("error", message)`` to the pipe and exits;
    it never waits on the parent, so it cannot outlive its job by more than
    the write."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                with kernels.one_blas_thread():
                    payload = ("result", job(*args))
            except Exception as exc:
                payload = ("error", str(exc))
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
            code = 0
        finally:
            os._exit(code)  # never return into the parent's stack
    os.close(write_fd)
    return pid, read_fd


def _pool(jobs: list[tuple], workers: int) -> list:
    """Run each job ``(name, fn, *args)`` as ``fn(*args)`` in a child of
    ``_fork``, started in list order with at most ``workers`` alive at once,
    and return the results in list order. Each child is read to EOF and
    reaped as it ends. One that failed or died raises RuntimeError naming
    its job, and every child still running is killed and reaped first."""
    results, started = [None] * len(jobs), 0
    running: dict[int, tuple[int, int]] = {}  # read fd -> (pid, job index)
    try:
        while started < len(jobs) or running:
            while started < len(jobs) and len(running) < workers:
                pid, fd = _fork(*jobs[started][1:])
                running[fd] = (pid, started)
                started += 1
            fd = select.select(list(running), [], [])[0][0]
            pid, i = running[fd]
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()  # until EOF: the child has written and exited
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[fd]
            os.close(fd)
            if code != 0:  # killed, or died before its payload was whole
                raise RuntimeError(f"{jobs[i][0]}: worker exited with status {code}")
            kind, value = pickle.loads(data)
            if kind == "error":
                raise RuntimeError(f"{jobs[i][0]}: {value}")
            results[i] = value
    finally:
        for pid, _ in running.values():
            os.kill(pid, signal.SIGKILL)
        for fd, (pid, _) in running.items():
            os.waitpid(pid, 0)
            os.close(fd)
    return results


def _shared_samples(like: aug.Samples, n: int) -> aug.Samples:
    """``n`` rows of ``like``'s dtypes and widths over anonymous shared
    memory, so what a forked child writes there reaches this process."""
    arrays = {}
    for name, a in vars(like).items():
        shape = (n, *a.shape[1:])
        buffer = mmap.mmap(-1, max(1, math.prod(shape) * a.itemsize))  # MAP_SHARED; an mmap cannot be empty
        arrays[name] = np.frombuffer(buffer, a.dtype, math.prod(shape)).reshape(shape)
    return aug.Samples(**arrays)


def run_ablation(config: RunConfig, world: LandmarkWorld, route: Path) -> list[tuple[int, metrics.MetricsReport]]:
    """Train one model per level of ``config.ablation_levels`` and score each
    on held-out jittered sweeps (disjoint RNG streams) and in closed loop;
    returns ``(k, report)`` in config order.

    Level k trains on sweeps 0..k-1, the same dataset ``aug.build_dataset``
    gives for ``n_augmented = k``. A sweep does not depend on k, so the path
    is walked and each sweep rendered once: every sweep has the walk's
    length, so level k's rows are the first k * len(walk), and the test
    sweeps follow the largest level's. This process renders sweep 0 into one
    shared buffer, and one ``_pool`` of render jobs, one per CPU, fills
    about equal runs of the other sweeps. A second ``_pool`` then runs every
    distinct level, the largest k first: each child reads its rows and the
    test rows from that buffer and sends back only its report."""
    levels, n_train = config.ablation_levels, max(config.ablation_levels)
    walk, first = aug.sweep_optimal(route, config, world)
    n, slots = len(walk), n_train + config.n_test_sweeps
    samples = _shared_samples(first, slots * n)
    samples[:n] = first
    del first  # its rows are in the buffer now; the forked children need not map a second copy

    def level(k: int) -> metrics.MetricsReport:
        """Train on sweeps 0..k-1, fly the model and score it."""
        dataset = aug.dataset_from_samples(samples[: k * n])
        return _train_fly_score(config, world, route, dataset, samples[n_train * n :])[2]

    kernels.load()  # loaded once, before the first fork; the forked children inherit it
    cpus = len(os.sched_getaffinity(0))
    parts = ablation_workers(cpus, slots - 1)
    edges = [1 + (slots - 1) * i // parts for i in range(parts + 1)]
    fill = ("ablation sweep render", aug.fill_sweeps, walk, config, world, samples, n_train)
    _pool([(*fill, range(start, stop)) for start, stop in zip(edges, edges[1:])], parts)
    distinct = sorted(set(levels), reverse=True)
    jobs = [(f"ablation level k={k}", level, k) for k in distinct]
    reports = dict(zip(distinct, _pool(jobs, ablation_workers(cpus, len(distinct)))))
    return [(k, reports[k]) for k in levels]


def cmd_ablation(config: RunConfig) -> int:
    world, routes = _load_scenario(config)
    out_dir = FilePath(config.out_dir)
    write_resolved_config(config, out_dir)
    route = routes[0]
    rows = run_ablation(config, world, route)
    with open(out_dir / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "angle_mse", "mctd", "termination"])
        writer.writerows((k, r.angle_mse, r.mctd, r.termination) for k, r in rows)
    emit_line_svg(
        [k for k, _ in rows],
        [r.angle_mse for _, r in rows],
        f"held-out angle MSE vs training sweeps ({route.id})",
        out_dir / "ablation.svg",
    )
    for k, r in rows:
        print(f"k={k}: angle_mse={r.angle_mse:.6g}, mctd={r.mctd:.3f}, {r.termination}")
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
        if args.out_dir is not None:
            config = replace(config, out_dir=args.out_dir)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "gen":
            return cmd_gen(config)
        if args.command == "pipeline":
            return cmd_pipeline(config)
        return cmd_ablation(config)
    except Exception as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
