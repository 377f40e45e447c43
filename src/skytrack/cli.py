"""Batch pipeline driver: the commands, the fork pool and the plots. Each
file format lives beside the record it builds (``geometry.save_path``,
``augmentation.save_dataset``, ``world.save_world`` and so on).

Commands:
  gen       synthesize a landmark world and waypoint paths from a config
  pipeline  per path: build dataset, train, roll out, score, plot
  ablation  sweep the number of training augmentations and report held-out
            angle MSE plus closed-loop metrics

Config files are flat ``key = value`` text; unknown keys are rejected. Each
command writes its fully resolved copy next to its outputs, as
``<command>.resolved.txt`` (``gen``'s is ``config.resolved.txt``), and
``pipeline`` and ``ablation`` first check that the world and routes on disk
are the ones their config makes. A path or an ablation that fails leaves
none of an earlier run's files under the names it would have written.
Exit codes: 0 success, 1 config error, 2 pipeline stage failure.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import pickle
import select
import signal
import sys
from dataclasses import fields, replace
from pathlib import Path as FilePath

import numpy as np

from . import kernels, learner, metrics, simulator
from . import augmentation as aug
from .artifacts import remove, write_csv, write_text
from .augmentation import save_dataset
from .config import ConfigError, RunConfig, format_config, load_config
from .geometry import Path, generate_route, load_path, path_length, save_path, sum_angle_change
from .world import LandmarkWorld, generate_world, load_world, routes_bounding_box, save_world

def write_resolved_config(config: RunConfig, file: FilePath) -> None:
    write_text(file, format_config(config))


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


def _circle(cx: float, cy: float) -> str:
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#1f77b4"/>'


def _write_svg(file: FilePath | str, parts: list[str]) -> None:
    """``parts``, one element a line, on a white square canvas."""
    header = f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE:.0f}" height="{_SVG_SIZE:.0f}">'
    write_text(file, "\n".join([header, '<rect width="100%" height="100%" fill="white"/>', *parts, "</svg>"]))


def emit_overlay_svg(route: Path, trajectory: simulator.TrajectoryLog, file: FilePath | str) -> None:
    """Reference waypoints as circle markers over the flown polyline."""
    wps, traj = route.waypoints.tolist(), trajectory.poses[:, :2].tolist()
    tf = _svg_transform(*zip(*wps, *traj))
    pts = " ".join("{},{}".format(*map(_fmt, tf(x, y))) for x, y in traj)
    _write_svg(file, [
        f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="1.5"/>',
        *(_circle(*tf(x, y)) for x, y in wps),
        f'<text x="{_SVG_PAD:.0f}" y="20" font-size="14">{route.id} ({trajectory.termination})</text>',
    ])


def emit_line_svg(xs: list[float], ys: list[float], title: str, file: FilePath | str) -> None:
    """Minimal line chart with point markers and value labels."""
    tf = _svg_transform(xs, ys)
    pts = " ".join("{},{}".format(*map(_fmt, tf(x, y))) for x, y in zip(xs, ys))
    parts = [
        f'<text x="{_SVG_PAD:.0f}" y="20" font-size="14">{title}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
    ]
    for x, y in zip(xs, ys):
        cx, cy = tf(x, y)
        parts += [_circle(cx, cy), f'<text x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}" font-size="11">{x:g}: {y:.6g}</text>']
    _write_svg(file, parts)


# ---------------------------------------------------------------------------
# commands

def scenario(config: RunConfig) -> tuple[LandmarkWorld, list[Path]]:
    """The world and the routes path_00 .. path_{n_paths-1} that ``config`` makes."""
    routes = [generate_route(config, f"path_{i:02d}") for i in range(config.n_paths)]
    return generate_world(config, routes_bounding_box(routes, config.world_margin)), routes


def cmd_gen(config: RunConfig) -> int:
    out_dir = FilePath(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    world, routes = scenario(config)
    save_world(world, out_dir / "world.json")
    for route in routes:
        save_path(route, out_dir / f"{route.id}.csv")
        print(
            f"{route.id}: length={path_length(route):.2f} m, "
            f"sac={sum_angle_change(route):.3f} rad"
        )
    write_resolved_config(config, out_dir / "config.resolved.txt")
    return 0


def _load_scenario(config: RunConfig) -> tuple[LandmarkWorld, list[Path]]:
    """The world and the routes that 'gen' wrote, which must be the ones
    ``scenario(config)`` makes: a file that differs raises ValueError naming
    it and its first field that differs, or its waypoint count when that
    differs (a route file cut at a row boundary still parses)."""
    out_dir = FilePath(config.out_dir)
    files = [out_dir / "world.json"] + [out_dir / f"path_{i:02d}.csv" for i in range(config.n_paths)]
    for file in files:
        if not file.exists():
            raise FileNotFoundError(f"{file} missing; run 'gen' first")
    world, routes = load_world(files[0]), [load_path(f) for f in files[1:]]
    made_world, made_routes = scenario(config)
    for file, loaded, made in zip(files, [world, *routes], [made_world, *made_routes]):
        for key in (f.name for f in fields(made)):
            a, b = getattr(loaded, key), getattr(made, key)
            if key == "waypoints" and len(a) != len(b):
                raise ValueError(f"{file}: {len(a)} waypoints, expected n_waypoints = {config.n_waypoints}")
            if not (np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b):
                raise ValueError(f"{file}: {key!r} differs from what this config makes; run 'gen' with it first")
    return world, routes


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


def path_files(out_dir: FilePath, route_id: str) -> list[FilePath]:
    """The six files that ``run_path_pipeline`` writes for a route, in write
    order: dataset, its sidecar, model, trajectory, metrics and overlay."""
    names = ("dataset.npz", "norm.json", "model.json", "trajectory.csv", "metrics.json", "overlay.svg")
    return [out_dir / f"{route_id}_{name}" for name in names]


def run_path_pipeline(
    config: RunConfig, world: LandmarkWorld, route: Path, out_dir: FilePath
) -> tuple[metrics.MetricsReport, int]:
    """Dataset -> train -> closed-loop rollout -> metrics, with all artifacts
    written under out_dir. One model per path; no joint training. Returns
    the report and the number of training samples. The path's six files
    are removed first, so a path that fails leaves none of an earlier run's."""
    files = path_files(out_dir, route.id)
    remove(*files)
    dataset_file, norm_file, model_file, trajectory_file, metrics_file, overlay_file = files
    dataset = aug.build_dataset(route, config, world)
    save_dataset(dataset, dataset_file, norm_file, route.id, config.n_augmented)
    n_samples = len(dataset.samples)
    model, log, report = _train_fly_score(config, world, route, dataset)
    del dataset  # so the features are freed before save_model builds the model's JSON text
    learner.save_model(model, model_file)
    simulator.save_trajectory(log, trajectory_file)
    metrics.save_report(report, metrics_file)
    emit_overlay_svg(route, log, overlay_file)
    return report, n_samples


def cmd_pipeline(config: RunConfig) -> int:
    world, routes = _load_scenario(config)
    out_dir = FilePath(config.out_dir)
    write_resolved_config(config, out_dir / "pipeline.resolved.txt")
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
    write_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=1))
    fields = ["path_id", "n_samples", "path_distance", "sac", "mwmd", "mctd", "termination", "error"]
    write_csv(out_dir / "manifest.csv", fields, ([record.get(k, "") for k in fields] for record in manifest))
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


def _shared_samples(n: int, dim: int) -> aug.Samples:
    """``n`` rows of ``dim`` features and their targets over anonymous shared
    memory, so what a forked child writes there reaches this process."""

    def shared(*shape: int) -> np.ndarray:
        buffer = mmap.mmap(-1, max(1, math.prod(shape) * 8))  # MAP_SHARED; an mmap cannot be empty
        return np.frombuffer(buffer, np.float64, math.prod(shape)).reshape(shape)

    return aug.Samples(shared(n, dim), shared(n))


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
    kernels.load()  # loaded once, before sweep 0's render and the first fork; the forked children inherit it
    walk, first = aug.sweep_optimal(route, config, world)
    n, slots = len(walk), n_train + config.n_test_sweeps
    samples = _shared_samples(slots * n, first.features.shape[1])
    samples[:n] = first
    del first  # its rows are in the buffer now; the forked children need not map a second copy

    def level(k: int) -> metrics.MetricsReport:
        """Train on sweeps 0..k-1, fly the model and score it."""
        dataset = aug.dataset_from_samples(samples[: k * n])
        return _train_fly_score(config, world, route, dataset, samples[n_train * n :])[2]

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
    write_resolved_config(config, out_dir / "ablation.resolved.txt")
    route = routes[0]
    try:
        rows = run_ablation(config, world, route)
    except BaseException:  # the table and plot are written only after every level: none of an earlier run's stays
        remove(out_dir / "ablation.csv", out_dir / "ablation.svg")
        raise
    table = ((k, r.angle_mse, r.mctd, r.termination) for k, r in rows)
    write_csv(out_dir / "ablation.csv", ["k", "angle_mse", "mctd", "termination"], table)
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
