"""skytrack benchmark: four workloads through the CLI and the public API.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/skytrack``); nothing
has to be installed. Each repetition runs the workload's commands as fresh
processes, one at a time (a closed loop with one client), in a fresh
``out_dir`` that is removed once its outputs are checked and digested.
Repetitions continue until ``--seconds`` is used up; there are at least two,
so every run also checks that the deterministic artifacts repeat byte for
byte. The benchmark sets no thread variables: the program runs with the BLAS
threading users get.

``--trace 0`` prints the end-to-end metrics (medians over the repetitions).
``--trace 1`` runs untraced repetitions and then one traced repetition, whose
process wraps the public functions of every ``skytrack`` module
(``perfbench/tracer.py``), and prints the per-layer metrics. The last line of
standard output is the JSON result; the line before it holds the details
(provenance, per-repetition samples, check results, quality figures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3  # extra `gen` runs per benchmark run, for the set-up median
ABLATION_LEVELS = [1, 4, 8, 16]  # the CLI default
CHILD_TIMEOUT_S = 150.0
# Per-layer metrics: the tracer's, plus three the traced run adds.
PER_LAYER = LAYER_METRICS + [("metrics.angle_mse", "rad2"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")]


@dataclass(frozen=True)
class Workload:
    command: str  # "pipeline" or "ablation"
    config: dict = field(default_factory=dict)


# Why each workload exists is in BENCHMARK.json. The CLI defaults apply
# except where a workload overrides them. Sizes are cut so that a run holds
# several repetitions, for a steady median, while training stays most of
# pipeline_default and ablation_k (epochs cut from the default 100;
# lr_halving_period keeps the rate halving about three times).
WORKLOADS = {
    "pipeline_default": Workload("pipeline", {"n_augmented": 6, "epochs": 30, "lr_halving_period": 8}),
    "ablation_k": Workload("ablation", {"epochs": 8, "lr_halving_period": 2}),
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd: list[str], log: Path, deadline: float) -> Child:
    """Run one process to completion, with its own wall time, CPU time
    (user + sys, including its waited-for children) and peak RSS. The wait
    blocks, so this process does not wake up while the child runs; a timer
    kills the child at the deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "skytrack.cli", *args]


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: list[float]
    disk_bytes: int
    digest: str
    problems: list[str]
    quality: dict
    trace: dict | None = None


def run_rep(name: str, seed: int, rep_dir: Path, traced: bool, deadline: float) -> Rep:
    """One repetition in a fresh directory: set-up, the timed command,
    then the output checks. The directory is removed by the caller."""
    w = WORKLOADS[name]
    out, meta = rep_dir / "out", rep_dir / "meta"
    meta.mkdir(parents=True)
    problems: list[str] = []
    trace_args = [
        sys.executable, str(BENCH / "tracer.py"),
        "--run-id", rep_dir.name, "--summary", str(meta / "trace.json"), "--spans", str(WORK / f"spans-{name}.csv"),
    ]

    config = meta / "config.txt"
    config.write_text("".join(f"{k} = {v}\n" for k, v in {"seed": seed, **w.config}.items()))
    gen = run_child(cli_cmd("gen", "--config", str(config), "--out-dir", str(out)), meta / "gen.log", deadline)
    setup_s = [gen.wall_s]
    if gen.code != 0:
        problems.append(f"gen exited {gen.code}")
    args = [w.command, "--config", str(config), "--out-dir", str(out)]
    log = meta / "main.log"
    main = run_child(trace_args + args if traced else cli_cmd(*args), log, deadline)

    trace = None
    if main.code != 0:
        problems.append(f"{w.command} exited {main.code}: {log.read_text()[-300:]!r}")
        quality, digest, disk = {}, "", 0
    else:
        if w.command == "ablation":
            found, quality = checks.check_ablation(out, ABLATION_LEVELS)
        else:
            found, quality = checks.check_pipeline(out, int(w.config.get("n_paths", 1)))
        problems += found
        digest, disk = checks.artifact_digest(out), checks.disk_bytes(out)
        if traced:
            trace = json.loads((meta / "trace.json").read_text())
    wall = main.wall_s - (trace["bookkeeping_s"] if trace else 0.0)
    return Rep(wall, main.cpu_s, main.rss_mb, setup_s, disk, digest, problems, quality, trace)


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))),
    }


def setup_samples(seed: int, run_dir: Path, deadline: float) -> list[float]:
    """Extra `gen` runs, each into a fresh directory, timed as set-up."""
    times = []
    config = run_dir / "setup.txt"
    config.write_text(f"seed = {seed}\n")
    for i in range(SETUP_REPEATS):
        out = run_dir / f"setup{i}"
        child = run_child(cli_cmd("gen", "--config", str(config), "--out-dir", str(out)), run_dir / "setup.log", deadline)
        if child.code != 0:
            raise RuntimeError(f"gen exited {child.code}")
        times.append(child.wall_s)
        shutil.rmtree(out)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "skytrack" / "cli.py").is_file():
        print(f"error: no skytrack sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + CHILD_TIMEOUT_S
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setup = setup_samples(args.seed, run_dir, deadline)
        reps: list[Rep] = []
        # Untraced repetitions while the budget lasts: at least two, or with
        # --trace 1 at least one and room left for the traced repetition,
        # which runs slower.
        reps_started = time.perf_counter()
        while True:
            now = time.perf_counter()
            per_rep = (now - reps_started) / len(reps) if reps else 0.0
            budget = args.seconds - (1.3 * per_rep if args.trace else 0.0)
            if len(reps) >= (1 if args.trace else 2) and now - started + per_rep > budget:
                break
            reps.append(run_rep(args.workload, args.seed, run_dir / f"rep{len(reps)}", False, deadline))
            shutil.rmtree(run_dir / f"rep{len(reps) - 1}")
        untraced = list(reps)
        if args.trace:
            reps.append(run_rep(args.workload, args.seed, run_dir / "traced", True, deadline))
            shutil.rmtree(run_dir / "traced")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for i, rep in enumerate(reps[1:], start=1):
        if rep.digest != reps[0].digest:
            label = "traced repetition" if args.trace and i == len(untraced) else f"repetition {i}"
            rep.problems.append(f"{label}: artifact digest differs from repetition 0")
    failed = sum(bool(rep.problems) for rep in reps)
    wall = statistics.median(r.wall_s for r in untraced)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reps": len(untraced),
        "provenance": provenance(),
        "error_rate": failed / len(reps),
        "problems": [p for rep in reps for p in rep.problems][:20],
        "peak_rss": "largest single process of the timed command",
        "samples": {
            "wall_s": [r.wall_s for r in untraced],
            "cpu_s": [r.cpu_s for r in untraced],
            "peak_rss_mb": [r.rss_mb for r in untraced],
            "setup_s": setup + [s for r in untraced for s in r.setup_s],
        },
        "digest": reps[0].digest,
        "quality": reps[0].quality,
    }
    if args.trace:
        traced = reps[-1]
        layer = dict(traced.trace["metrics"] if traced.trace else {})
        layer["metrics.angle_mse"] = traced.quality.get("angle_mse", 0.0)
        layer["trace.wall_s"] = traced.wall_s
        layer["trace.overhead_s"] = traced.wall_s - wall
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        detail["notes"] = {
            "learner.gflop": "computed from array shapes, not measured",
            "trace.overhead_s": "traced wall_s minus the untraced median of this run",
            "zeros": "a layer the workload does not use reports 0",
        }
        if traced.trace:
            detail["trace_samples"] = traced.trace["samples"]
            detail["trace_spans"] = traced.trace["spans"]
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in untraced), "unit": "MB"},
            "setup_s": {"value": statistics.median(detail["samples"]["setup_s"] or [0.0]), "unit": "s"},
            "disk_mb": {"value": statistics.median(r.disk_bytes for r in untraced) / 1e6, "unit": "MB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
